"""Spanning-tree certificates for the Khovanov bound on the
Thurston-Bennequin number of Legendrian fronts, with from-scratch
Khovanov homology and Jones polynomial oracles."""

from .bounds import BoundReport, sharpness_report
from .corpus import BUNDLED, CorpusEntry
from .errors import (
    ConventionError,
    Disconnected,
    EmptyTable,
    KhfrontError,
    MalformedToken,
    NonzeroEndState,
    NotASpanningTree,
    ParityViolation,
    StrandUnderflow,
    TooLarge,
)
from .front import FrontDiagram, parse_front
from .laurent import LaurentPoly
from .oracle import BigradedTable, kauffman_jones, khovanov_homology
from .tait import TaitGraph, tait_graph
from .trees import (
    SpanningTreeRecord,
    bigrading_counts,
    generator_ij,
    labelled_trees,
    splice_front,
    tree_euler_characteristic,
)

__version__ = "1.0.0"

__all__ = [
    "BigradedTable",
    "BoundReport",
    "BUNDLED",
    "ConventionError",
    "CorpusEntry",
    "Disconnected",
    "EmptyTable",
    "FrontDiagram",
    "KhfrontError",
    "LaurentPoly",
    "MalformedToken",
    "NonzeroEndState",
    "NotASpanningTree",
    "ParityViolation",
    "SpanningTreeRecord",
    "StrandUnderflow",
    "TaitGraph",
    "TooLarge",
    "bigrading_counts",
    "generator_ij",
    "kauffman_jones",
    "khovanov_homology",
    "labelled_trees",
    "parse_front",
    "sharpness_report",
    "splice_front",
    "tait_graph",
    "tree_euler_characteristic",
]
