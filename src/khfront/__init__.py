"""Spanning-tree certificates for the Khovanov bound on the
Thurston-Bennequin number of Legendrian fronts, with from-scratch
Khovanov homology and Jones polynomial oracles."""

from .bounds import BoundReport, good_bad_census, ng_bound, sharpness_report
from .corpus import BUNDLED, CorpusEntry, quick_entries, read_front_file
from .diagram import LinkDiagram
from .errors import (
    ConventionError,
    Disconnected,
    EmptyTable,
    KhfrontError,
    MalformedToken,
    NonplanarRotation,
    NonzeroEndState,
    NotASpanningTree,
    NotUnknot,
    ParityViolation,
    StrandUnderflow,
    TooLarge,
)
from .front import FrontDiagram, desingularize, parse_front, tb
from .laurent import LaurentPoly
from .oracle import BigradedTable, kauffman_jones, khovanov_homology
from .tait import Coloring, TaitGraph, checkerboard, dual_graph, tait_graph
from .trees import (
    GeneratorPair,
    SpanningTreeRecord,
    bigrading_counts,
    classify_activities,
    dual_tree,
    labelled_trees,
    min_x_spanning_tree,
    spanning_trees,
    splice_front,
    splice_unknot,
    to_khovanov_bigrading,
    tree_euler_characteristic,
)

__version__ = "1.0.0"

__all__ = [
    "BigradedTable",
    "BoundReport",
    "BUNDLED",
    "Coloring",
    "ConventionError",
    "CorpusEntry",
    "Disconnected",
    "EmptyTable",
    "FrontDiagram",
    "GeneratorPair",
    "KhfrontError",
    "LaurentPoly",
    "LinkDiagram",
    "MalformedToken",
    "NonplanarRotation",
    "NonzeroEndState",
    "NotASpanningTree",
    "NotUnknot",
    "ParityViolation",
    "SpanningTreeRecord",
    "StrandUnderflow",
    "TaitGraph",
    "TooLarge",
    "bigrading_counts",
    "checkerboard",
    "classify_activities",
    "desingularize",
    "dual_graph",
    "dual_tree",
    "good_bad_census",
    "kauffman_jones",
    "khovanov_homology",
    "labelled_trees",
    "min_x_spanning_tree",
    "ng_bound",
    "parse_front",
    "quick_entries",
    "read_front_file",
    "sharpness_report",
    "spanning_trees",
    "splice_front",
    "splice_unknot",
    "tait_graph",
    "tb",
    "to_khovanov_bigrading",
    "tree_euler_characteristic",
]
