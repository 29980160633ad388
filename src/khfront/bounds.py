"""The Thurston-Bennequin bound from Khovanov homology, and the spanning
tree certificates for its sharpness.

The delta grading is j - i; the bound states tb <= min{ j - i } over the
support of the homology.  On the tree side every spanning tree T
contributes generators with j - i = u(T) + w - 1 and u(T) + w + 1, and
u(T) >= 1 - C(F), which re-derives the bound.  A tree is good when
u(T) = 1 - C(F) and bad when u(T) = 2 - C(F); an excess of good
v-trees over bad (v+2)-trees certifies sharpness, while the absence of
any good tree certifies strictness.

Certificate conclusions are cheap; the homology oracle is the expensive
ground truth.  Whenever the two disagree, a ConventionError aborts the
run: such a disagreement can only come from a sign or ordering bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ConventionError
from .front import FrontDiagram
from .oracle import DEFAULT_MAX_CROSSINGS, khovanov_homology
from .tait import tait_graph
from .trees import bigrading_counts, generator_ij

VERDICTS = ("sharp_certified", "not_sharp_certified", "inconclusive")


@dataclass(frozen=True)
class BoundReport:
    """Joint result of the tree-side certificates and (optionally) the
    homology ground truth for one front."""

    tb: int
    C: int
    min_u: int
    census: dict[int, tuple[int, int]]  # v -> (good count, bad count)
    verdict: str
    min_delta: Optional[int] = None  # present when the oracle ran
    tree_count: int = 0

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ConventionError(f"unknown verdict {self.verdict!r}")
        if self.min_delta is not None and self.tb > self.min_delta:
            raise ConventionError(
                f"tb={self.tb} exceeds homology min delta={self.min_delta}"
            )

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "tb": self.tb,
            "cusp_pairs": self.C,
            "min_u": self.min_u,
            "tree_count": self.tree_count,
            "census": {
                str(v): {"good": g, "bad": b}
                for v, (g, b) in sorted(self.census.items())
            },
            "min_delta": self.min_delta,
            "verdict": self.verdict,
        }


def _good_bad(
    counts: dict[tuple[int, int], int], cusp_count: int
) -> dict[int, tuple[int, int]]:
    """Good (u = 1 - C) and bad (u = 2 - C) tree counts by v, with an
    entry for every v that some tree takes."""
    return {
        v: (counts.get((1 - cusp_count, v), 0), counts.get((2 - cusp_count, v), 0))
        for v in sorted({v for _, v in counts})
    }


def _certificate_verdict(census: dict[int, tuple[int, int]]) -> str:
    if any(
        census.get(v, (0, 0))[0] > census.get(v + 2, (0, 0))[1] for v in census
    ):
        return "sharp_certified"
    if all(g == 0 for g, _ in census.values()):
        return "not_sharp_certified"
    return "inconclusive"


def sharpness_report(
    front: FrontDiagram,
    with_oracle: bool = False,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> BoundReport:
    """The bound and its certificate-based sharpness verdict, cross-checked
    against the oracle when requested.

    Always computes tb, read off the front's strands, and, from the tree
    counts at each (u, v) of ``bigrading_counts``, the minimum of u,
    checking u >= 1 - C and, once per (u, v), the grading identity
    min over tree generators of (j - i) = min u + w - 1.  With the oracle,
    also computes the true minimum delta of the homology of the front in
    the same orientation, checking tb <= min_delta.

    sharp_certified: some v has more good v-trees than bad (v+2)-trees,
    so the homology is nonzero on the bound line and the bound is an
    equality.  not_sharp_certified: no good tree exists, so the bound is
    strict.  Otherwise inconclusive.
    """
    w = front.writhe
    c = front.cusp_count
    counts = bigrading_counts(tait_graph(front))
    min_u = min(u for u, _ in counts)
    if min_u < 1 - c:
        raise ConventionError(
            f"tree with u={min_u} violates u >= 1 - C = {1 - c}"
        )
    tree_min_delta = min(
        j - i
        for u, v in counts
        for i, j in generator_ij(u, v, front.n, w)
    )
    if tree_min_delta != min_u + w - 1:
        raise ConventionError(
            f"tree generators reach delta {tree_min_delta}, "
            f"not min u + w - 1 = {min_u + w - 1}"
        )
    census = _good_bad(counts, c)
    min_delta = None
    if with_oracle:
        min_delta = khovanov_homology(front, max_crossings=max_crossings).min_delta()
    report = BoundReport(
        tb=w - c,
        C=c,
        min_u=min_u,
        census=census,
        verdict=_certificate_verdict(census),
        min_delta=min_delta,
        tree_count=sum(counts.values()),
    )
    if min_delta is not None:
        equal = report.tb == min_delta
        if report.verdict == "sharp_certified" and not equal:
            raise ConventionError(
                "sharpness certificate contradicts the oracle: "
                f"tb={report.tb} < min_delta={min_delta}"
            )
        if report.verdict == "not_sharp_certified" and equal:
            raise ConventionError(
                "strictness certificate contradicts the oracle: "
                f"tb={report.tb} = min_delta={min_delta}"
            )
    return report
