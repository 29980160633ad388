"""Signed Tait graphs of a front, read off the gaps between its strands.

Gap k is the gap below the k-th strand, gap 0 the top one.  On a front
the checkerboard coloring is the parity of the gaps: the canonical
coloring (unbounded face white) has the odd gaps black, and the reversed
one the even gaps.  A face is a union of gaps, joined where cusps meet
them, so one union-find sweep over the word finds the faces:

    L p   puts a new gap at p; gap p + 1 continues gap p - 1
    R p   joins gaps p - 1 and p + 1 and drops gaps p and p + 1
    X p   replaces gap p with a new one

The Tait graph has one vertex per black face and one signed edge per
crossing, in x-order, which is the edge order of the spanning-tree
model.  At ``X p`` the black corners are W and E (the old and new gap p)
when gap p is black, and the edge is positive; otherwise they are N and
S (gaps p - 1 and p + 1), and the edge is negative.  The NW-SE strand is
over at every crossing, so +1 marks the edge whose A-smoothing (see
``diagram``) joins its two black corners.  The two colorings' graphs are
planar duals: the same edges, in the same order, with every sign flipped.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import _find
from .errors import Disconnected
from .front import FrontDiagram


class TaitEdge(NamedTuple):
    """One signed edge (equal endpoints give a loop).  The edge's
    crossing and its order are its index in ``TaitGraph.edges``."""

    u: int
    v: int
    sign: int


class TaitGraph:
    """Signed, edge-ordered multigraph on the vertices 0 to
    ``n_vertices`` - 1.  Nothing is checked here: the census checks each
    edge, and the union-find that plans its sweep refuses a graph that is
    not connected."""

    def __init__(self, n_vertices: int, edges: list[TaitEdge]):
        self.n_vertices = n_vertices
        self.edges = edges

    def __repr__(self) -> str:
        return f"TaitGraph(V={self.n_vertices}, E={len(self.edges)})"


def tait_graph(front: FrontDiagram, reverse: bool = False) -> TaitGraph:
    """The signed Tait graph of the front's canonical coloring, or of the
    reversed one, by one union-find sweep over its gaps.

    Vertices are numbered in order of first appearance in the edge list.
    The word was validated when the front was built.  A front with n
    crossings whose diagram has k pieces in the plane has n + 1 + k faces
    (Euler's formula), so a split front has more than n + 2 and raises
    Disconnected.  This count is the one connectivity test of a front.
    """
    parent = [0]  # union-find forest over the gaps made so far
    gaps = [0]  # gap k -> its node in the forest
    ends = []
    for kind, p in front.events:
        if kind == "L":
            gaps[p:p] = (len(parent), gaps[p - 1])
            parent.append(len(parent))
        elif kind == "R":
            parent[_find(parent, gaps[p - 1])] = _find(parent, gaps[p + 1])
            del gaps[p : p + 2]
        else:
            old, gaps[p] = gaps[p], len(parent)
            parent.append(len(parent))
            if p % 2 != reverse:  # gap p is black
                ends.append((old, gaps[p], 1))
            else:
                ends.append((gaps[p - 1], gaps[p + 1], -1))
    faces = sum(parent[x] == x for x in range(len(parent)))
    if faces != len(ends) + 2:
        raise Disconnected("diagram is not connected as a plane subset")
    vertex: dict[int, int] = {}
    edges = [
        TaitEdge(
            vertex.setdefault(_find(parent, a), len(vertex)),
            vertex.setdefault(_find(parent, b), len(vertex)),
            sign,
        )
        for a, b, sign in ends
    ]
    # a crossing-free front has one face of each color
    return TaitGraph(len(vertex) or 1, edges)
