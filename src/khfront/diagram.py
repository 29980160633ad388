"""Planar link diagrams as combinatorial maps on packed integer ports.

A diagram is a desingularized front, built by the front sweep
(``front.desingularize``): a 4-valent plane graph with one node per
crossing, and the four arc-ends at a crossing in fixed geometric ports

    0 = NW (upper left)   1 = NE (upper right)
    3 = SW (lower left)   2 = SE (lower right)

Port p of crossing c is the integer x = 4c + p, so x >> 2 is its crossing
and x & 3 its place.  Arcs join ports and may pass smoothly through cusps
of a front; cusps are never nodes.  ``mate[x]`` is the port at the other
end of x's arc, and ``x ^ 2`` is the port reached passing straight
through x's crossing.  Faces are not traced here: the Tait graph's sweep
(see ``tait``) reads them off the front word.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

#: the four places of a port, x & 3
NW, NE, SE, SW = range(4)

#: port pairings of the A- and B-smoothings.  The NW-SE strand is always
#: over, so the A-smoothing (the one merging the two regions swept
#: counterclockwise from the over-strand) joins NW-NE and SW-SE
A_PAIRS = ((NW, NE), (SW, SE))
B_PAIRS = ((NW, SW), (NE, SE))


def _find(parent: list[int], x: int) -> int:
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class LinkDiagram:
    """A connected-or-not planar diagram, as the front sweep builds it.
    At every crossing the NW-SE strand is over: fronts put the
    smaller-slope strand on top.

    Parameters
    ----------
    n : number of crossings; crossing ids 0..n-1 are in x-order when the
        diagram comes from a front.
    arcs : arc endpoints, each a pair of ports; every port of every
        crossing appears exactly once.
    free_loops : closed curves that meet no crossing; not negative.
    """

    def __init__(self, n: int, arcs: Sequence[tuple[int, int]], free_loops: int = 0):
        self.n = n
        self.arcs = list(arcs)
        self.free_loops = free_loops
        if len(self.arcs) != 2 * n:
            raise ValueError(f"expected {2 * n} arcs, got {len(self.arcs)}")
        size = 4 * n
        mate: list = [None] * size
        for a, b in self.arcs:
            for x in (a, b):
                # an end on no crossing leaves some port on no arc
                if 0 <= x < size:
                    if mate[x] is not None:
                        raise ValueError(f"port {divmod(x, 4)} used twice")
                    mate[x] = a + b - x
        if None in mate:
            raise ValueError(
                f"port {divmod(mate.index(None), 4)} not attached to an arc"
            )
        if free_loops < 0:
            raise ValueError(f"free_loops {free_loops} is negative")
        #: port -> port at the other end of its arc
        self.mate = mate

    # -- basic structure ---------------------------------------------------

    @cached_property
    def components(self) -> list[list[int]]:
        """Closed curves through crossings, as lists of in-ports in
        traversal order.  Crossing-free loops are not listed.

        Order and direction are canonical: the components come in the
        order of their lowest left ports (NW or SW), and each is walked
        from that port, rightward into its crossing.  Every passage has
        exactly one left port, so on a front this is the order in which
        the sweep meets the components, each entered from the left.
        """
        mate = self.mate
        passed = [False] * len(mate)  # both ports of each passage walked
        comps: list[list[int]] = []
        for x0 in range(len(mate)):
            if passed[x0] or x0 & 3 in (NE, SE):
                continue
            steps: list[int] = []
            x = x0
            while True:
                passed[x] = passed[x ^ 2] = True
                steps.append(x)
                x = mate[x ^ 2]
                if x == x0:
                    break
            comps.append(steps)
        return comps

    def component_count(self) -> int:
        return len(self.components) + self.free_loops

    def is_connected(self) -> bool:
        """Connected as a subset of the plane."""
        if self.n == 0:
            return self.component_count() == 1
        if self.free_loops:
            return False
        mate = self.mate
        reached = [True] + [False] * (self.n - 1)
        stack = [0]
        while stack:
            x = 4 * stack.pop()
            for y in mate[x : x + 4]:
                if not reached[y >> 2]:
                    reached[y >> 2] = True
                    stack.append(y >> 2)
        return all(reached)

    # -- orientation and writhe -------------------------------------------

    def crossing_signs(self, flips: Optional[Sequence[bool]] = None) -> list[int]:
        """Orientation sign of each crossing.

        ``flips[i]`` reverses the traversal orientation of component i (in
        canonical component order, the free loops last); it holds one
        entry per component.
        """
        if flips is not None and len(flips) != self.component_count():
            raise ValueError(
                f"flips has {len(flips)} entries for "
                f"{self.component_count()} components"
            )
        # +-1 at the port by which each passage is entered, 0 at the other
        e = [0] * (4 * self.n)
        for ci, steps in enumerate(self.components):
            s = -1 if flips and flips[ci] else 1
            for x in steps:
                e[x] = s
        return [
            (nw - se) * (sw - ne)
            for nw, ne, se, sw in zip(e[NW::4], e[NE::4], e[SE::4], e[SW::4])
        ]

    def writhe(self, flips: Optional[Sequence[bool]] = None) -> int:
        return sum(self.crossing_signs(flips))

    def positive_negative(self, flips=None) -> tuple[int, int]:
        signs = self.crossing_signs(flips)
        return signs.count(1), signs.count(-1)

    # -- misc --------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"LinkDiagram(n={self.n}, components={self.component_count()}, "
            f"writhe={self.writhe()})"
        )
