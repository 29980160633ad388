"""Planar link diagrams as combinatorial maps.

A diagram is a 4-valent plane graph: one node per crossing, with the four
arc-ends at a crossing in fixed geometric ports

    0 = NW (upper left)   1 = NE (upper right)
    3 = SW (lower left)   2 = SE (lower right)

The counterclockwise rotation at every crossing is NW -> SW -> SE -> NE.
Arcs join ports and may pass smoothly through cusps of a front; cusps are
never nodes.  Faces are traced from the rotation system, so the embedding
is purely combinatorial (sphere compactification).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import ConventionError

PortEnd = tuple[int, int]  # (crossing id, port)

#: port reached when passing straight through a crossing
THROUGH = {0: 2, 2: 0, 1: 3, 3: 1}

#: next port counterclockwise
CCW_NEXT = {0: 3, 3: 2, 2: 1, 1: 0}

#: quadrant swept between arriving at port p and leaving at CCW_NEXT[p]
CORNER_AT = {0: "W", 3: "S", 2: "E", 1: "N"}

#: port pairings of the A- and B-smoothings.  The NW-SE strand is always
#: over, so the A-smoothing (the one merging the two regions swept
#: counterclockwise from the over-strand) joins NW-NE and SW-SE
A_PAIRS = ((0, 1), (3, 2))
B_PAIRS = ((0, 3), (1, 2))


def _find(parent: list[int], x: int) -> int:
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@dataclass(frozen=True)
class Face:
    """A face of the sphere diagram: its corners in boundary-walk order.

    Each corner is a (crossing, quadrant) pair with quadrant in N/E/S/W.
    """

    index: int
    corners: tuple[tuple[int, str], ...]


class LinkDiagram:
    """A connected-or-not planar diagram.  At every crossing the NW-SE
    strand is over: fronts put the smaller-slope strand on top, and PD
    imports are read into that position.

    Parameters
    ----------
    n : number of crossings; crossing ids 0..n-1 are in x-order when the
        diagram comes from a front.
    arcs : arc endpoints, each a ((c, port), (c, port)) pair; every port of
        every crossing appears exactly once.
    free_loops : closed curves that meet no crossing.
    attach_log : optional chronological list of (crossing, in-port) entries
        recorded by the front sweep; used for canonical component order and
        orientation.
    white_corner : optional (crossing, quadrant) corner recorded by the
        front sweep; its face has the color of the unbounded face, so the
        canonical checkerboard coloring is seeded there.
    """

    def __init__(
        self,
        n: int,
        arcs: Sequence[tuple[PortEnd, PortEnd]],
        free_loops: int = 0,
        attach_log: Optional[Sequence[PortEnd]] = None,
        white_corner: Optional[tuple[int, str]] = None,
    ):
        self.n = n
        self.arcs = [tuple(a) for a in arcs]
        self.free_loops = free_loops
        self.attach_log = list(attach_log) if attach_log is not None else None
        self.white_corner = white_corner
        if len(self.arcs) != 2 * n:
            raise ValueError(f"expected {2 * n} arcs, got {len(self.arcs)}")
        self._port_loc: dict[PortEnd, tuple[int, int]] = {}
        for idx, (a, b) in enumerate(self.arcs):
            for side, end in ((0, a), (1, b)):
                if end in self._port_loc:
                    raise ValueError(f"port {end} used twice")
                self._port_loc[end] = (idx, side)
        for c in range(n):
            for p in range(4):
                if (c, p) not in self._port_loc:
                    raise ValueError(f"port {(c, p)} not attached to an arc")

    # -- basic structure ---------------------------------------------------

    def other_end(self, end: PortEnd) -> PortEnd:
        idx, side = self._port_loc[end]
        return self.arcs[idx][1 - side]

    @cached_property
    def components(self) -> list[list[PortEnd]]:
        """Closed curves through crossings, as lists of (crossing, in-port)
        steps in traversal order.  Crossing-free loops are not listed.

        Traversal direction is canonical: sweep-built diagrams start each
        component rightward into its chronologically first left-side port;
        otherwise the lowest unvisited (crossing, port) seeds the walk.
        """
        visited: set[tuple[int, int]] = set()  # (crossing, diagonal)
        comps: list[list[PortEnd]] = []
        seeds: list[PortEnd] = list(self.attach_log or [])
        seeds.extend((c, p) for c in range(self.n) for p in range(4))
        for c0, p0 in seeds:
            if (c0, p0 % 2) in visited:
                continue
            steps: list[PortEnd] = []
            c, p = c0, p0
            while True:
                visited.add((c, p % 2))
                steps.append((c, p))
                c2, p2 = self.other_end((c, THROUGH[p]))
                c, p = c2, p2
                if (c, p) == (c0, p0):
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
        parent = list(range(self.n))
        for (a, _), (b, _) in self.arcs:
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[ra] = rb
        return len({_find(parent, c) for c in range(self.n)}) == 1

    # -- orientation and writhe -------------------------------------------

    def crossing_signs(self, flips: Optional[Sequence[bool]] = None) -> list[int]:
        """Orientation sign of each crossing.

        ``flips[i]`` reverses the traversal orientation of component i (in
        canonical component order).
        """
        if self.n == 0:
            return []
        dir_a = [0] * self.n  # +1 if NW-SE passage entered at NW
        dir_b = [0] * self.n  # +1 if SW-NE passage entered at SW
        for ci, steps in enumerate(self.components):
            s = -1 if flips and ci < len(flips) and flips[ci] else 1
            for c, p in steps:
                if p == 0:
                    dir_a[c] = s
                elif p == 2:
                    dir_a[c] = -s
                elif p == 3:
                    dir_b[c] = s
                else:
                    dir_b[c] = -s
        return [a * b for a, b in zip(dir_a, dir_b)]

    def writhe(self, flips: Optional[Sequence[bool]] = None) -> int:
        return sum(self.crossing_signs(flips))

    def positive_negative(self, flips=None) -> tuple[int, int]:
        signs = self.crossing_signs(flips)
        return signs.count(1), signs.count(-1)

    # -- faces -------------------------------------------------------------

    @cached_property
    def _face_trace(self) -> tuple[list[Face], dict[tuple[int, int], int]]:
        faces: list[Face] = []
        dart_face: dict[tuple[int, int], int] = {}
        for idx0 in range(len(self.arcs)):
            for side0 in (0, 1):
                if (idx0, side0) in dart_face:
                    continue
                corners: list[tuple[int, str]] = []
                idx, side = idx0, side0
                while True:
                    dart_face[(idx, side)] = len(faces)
                    c, p = self.arcs[idx][side]
                    corners.append((c, CORNER_AT[p]))
                    nidx, nside = self._port_loc[(c, CCW_NEXT[p])]
                    idx, side = nidx, 1 - nside
                    if (idx, side) == (idx0, side0):
                        break
                faces.append(Face(len(faces), tuple(corners)))
        return faces, dart_face

    @property
    def faces(self) -> list[Face]:
        """Faces of the sphere compactification, traced from the rotation
        system.  Empty for crossing-free diagrams (use face_count)."""
        return self._face_trace[0]

    def arc_faces(self, arc_idx: int) -> tuple[int, int]:
        """The two faces on either side of an arc."""
        dart_face = self._face_trace[1]
        return dart_face[(arc_idx, 0)], dart_face[(arc_idx, 1)]

    def face_count(self) -> int:
        if self.n == 0:
            # sphere: k disjoint nested circles give k+1 regions
            return self.free_loops + 1
        return len(self.faces) + self.free_loops

    @cached_property
    def face_of_corner(self) -> dict[tuple[int, str], int]:
        out: dict[tuple[int, str], int] = {}
        for f in self.faces:
            for corner in f.corners:
                out[corner] = f.index
        return out

    def euler_check(self) -> bool:
        """V - E + F = 2 for a connected diagram with crossings."""
        if self.n == 0:
            return self.face_count() == 2
        return self.n - 2 * self.n + self.face_count() == 2

    # -- smoothing ---------------------------------------------------------

    def smooth(self, resolution: dict[int, str]) -> "LinkDiagram":
        """Replace crossings by smoothings ('A' or 'B'); keep the rest.

        Returns a new diagram whose crossings are the unsmoothed ones,
        renumbered in their original order.
        """
        keep = [c for c in range(self.n) if c not in resolution]
        newid = {c: i for i, c in enumerate(keep)}
        partner: dict[PortEnd, PortEnd] = {}
        for c, kind in resolution.items():
            for p, q in A_PAIRS if kind == "A" else B_PAIRS:
                partner[(c, p)] = (c, q)
                partner[(c, q)] = (c, p)

        new_arcs: list[tuple[PortEnd, PortEnd]] = []
        loops = self.free_loops
        visited: set[PortEnd] = set()

        def chase(end: PortEnd) -> Optional[PortEnd]:
            # follow arcs through smoothed crossings to a kept port; None
            # when the chain closes up first
            while True:
                visited.add(end)
                nxt = self.other_end(end)
                visited.add(nxt)
                if nxt[0] in newid:
                    return nxt
                end = partner[nxt]
                if end in visited:
                    return None

        for c in keep:
            for p in range(4):
                start = (c, p)
                if start in visited:
                    continue
                finish = chase(start)
                if finish is None:
                    raise ConventionError(f"strand from port {start} reaches no port")
                new_arcs.append(((newid[c], p), (newid[finish[0]], finish[1])))
        # closed chains entirely through smoothed crossings
        for c in resolution:
            for p in range(4):
                if (c, p) not in visited:
                    chase((c, p))
                    loops += 1
        return LinkDiagram(n=len(keep), arcs=new_arcs, free_loops=loops)

    # -- PD codes ----------------------------------------------------------

    @classmethod
    def from_pd(cls, code: Iterable[Sequence[int]]) -> "LinkDiagram":
        """Build a diagram from a planar-diagram code.

        Each crossing is a 4-tuple of arc labels, listed counterclockwise
        starting at the incoming under-strand.  Tuple slots map to ports
        (SW, SE, NE, NW), so the under-strand runs SW-NE and the over-strand
        NW-SE at every crossing.
        """
        code = [tuple(x) for x in code]
        slot_port = (3, 2, 1, 0)
        ends_by_label: dict[int, list[PortEnd]] = {}
        for c, quad in enumerate(code):
            if len(quad) != 4:
                raise ValueError("PD crossing must have 4 arc labels")
            for slot, label in enumerate(quad):
                ends_by_label.setdefault(label, []).append((c, slot_port[slot]))
        arcs = []
        for label, ends in sorted(ends_by_label.items()):
            if len(ends) != 2:
                raise ValueError(f"arc label {label} appears {len(ends)} times")
            arcs.append((ends[0], ends[1]))
        return cls(n=len(code), arcs=arcs)

    def to_pd(self) -> list[tuple[int, int, int, int]]:
        """Export a PD code (labels follow the canonical traversal)."""
        label_of: dict[frozenset[PortEnd], int] = {}
        next_label = 1
        for steps in self.components:
            for c, p in steps:
                out = (c, THROUGH[p])
                arc = frozenset({out, self.other_end(out)})
                if arc not in label_of:
                    label_of[arc] = next_label
                    next_label += 1
        out_code = []
        for c in range(self.n):
            labels = []
            for p in (3, 2, 1, 0):
                end = (c, p)
                arc = frozenset({end, self.other_end(end)})
                labels.append(label_of[frozenset(arc)])
            out_code.append(tuple(labels))
        return out_code

    # -- misc --------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"LinkDiagram(n={self.n}, components={self.component_count()}, "
            f"writhe={self.writhe()})"
        )
