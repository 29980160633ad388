"""Checkerboard colorings, signed Tait graphs and planar duality.

The Tait graph has one vertex per black face and one signed edge per
crossing, ordered by the x-rank of its crossing.  Planarity is carried by
a rotation system (cyclic order of edge-ends around each vertex), which is
all that duality needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .diagram import Face, LinkDiagram
from .errors import ConventionError, NonplanarRotation

#: quadrant pair merged by the A-smoothing (the NW-SE strand is over)
_A_QUADS = frozenset({"W", "E"})


def faces(diagram: LinkDiagram) -> list[Face]:
    """Faces of the sphere compactification of the diagram."""
    if diagram.n == 0:
        return [Face(0, ()), Face(1, ())]
    return diagram.faces


@dataclass(frozen=True)
class Coloring:
    """A checkerboard 2-coloring of the faces of a diagram."""

    diagram: LinkDiagram
    black: frozenset[int]
    canonical: bool  # True when the unbounded face is white

    def reversed(self) -> "Coloring":
        all_faces = frozenset(f.index for f in faces(self.diagram))
        return Coloring(self.diagram, all_faces - self.black, not self.canonical)


def _white_face(diagram: LinkDiagram) -> int:
    """A face colored like the unbounded one: the sweep's white corner for
    front-built diagrams; PD imports carry no corner, and on the sphere any
    face may play the unbounded one, so the longest boundary walk is chosen
    deterministically."""
    if diagram.white_corner is not None:
        return diagram.face_of_corner[diagram.white_corner]
    return max(diagram.faces, key=lambda f: (len(f.corners), -f.index)).index


def checkerboard(diagram: LinkDiagram) -> tuple[Coloring, Coloring]:
    """Both checkerboard colorings; the canonical one (unbounded face
    white) comes first.  One search over the arcs' face adjacency colors
    sweep-built diagrams and PD imports alike."""
    if diagram.n == 0:
        canonical = Coloring(diagram, frozenset({1}), True)
        return canonical, canonical.reversed()
    sides = [diagram.arc_faces(idx) for idx in range(len(diagram.arcs))]
    neighbours: dict[int, list[int]] = {f.index: [] for f in diagram.faces}
    for fa, fb in sides:
        neighbours[fa].append(fb)
        neighbours[fb].append(fa)
    white = _white_face(diagram)
    color = {white: 0}
    stack = [white]
    while stack:
        f = stack.pop()
        for there in neighbours[f]:
            if there not in color:
                color[there] = 1 - color[f]
                stack.append(there)
    if any(color[fa] == color[fb] for fa, fb in sides):
        raise ConventionError("faces are not 2-colorable")
    black = frozenset(f for f, col in color.items() if col == 1)
    canonical = Coloring(diagram, black, True)
    return canonical, canonical.reversed()


@dataclass(frozen=True)
class TaitEdge:
    """One signed edge; ``ends`` are the quadrants of its crossing carrying
    the two edge-ends (equal endpoints give a loop)."""

    u: int
    v: int
    sign: int
    order: int
    crossing: int
    ends: tuple[str, str]


class TaitGraph:
    """Signed, edge-ordered planar multigraph with rotation system.

    Darts are (edge index, quadrant) pairs; ``rotation[v]`` lists the darts
    around vertex v in cyclic order.
    """

    def __init__(
        self,
        n_vertices: int,
        edges: list[TaitEdge],
        rotation: list[list[tuple[int, str]]],
    ):
        self.n_vertices = n_vertices
        self.edges = edges
        self.rotation = rotation
        self._check()

    def _check(self) -> None:
        darts = [d for cyc in self.rotation for d in cyc]
        assert len(darts) == 2 * len(self.edges) == len(set(darts))
        for e_idx, e in enumerate(self.edges):
            assert e.ends[0] != e.ends[1]
            assert self.vertex_of_dart((e_idx, e.ends[0])) == e.u
            assert self.vertex_of_dart((e_idx, e.ends[1])) == e.v

    @cached_property
    def _dart_vertex(self) -> dict[tuple[int, str], int]:
        return {d: v for v, cyc in enumerate(self.rotation) for d in cyc}

    def vertex_of_dart(self, dart: tuple[int, str]) -> int:
        return self._dart_vertex[dart]

    def alpha(self, dart: tuple[int, str]) -> tuple[int, str]:
        e_idx, q = dart
        qa, qb = self.edges[e_idx].ends
        return (e_idx, qb if q == qa else qa)

    def sigma(self, dart: tuple[int, str]) -> tuple[int, str]:
        cyc = self.rotation[self.vertex_of_dart(dart)]
        return cyc[(cyc.index(dart) + 1) % len(cyc)]

    def positive_count(self) -> int:
        return sum(1 for e in self.edges if e.sign > 0)

    def negative_count(self) -> int:
        return sum(1 for e in self.edges if e.sign < 0)

    def is_connected(self) -> bool:
        if self.n_vertices == 0:
            return False
        seen = {0}
        stack = [0]
        adj: dict[int, set[int]] = {v: set() for v in range(self.n_vertices)}
        for e in self.edges:
            adj[e.u].add(e.v)
            adj[e.v].add(e.u)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n_vertices

    def face_orbits(self) -> list[list[tuple[int, str]]]:
        """Orbits of sigma∘alpha; the faces of the embedded graph."""
        orbits = []
        seen: set[tuple[int, str]] = set()
        for v_cyc in self.rotation:
            for d0 in v_cyc:
                if d0 in seen:
                    continue
                orbit = []
                d = d0
                while True:
                    seen.add(d)
                    orbit.append(d)
                    d = self.sigma(self.alpha(d))
                    if d == d0:
                        break
                orbits.append(orbit)
        return orbits

    def euler_ok(self) -> bool:
        if not self.edges:
            return self.n_vertices == 1
        return self.n_vertices - len(self.edges) + len(self.face_orbits()) == 2

    def matched_to(self, other: "TaitGraph") -> bool:
        """Structural equality under the dart-set correspondence: vertices
        match when they carry the same darts; signs, orders, crossing ids
        and cyclic rotation order must agree."""
        if self.n_vertices != other.n_vertices or len(self.edges) != len(other.edges):
            return False
        match = {}
        other_sets = {frozenset(cyc): v for v, cyc in enumerate(other.rotation)}
        for v, cyc in enumerate(self.rotation):
            w = other_sets.get(frozenset(cyc))
            if w is None:
                return False
            match[v] = w
            ocyc = other.rotation[w]
            if len(cyc) != len(ocyc):
                return False
            if cyc:
                k = ocyc.index(cyc[0])
                if [ocyc[(k + i) % len(ocyc)] for i in range(len(ocyc))] != cyc:
                    return False
        for e, oe in zip(self.edges, other.edges):
            if (e.sign, e.order, e.crossing) != (oe.sign, oe.order, oe.crossing):
                return False
            if {match[e.u], match[e.v]} != {oe.u, oe.v}:
                return False
        return True

    def isomorphic_to(self, other: "TaitGraph") -> bool:
        """Isomorphism respecting edge identity: a vertex bijection under
        which every edge keeps its endpoints and every rotation keeps its
        cyclic order of edge indices, in either global orientation.
        Signs, orders and crossing ids must agree edgewise.  (Unlike
        ``matched_to``, dart quadrants may differ: the dual of one
        coloring's graph carries the other coloring's quadrants, and face
        boundaries are traced against the vertex orientation, so the
        mirror must be allowed.)"""
        if self.n_vertices != other.n_vertices or len(self.edges) != len(other.edges):
            return False
        for e, oe in zip(self.edges, other.edges):
            if (e.sign, e.order, e.crossing) != (oe.sign, oe.order, oe.crossing):
                return False

        mine = [[e_idx for e_idx, _ in cyc] for cyc in self.rotation]
        theirs = [[e_idx for e_idx, _ in cyc] for cyc in other.rotation]

        def same_cyclic(a, b):
            if len(a) != len(b):
                return False
            if not a:
                return True
            return any(b[k:] + b[:k] == a for k in range(len(b)))

        def try_orientation(mine_cycles):
            candidates = [
                [
                    w
                    for w in range(other.n_vertices)
                    if same_cyclic(mine_cycles[v], theirs[w])
                ]
                for v in range(self.n_vertices)
            ]

            def extend(v, used, vmap):
                if v == self.n_vertices:
                    return all(
                        {vmap[e.u], vmap[e.v]} == {oe.u, oe.v}
                        for e, oe in zip(self.edges, other.edges)
                    )
                for w in candidates[v]:
                    if w in used:
                        continue
                    vmap.append(w)
                    if extend(v + 1, used | {w}, vmap):
                        return True
                    vmap.pop()
                return False

            return extend(0, set(), [])

        return try_orientation(mine) or try_orientation(
            [cyc[::-1] for cyc in mine]
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": 1,
                "vertices": self.n_vertices,
                "edges": [
                    {
                        "endpoints": [e.u, e.v],
                        "sign": e.sign,
                        "order": e.order,
                        "crossing": e.crossing,
                    }
                    for e in self.edges
                ],
                "rotation": [
                    [[e_idx, q] for e_idx, q in cyc] for cyc in self.rotation
                ],
            },
            indent=2,
        )

    def __repr__(self) -> str:
        return f"TaitGraph(V={self.n_vertices}, E={len(self.edges)})"


def tait_graph(diagram: LinkDiagram, coloring: Coloring) -> TaitGraph:
    """Build the signed Tait graph of a colored diagram.

    Each crossing contributes one edge between the black faces at its two
    black quadrants; the edge is positive exactly when the black quadrants
    are the pair swept counterclockwise from the over-strand.
    """
    if diagram.n == 0:
        return TaitGraph(1, [], [[]])
    black_faces = sorted(coloring.black)
    vid = {f: i for i, f in enumerate(black_faces)}
    corner_face = diagram.face_of_corner
    edges: list[TaitEdge] = []
    for c in range(diagram.n):
        quad_face = {q: corner_face[(c, q)] for q in "NESW"}
        ns_black = quad_face["N"] in coloring.black
        if ns_black != (quad_face["S"] in coloring.black) or ns_black == (
            quad_face["W"] in coloring.black
        ):
            raise ConventionError(f"crossing {c}: quadrants are not checkerboard")
        quads = ("N", "S") if ns_black else ("W", "E")
        sign = 1 if frozenset(quads) == _A_QUADS else -1
        edges.append(
            TaitEdge(
                u=vid[quad_face[quads[0]]],
                v=vid[quad_face[quads[1]]],
                sign=sign,
                order=c,
                crossing=c,
                ends=quads,
            )
        )
    rotation: list[list[tuple[int, str]]] = [[] for _ in black_faces]
    for f in diagram.faces:
        if f.index not in coloring.black:
            continue
        cyc = []
        for c, q in f.corners:
            e_idx = c  # one edge per crossing, same index
            if q not in edges[e_idx].ends:
                raise ConventionError(f"crossing {c}: black corner {q} is no edge end")
            cyc.append((e_idx, q))
        rotation[vid[f.index]] = cyc
    return TaitGraph(len(black_faces), edges, rotation)


def dual_graph(g: TaitGraph) -> TaitGraph:
    """Geometric dual through the rotation system: same darts, vertices
    become the faces, every sign flips, orders and crossing ids persist."""
    if not g.euler_ok():
        raise NonplanarRotation(
            "rotation system does not satisfy Euler's formula"
        )
    if not g.edges:
        # a lone vertex on the sphere has a single face
        return TaitGraph(1, [], [[]])
    orbits = g.face_orbits()
    orbits.sort(key=lambda orb: min(orb))
    dart_orbit = {d: i for i, orb in enumerate(orbits) for d in orb}
    edges = []
    for e_idx, e in enumerate(g.edges):
        qa, qb = e.ends
        edges.append(
            TaitEdge(
                u=dart_orbit[(e_idx, qa)],
                v=dart_orbit[(e_idx, qb)],
                sign=-e.sign,
                order=e.order,
                crossing=e.crossing,
                ends=e.ends,
            )
        )
    return TaitGraph(len(orbits), edges, [list(orb) for orb in orbits])
