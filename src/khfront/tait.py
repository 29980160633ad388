"""Checkerboard colorings, signed Tait graphs and planar duality.

The Tait graph has one vertex per black face and one signed edge per
crossing.  Edge i is the edge of crossing i: its index is its crossing id
and, on a front-built diagram (whose crossing ids follow x), the x-rank of
its crossing, the edge order of the spanning-tree model.  Planarity is
carried by a rotation system (cyclic order of edge-ends around each
vertex), which is all that duality needs.

``matched_to`` (same darts) and ``isomorphic_to`` (same edge ids, either
orientation) are one linear matching: edges keep their identity, so each
vertex can only go to the vertex of the other graph whose rotation is the
same cyclic sequence, looked up by a canonical key, with no search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .diagram import CORNER_AT, LinkDiagram, _find
from .errors import ConventionError, NonplanarRotation

#: edge ends of a crossing whose black quadrants are W and E (the corners
#: at its even ports, merged by the A-smoothing: a positive edge), or N
#: and S (its odd ports: a negative edge)
_ENDS = (CORNER_AT[0::2], CORNER_AT[1::2])


@dataclass(frozen=True)
class Coloring:
    """A checkerboard 2-coloring of the faces of a diagram."""

    diagram: LinkDiagram
    black: frozenset[int]
    canonical: bool  # True when the unbounded face is white

    def reversed(self) -> "Coloring":
        # a crossing-free diagram has the two faces of the sphere
        n_faces = len(self.diagram.face_walks) if self.diagram.n else 2
        all_faces = frozenset(range(n_faces))
        return Coloring(self.diagram, all_faces - self.black, not self.canonical)


def _white_face(diagram: LinkDiagram) -> int:
    """A face colored like the unbounded one: the sweep's white corner for
    front-built diagrams; PD imports carry no corner, and on the sphere any
    face may play the unbounded one, so the longest boundary walk is chosen
    deterministically."""
    if diagram.white_corner is not None:
        return diagram.face_of_corner[diagram.white_corner]
    walks = diagram.face_walks
    return max(range(len(walks)), key=lambda f: (len(walks[f]), -f))


def checkerboard(diagram: LinkDiagram) -> tuple[Coloring, Coloring]:
    """Both checkerboard colorings; the canonical one (unbounded face
    white) comes first.  One search over the faces, crossing each arc from
    the corner it arrives at, colors sweep-built diagrams and PD imports
    alike."""
    if diagram.n == 0:
        canonical = Coloring(diagram, frozenset({1}), True)
        return canonical, canonical.reversed()
    face, walks, mate = diagram.face_of_corner, diagram.face_walks, diagram.mate
    white = _white_face(diagram)
    color = [-1] * len(walks)
    color[white] = 0
    stack = [white]
    while stack:
        f = stack.pop()
        other = 1 - color[f]
        for x in walks[f]:
            there = face[mate[x]]  # across the arc that arrives at x
            if color[there] < 0:
                color[there] = other
                stack.append(there)
            elif color[there] != other:
                raise ConventionError("faces are not 2-colorable")
    if -1 in color:
        raise ConventionError("faces are not 2-colorable")
    black = frozenset(f for f, col in enumerate(color) if col)
    canonical = Coloring(diagram, black, True)
    return canonical, canonical.reversed()


@dataclass(frozen=True)
class TaitEdge:
    """One signed edge; ``ends`` are the quadrants of its crossing carrying
    the two edge-ends (equal endpoints give a loop).  The edge's crossing
    and its order are its index in ``TaitGraph.edges``."""

    u: int
    v: int
    sign: int
    ends: tuple[str, str]


def _cyclic_key(seq: list) -> tuple:
    """The least rotation of ``seq`` that starts at its least element:
    equal exactly for sequences that are equal up to cyclic shift."""
    if not seq:
        return ()
    low = min(seq)
    return min(tuple(seq[k:] + seq[:k]) for k, x in enumerate(seq) if x == low)


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
        where = self._dart_vertex
        n_darts = sum(map(len, self.rotation))
        if not n_darts == 2 * len(self.edges) == len(where):
            raise ConventionError("rotation must list each dart exactly once")
        for e_idx, e in enumerate(self.edges):
            qa, qb = e.ends
            at = (where.get((e_idx, qa)), where.get((e_idx, qb)))
            if qa == qb or at != (e.u, e.v):
                raise ConventionError(f"edge {e_idx}: ends disagree with rotation")

    @cached_property
    def _dart_vertex(self) -> dict[tuple[int, str], int]:
        return {d: v for v, cyc in enumerate(self.rotation) for d in cyc}

    def alpha(self, dart: tuple[int, str]) -> tuple[int, str]:
        e_idx, q = dart
        qa, qb = self.edges[e_idx].ends
        return (e_idx, qb if q == qa else qa)

    @cached_property
    def _next_dart(self) -> dict[tuple[int, str], tuple[int, str]]:
        return {
            d: nxt for cyc in self.rotation for d, nxt in zip(cyc, cyc[1:] + cyc[:1])
        }

    def sigma(self, dart: tuple[int, str]) -> tuple[int, str]:
        return self._next_dart[dart]

    def is_connected(self) -> bool:
        """True when uniting the edge ends takes V - 1 successful unions
        (never for a graph with no vertex)."""
        parent = list(range(self.n_vertices))
        unions = 0
        for e in self.edges:
            a, b = _find(parent, e.u), _find(parent, e.v)
            if a != b:
                parent[a] = b
                unions += 1
        return unions == self.n_vertices - 1

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

    def _match(self, other: "TaitGraph", item, mirror: bool) -> bool:
        """True when some vertex bijection keeps every edge's endpoints and
        takes each rotation, read as the ``item`` of each dart (or read
        backwards too, when ``mirror``), to the same cyclic sequence; signs
        must agree edgewise.  Edges keep their identity, so two vertices
        share a sequence only when they carry the same edges (a 2-vertex
        component) or none.  Either image is then as good as the other:
        each vertex takes a free one, without search."""
        if self.n_vertices != other.n_vertices or [e.sign for e in self.edges] != [
            e.sign for e in other.edges
        ]:
            return False
        images: dict[tuple, list[int]] = {}
        for w, cyc in enumerate(other.rotation):
            images.setdefault(_cyclic_key([item(d) for d in cyc]), []).append(w)
        mine = [[item(d) for d in cyc] for cyc in self.rotation]
        for cycles in (mine, [cyc[::-1] for cyc in mine]) if mirror else (mine,):
            free = {key: ws[:] for key, ws in images.items()}
            vmap = []
            for cyc in cycles:
                ws = free.get(_cyclic_key(cyc))
                if not ws:
                    break
                vmap.append(ws.pop())
            if len(vmap) == len(cycles) and all(
                {vmap[e.u], vmap[e.v]} == {oe.u, oe.v}
                for e, oe in zip(self.edges, other.edges)
            ):
                return True
        return False

    def matched_to(self, other: "TaitGraph") -> bool:
        """Structural equality under the dart-set correspondence: vertices
        match when they carry the same darts in the same cyclic order;
        signs and endpoints must agree edgewise."""
        return self._match(other, lambda dart: dart, mirror=False)

    def isomorphic_to(self, other: "TaitGraph") -> bool:
        """Isomorphism respecting edge identity: a vertex bijection under
        which every edge keeps its endpoints and every rotation keeps its
        cyclic order of edge indices, in either global orientation.
        Signs must agree edgewise.  (Unlike ``matched_to``, dart quadrants
        may differ: the dual of one coloring's graph carries the other
        coloring's quadrants, and face boundaries are traced against the
        vertex orientation, so the mirror must be allowed.)"""
        return self._match(other, lambda dart: dart[0], mirror=True)

    def __repr__(self) -> str:
        return f"TaitGraph(V={self.n_vertices}, E={len(self.edges)})"


def tait_graph(diagram: LinkDiagram, coloring: Coloring) -> TaitGraph:
    """Build the signed Tait graph of a colored diagram.

    Crossing c contributes edge c, between the black faces at its two
    black quadrants; the edge is positive exactly when the black quadrants
    are the pair swept counterclockwise from the over-strand.
    """
    if diagram.n == 0:
        return TaitGraph(1, [], [[]])
    black_faces = sorted(coloring.black)
    vid = [-1] * len(diagram.face_walks)  # -1 on white faces
    for v, f in enumerate(black_faces):
        vid[f] = v
    at = [vid[f] for f in diagram.face_of_corner]  # vertex at each corner
    edges: list[TaitEdge] = []
    # a crossing's corners at ports 4c .. 4c + 3 are its W, N, E and S
    for c, (w, n, e, s) in enumerate(zip(at[0::4], at[1::4], at[2::4], at[3::4])):
        ns_black = n >= 0
        if ns_black != (s >= 0) or ns_black == (w >= 0):
            raise ConventionError(f"crossing {c}: quadrants are not checkerboard")
        if ns_black:
            edges.append(TaitEdge(u=n, v=s, sign=-1, ends=_ENDS[1]))
        else:
            edges.append(TaitEdge(u=w, v=e, sign=1, ends=_ENDS[0]))
    rotation: list[list[tuple[int, str]]] = []
    for f in black_faces:
        cyc = []
        for x in diagram.face_walks[f]:
            c, q = x >> 2, CORNER_AT[x & 3]
            if q not in edges[c].ends:
                raise ConventionError(f"crossing {c}: black corner {q} is no edge end")
            cyc.append((c, q))
        rotation.append(cyc)
    return TaitGraph(len(black_faces), edges, rotation)


def dual_graph(g: TaitGraph) -> TaitGraph:
    """Geometric dual through the rotation system: same darts, vertices
    become the faces, every sign flips, edge indices persist."""
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
    edges = [
        TaitEdge(
            u=dart_orbit[(e_idx, e.ends[0])],
            v=dart_orbit[(e_idx, e.ends[1])],
            sign=-e.sign,
            ends=e.ends,
        )
        for e_idx, e in enumerate(g.edges)
    ]
    return TaitGraph(len(orbits), edges, [list(orb) for orb in orbits])
