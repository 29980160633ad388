"""Checkerboard colorings, signed Tait graphs and planar duality.

The Tait graph has one vertex per black face and one signed edge per
crossing.  Edge i is the edge of crossing i: its index is its crossing id
and, on a front-built diagram (whose crossing ids follow x), the x-rank of
its crossing, the edge order of the spanning-tree model.  Planarity is
carried by a rotation system, which is all that duality needs.  A dart
(edge-end) is the diagram's packed port ``4c + p`` of its corner, and the
rotation (cyclic order of darts) at a black face's vertex is that face's
boundary walk.

``matched_to`` (same darts) and ``isomorphic_to`` (same edge ids, either
orientation) are one linear matching: edges keep their identity, so each
vertex can only go to the vertex of the other graph whose rotation is the
same cyclic sequence, looked up by a canonical key, with no search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .diagram import CORNER_AT, SE, LinkDiagram, _find
from .errors import ConventionError, NonplanarRotation


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


class TaitEdge(NamedTuple):
    """One signed edge; u is at its lower dart x and v at x ^ 2 (equal
    endpoints give a loop).  The edge's crossing and its order are its
    index in ``TaitGraph.edges``."""

    u: int
    v: int
    sign: int


def _cyclic_key(seq: list) -> tuple:
    """The least rotation of ``seq`` that starts at its least element:
    equal exactly for sequences that are equal up to cyclic shift."""
    if not seq:
        return ()
    low = min(seq)
    return min(tuple(seq[k:] + seq[:k]) for k, x in enumerate(seq) if x == low)


class TaitGraph:
    """Signed, edge-ordered planar multigraph with rotation system.

    Darts are ports: edge i ends at ports 4i and 4i + 2 (its W and E
    corners) or 4i + 1 and 4i + 3 (N and S); ``rotation[v]`` lists the
    darts around vertex v in cyclic order.
    """

    def __init__(
        self,
        n_vertices: int,
        edges: list[TaitEdge],
        rotation: list[list[int]],
    ):
        self.n_vertices = n_vertices
        self.edges = edges
        self.rotation = rotation
        self._check()

    def _check(self) -> None:
        """One rotation per vertex; every listed dart is a port of some
        edge's crossing, listed once, and edge i lists exactly its ports x
        and x ^ 2 (x = 4i or 4i + 1), at u and v."""
        if len(self.rotation) != self.n_vertices:
            raise ConventionError("rotation must have one cycle per vertex")
        n_ports = 4 * len(self.edges)
        if sum(map(len, self.rotation)) != n_ports // 2:
            raise ConventionError("rotation must list each dart exactly once")
        where = [-1] * n_ports  # port -> its vertex, -1 off the darts
        for v, cyc in enumerate(self.rotation):
            for x in cyc:
                # an outside port would index from the end, or past it
                if not 0 <= x < n_ports or where[x] >= 0:
                    raise ConventionError(
                        f"rotation lists port {x} twice or off every crossing"
                    )
                where[x] = v
        for i, (u, v, _) in enumerate(self.edges):
            x = 4 * i | (where[4 * i] < 0)
            if (where[x], where[x ^ 2], where[x ^ 1], where[x ^ 3]) != (u, v, -1, -1):
                raise ConventionError(f"edge {i}: ends disagree with rotation")

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

    def face_orbits(self) -> list[list[int]]:
        """Orbits of x -> the dart after x ^ 2 (across the edge, then on
        around its other end); the faces of the embedded graph."""
        nxt = [-1] * (4 * len(self.edges))  # port -> the next dart around
        for cyc in self.rotation:
            for x, y in zip(cyc, cyc[1:] + cyc[:1]):
                nxt[x] = y
        seen = [False] * len(nxt)
        orbits = []
        for cyc in self.rotation:
            for x in cyc:
                orbit = []
                while not seen[x]:
                    seen[x] = True
                    orbit.append(x)
                    x = nxt[x ^ 2]
                if orbit:
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
        Signs must agree edgewise.  (Unlike ``matched_to``, darts may
        differ: the dual of one coloring's graph carries the other
        coloring's corners, and face boundaries are traced against the
        vertex orientation, so the mirror must be allowed.)"""
        return self._match(other, lambda dart: dart >> 2, mirror=True)

    def __repr__(self) -> str:
        return f"TaitGraph(V={self.n_vertices}, E={len(self.edges)})"


def tait_graph(diagram: LinkDiagram, coloring: Coloring) -> TaitGraph:
    """Build the signed Tait graph of a colored diagram.

    Crossing c contributes edge c, between the black faces at its two
    black corners; the edge is positive exactly when the black corners
    are the pair swept counterclockwise from the over-strand, W and E at
    the even ports.  The vertex of the v-th black face has that face's
    boundary walk for its rotation.
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
        if ns_black and e >= 0:
            # E passes the check above but is no end of the N-S edge (a
            # white E leaves a W-E edge's dart unlisted, which TaitGraph
            # refuses)
            raise ConventionError(
                f"crossing {c}: black corner {CORNER_AT[SE]} is no edge end"
            )
        edges.append(TaitEdge(n, s, -1) if ns_black else TaitEdge(w, e, 1))
    walks = diagram.face_walks
    return TaitGraph(len(black_faces), edges, [walks[f] for f in black_faces])


def dual_graph(g: TaitGraph) -> TaitGraph:
    """Geometric dual through the rotation system: same darts, vertices
    become the faces (numbered by least dart), every sign flips, edge
    indices persist."""
    if not g.euler_ok():
        raise NonplanarRotation(
            "rotation system does not satisfy Euler's formula"
        )
    if not g.edges:
        # a lone vertex on the sphere has a single face
        return TaitGraph(1, [], [[]])
    orbits = g.face_orbits()
    orbits.sort(key=min)
    face = [-1] * (4 * len(g.edges))  # port -> its orbit, -1 off the darts
    for i, orb in enumerate(orbits):
        for x in orb:
            face[x] = i
    edges = []
    for i, e in enumerate(g.edges):
        x = 4 * i | (face[4 * i] < 0)
        edges.append(TaitEdge(face[x], face[x ^ 2], -e.sign))
    return TaitGraph(len(orbits), edges, orbits)
