"""Checkerboard colorings, signed Tait graphs and planar duality.

A coloring is its set of black faces.  The Tait graph has one vertex per
black face and one signed edge per crossing, and it is nothing but its
rotation system: a dart (edge-end) is the diagram's packed port ``4c + p``
of its corner, and the rotation (cyclic order of darts) at a black face's
vertex is that face's boundary walk.  Edge i is crossing i's pair of
darts x, x ^ 2 (x = 4i or 4i + 1): its ends are their vertices, and its
sign is +1 at the W and E corners (even ports), -1 at N and S.  On a
front-built diagram (whose crossing ids follow x) the edge order is the
x-order of the spanning-tree model; renumbering the darts' crossings
reorders the edges.

The dual graph's darts are the white corners, each the port clockwise
from a black one, so the dual of one coloring's graph is the other
coloring's graph with the same darts.  ``matched_to`` compares two graphs
dart for dart: a dart lies at one vertex, so each vertex can only go to
the vertex of the other graph whose rotation is the same cyclic sequence,
looked up by a canonical key, with no search.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import LinkDiagram, _find
from .errors import ConventionError, NonplanarRotation


def checkerboard(diagram: LinkDiagram) -> tuple[frozenset[int], frozenset[int]]:
    """The black faces of both checkerboard colorings; the canonical one
    (unbounded face white) comes first.  One search over the faces,
    seeded white at the diagram's ``white_corner``, crosses each arc from
    the corner it arrives at.  A diagram with crossings and no white
    corner raises ValueError."""
    if diagram.n == 0:
        # a crossing-free diagram has the two faces of the sphere
        return frozenset({1}), frozenset({0})
    if diagram.white_corner is None:
        raise ValueError("a diagram with crossings needs a white_corner")
    face, walks, mate = diagram.face_of_corner, diagram.face_walks, diagram.mate
    white = face[diagram.white_corner]
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
    return black, frozenset(range(len(walks))) - black


class TaitEdge(NamedTuple):
    """One signed edge; u is at its lower dart x and v at x ^ 2 (equal
    endpoints give a loop).  The edge's crossing and its order are its
    index in ``TaitGraph.edges``."""

    u: int
    v: int
    sign: int


def _cyclic_key(seq: list[int]) -> tuple[int, ...]:
    """``seq`` turned to start at its least dart: equal exactly for
    sequences of distinct darts that are equal up to cyclic shift."""
    k = seq.index(min(seq)) if seq else 0
    return tuple(seq[k:] + seq[:k])


class TaitGraph:
    """Signed, edge-ordered planar multigraph, given by its rotation
    system: ``rotation[v]`` lists the darts around vertex v in cyclic
    order.  Darts are ports: edge i ends at ports 4i and 4i + 2 (its W
    and E corners, sign +1) or 4i + 1 and 4i + 3 (N and S, sign -1), and
    ``edges`` is read off them.  ConventionError unless every dart is a
    port of some edge, listed once, and each edge lists one full pair.
    """

    def __init__(self, rotation: list[list[int]]):
        self.rotation = rotation
        self.n_vertices = len(rotation)
        n_ports = 2 * sum(map(len, rotation))
        if n_ports % 4:
            raise ConventionError("rotation lists an odd number of darts")
        where = [-1] * n_ports  # port -> its vertex, -1 off the darts
        for v, cyc in enumerate(rotation):
            for x in cyc:
                # an outside port would index from the end, or past it
                if not 0 <= x < n_ports or where[x] >= 0:
                    raise ConventionError(
                        f"rotation lists port {x} twice or off every crossing"
                    )
                where[x] = v
        # each edge lists both of x, x ^ 2, so by count it lists no other
        self.edges: list[TaitEdge] = []
        for x in range(0, n_ports, 4):
            x |= where[x] < 0
            if min(where[x], where[x ^ 2]) < 0:
                raise ConventionError(f"edge {x >> 2}: darts are no pair x, x ^ 2")
            self.edges.append(TaitEdge(where[x], where[x ^ 2], 1 - 2 * (x & 1)))

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
        around its other end); the faces of the embedded graph.  With no
        edge, the one face has no dart."""
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
        return orbits or [[]]

    def matched_to(self, other: "TaitGraph") -> bool:
        """Structural equality under the dart-set correspondence: some
        vertex bijection takes each rotation to the same cyclic sequence
        of darts.  A dart lies at one vertex only, so the rotations' keys
        say which vertex goes where, without search, and each edge's ends
        and sign follow its darts."""
        return sorted(map(_cyclic_key, self.rotation)) == sorted(
            map(_cyclic_key, other.rotation)
        )

    def __repr__(self) -> str:
        return f"TaitGraph(V={self.n_vertices}, E={len(self.edges)})"


def tait_graph(diagram: LinkDiagram, black: frozenset[int]) -> TaitGraph:
    """The signed Tait graph of the coloring with black faces ``black``.

    The vertex of the v-th black face, in index order, has that face's
    boundary walk for its rotation, so crossing c gives edge c between
    the black faces at its two black corners, positive exactly when they
    are the pair swept counterclockwise from the over-strand, W and E at
    the even ports.  A set that is no checkerboard coloring lists some
    crossing's corners other than as one opposite pair, which TaitGraph
    refuses, or lists too few crossings, which this refuses.
    """
    if diagram.n == 0:
        return TaitGraph([[]])
    walks = diagram.face_walks
    g = TaitGraph([walks[f] for f in sorted(black)])
    if len(g.edges) != diagram.n:
        raise ConventionError(
            f"black faces give {len(g.edges)} edges for {diagram.n} crossings"
        )
    return g


def dual_graph(g: TaitGraph) -> TaitGraph:
    """Geometric dual through the rotation system: vertices become the
    faces, in the order they are traced.  Dart x becomes the port
    clockwise from it, the white corner next to its black one, and each
    face orbit is read backwards, so edge indices persist, every sign
    flips (the clockwise port has the other parity), and the dual of one
    coloring's Tait graph is the other coloring's, dart for dart, up to
    vertex numbering."""
    orbits = g.face_orbits()
    if g.n_vertices - len(g.edges) + len(orbits) != 2:
        raise NonplanarRotation("rotation system does not satisfy Euler's formula")
    return TaitGraph(
        [[(x & ~3) | ((x + 1) & 3) for x in reversed(orb)] for orb in orbits]
    )
