"""The face-walk construction of a diagram's Tait graphs, a test reference.

``khfront.tait.tait_graph`` reads a front's Tait graphs off the gaps
between its strands, in one union-find sweep over the word.  This module
builds them from the diagram's arcs alone and shares no code with that
sweep.  A face corner is named by the port at which the face's boundary
walk arrives.  The walk turns counterclockwise there and leaves by the
next port, ccw(x) = (x & ~3) | ((x - 1) & 3), so from x it goes on to
``mate[ccw(x)]``, and the corner at x is the quadrant swept between x and
ccw(x): ``CORNER_AT[x & 3]``.  One search 2-colors the faces, seeded
white at a given corner, and crossing c gives edge c between its two
black corners: W and E (ports 4c and 4c + 2) with sign +1, or N and S
(ports 4c + 1 and 4c + 3) with sign -1.
"""

from __future__ import annotations

from typing import Optional

from khfront import FrontDiagram, TaitGraph
from khfront.tait import TaitEdge
from link_diagram import LinkDiagram

#: quadrant of the corner at which a face walk arrives through place p:
#: arriving at NW it sweeps W on its way to SW, and so on
CORNER_AT = ("W", "N", "E", "S")


def plane_connected(d: LinkDiagram) -> bool:
    """Whether the diagram is connected as a subset of the plane: one
    crossing-free loop, or crossings that a search along the arcs from
    crossing 0 reaches all of, with no free loop beside them."""
    if d.n == 0:
        return d.free_loops == 1
    if d.free_loops:
        return False
    mate = d.mate
    reached = [True] + [False] * (d.n - 1)
    stack = [0]
    while stack:
        x = 4 * stack.pop()
        for y in mate[x : x + 4]:
            if not reached[y >> 2]:
                reached[y >> 2] = True
                stack.append(y >> 2)
    return all(reached)


def face_of_corner(d: LinkDiagram) -> list[int]:
    """Port -> index of the face whose corner it names.  Each walk is
    seeded at the first arc end, in arc order, that no earlier walk has
    passed."""
    mate = d.mate
    face = [-1] * len(mate)
    n_faces = 0
    for x in [x for arc in d.arcs for x in arc]:
        if face[x] < 0:
            while face[x] < 0:
                face[x] = n_faces
                x = mate[(x & ~3) | ((x - 1) & 3)]
            n_faces += 1
    return face


def front_corner(front: FrontDiagram) -> Optional[int]:
    """A white corner of the front's canonical coloring: the gap below the
    k-th strand is white exactly when k is even, so the first crossing
    ``X p`` has its N corner (named by port NE) white when p is odd, and
    its W corner (port NW) when p is even.  None without crossings."""
    for kind, pos in front.events:
        if kind == "X":
            return 1 if pos % 2 else 0
    return None


def black_faces(d: LinkDiagram, white_corner: int) -> list[bool]:
    """Whether each face is black in the coloring with the face at
    ``white_corner`` white, by one search that crosses each arc from the
    corner it arrives at.  ValueError unless the faces are 2-colorable."""
    face = face_of_corner(d)
    across: list[list[int]] = [[] for _ in range(max(face) + 1)]
    for x, y in enumerate(d.mate):
        across[face[x]].append(face[y])
    black: list[Optional[bool]] = [None] * len(across)
    black[face[white_corner]] = False
    stack = [face[white_corner]]
    while stack:
        f = stack.pop()
        for g in across[f]:
            if black[g] is None:
                black[g] = not black[f]
                stack.append(g)
            elif black[g] == black[f]:
                raise ValueError("faces are not 2-colorable")
    if None in black:
        raise ValueError("faces are not 2-colorable")
    return black


def face_walk_graphs(
    d: LinkDiagram, white_corner: Optional[int]
) -> tuple[TaitGraph, TaitGraph]:
    """The Tait graphs of the coloring with the face at ``white_corner``
    white and of the reversed one.  The v-th vertex is the v-th black
    face in index order.  A crossing-free diagram has the sphere's two
    faces, one of each color."""
    if d.n == 0:
        return TaitGraph(1, []), TaitGraph(1, [])
    face = face_of_corner(d)
    black = black_faces(d, white_corner)
    graphs = []
    for color in (True, False):
        faces = [f for f, b in enumerate(black) if b == color]
        vertex = {f: v for v, f in enumerate(faces)}
        edges = []
        for x in range(0, 4 * d.n, 4):
            x += black[face[x]] != color  # N and S are the black corners
            u, v = vertex[face[x]], vertex[face[x + 2]]
            edges.append(TaitEdge(u, v, 1 - 2 * (x & 1)))
        graphs.append(TaitGraph(len(vertex), edges))
    return graphs[0], graphs[1]


def renumbered(g: TaitGraph) -> tuple[int, list[TaitEdge]]:
    """The vertex count and the edges, with the vertices numbered in order
    of first appearance in the edge list."""
    first: dict[int, int] = {}
    return g.n_vertices, [
        TaitEdge(
            first.setdefault(e.u, len(first)),
            first.setdefault(e.v, len(first)),
            e.sign,
        )
        for e in g.edges
    ]
