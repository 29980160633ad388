"""Spanning trees, Tutte activities, and the tree-model bigradings.

Edges are ordered by index, which is their crossing's x-rank on a front
(see ``tait``).  An edge in the tree is internally active when its index
is lowest in its cut set; an edge outside is externally active when its
index is lowest in its cycle set.  ``labelled_trees`` finds every tree and
its labels in one pass of Tutte's recursion on the highest edge: deleting
and contracting edges from the highest index down, a loop of the current
minor is externally active, a bridge is internally active and gets
contracted, and any other edge branches into an inactive tree edge
(contracted) and an inactive non-tree edge (deleted).  Signs follow
Kauffman's labels for signed graphs.  ``classify_activities`` labels one
given tree straight from the definition, with one union-find per edge.
Labels combine activity and sign:

    tree:      L (active +)   Lb (active -)   D (inactive +)   Db (inactive -)
    non-tree:  l (active +)   lb (active -)   d (inactive +)   db (inactive -)

('b' marks the bar of a negative edge.)  The bigrading is

    u(T) = #L - #l - #Lb + #lb        v(T) = #L + #D + #lb + #db
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .diagram import LinkDiagram, _find
from .errors import (
    ConventionError,
    Disconnected,
    NotASpanningTree,
    NotUnknot,
    ParityViolation,
)
from .front import FrontDiagram
from .laurent import LaurentPoly
from .tait import TaitGraph, dual_graph

#: Lemma-style label swap between an edge and its dual under dual trees
DUAL_LABEL = {
    "L": "lb", "lb": "L",
    "D": "db", "db": "D",
    "l": "Lb", "Lb": "l",
    "d": "Db", "Db": "d",
}

#: splicing of inactive crossings; active ones keep their crossing
INACTIVE_SPLICE = {"D": "A", "d": "B", "Db": "B", "db": "A"}

PRETTY = {
    "L": "L", "Lb": "L̄", "D": "D", "Db": "D̄",
    "l": "l", "lb": "l̄", "d": "d", "db": "d̄",
}


@dataclass(frozen=True)
class SpanningTreeRecord:
    """One spanning tree with its activity labels and bigrading."""

    tree: frozenset[int]
    labels: dict[int, str]
    u: int
    v: int
    class_: str = "neither"  # good | bad | neither

    def count(self, label: str) -> int:
        return sum(1 for lab in self.labels.values() if lab == label)

    def to_json_dict(self) -> dict:
        return {
            "edges": sorted(self.tree),
            "labels": {str(e): PRETTY[lab] for e, lab in sorted(self.labels.items())},
            "u": self.u,
            "v": self.v,
            "class": self.class_,
        }


@dataclass(frozen=True)
class GeneratorPair:
    """The two generators contributed by one spanning tree: bidegrees
    (u, v) and (u+2, v+2), plus their Khovanov (i, j) conversions."""

    u: int
    v: int
    ij: tuple[tuple[int, int], tuple[int, int]]


#: labels by code in the byte strings that ``_record`` reads: tree labels
#: take codes 0-3, non-tree labels 4-7, and a negative edge adds 1
_LABEL_OF_CODE = ("L", "Lb", "D", "Db", "l", "lb", "d", "db")
_L, _D, _LOOP, _DEL = 0, 2, 4, 6
#: code -> 0 on the tree, 1 off it; ascending order of the translated
#: strings is lexicographic order of the trees' sorted edge lists
_MEMBERSHIP = bytes.maketrans(bytes(range(8)), bytes([0, 0, 0, 0, 1, 1, 1, 1]))
#: u + C -> class of a tree on a front with C cusp pairs
_CLASS = {1: "good", 2: "bad"}


def _bridges(
    parent: list[int], ends: list[tuple[int, int]], edge_ids: range
) -> set[int]:
    """Bridges of the minor whose vertices are the union-find classes of
    ``parent`` and whose edges are ``edge_ids`` (iterative Tarjan)."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in edge_ids:
        a, b = _find(parent, ends[e][0]), _find(parent, ends[e][1])
        if a != b:
            adj.setdefault(a, []).append((b, e))
            adj.setdefault(b, []).append((a, e))
    bridges: set[int] = set()
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, via, around = stack[-1]
            for w, e in around:
                if e == via:
                    continue
                if w in disc:
                    low[v] = min(low[v], disc[w])
                else:
                    disc[w] = low[w] = len(disc)
                    stack.append((w, e, iter(adj[w])))
                    break
            else:
                stack.pop()
                if stack:
                    up = stack[-1][0]
                    low[up] = min(low[up], low[v])
                    if low[v] > disc[up]:
                        bridges.add(via)
    return bridges


def _labelling_pass(g: TaitGraph) -> Iterator[bytes]:
    """Tutte's activity recursion on the highest edge, depth first.

    Each yielded string holds one spanning tree's label codes, indexed by
    edge id.  In the current minor a loop is externally active and a
    bridge internally active (and contracted); any other edge branches
    into contraction (inactive tree edge) and deletion (inactive non-tree
    edge).  Contraction creates no bridge, so the bridges are recomputed
    only after a deletion.
    """
    if not g.is_connected():
        raise Disconnected("graph is not connected")
    order = range(len(g.edges) - 1, -1, -1)
    ends = [(e.u, e.v) for e in g.edges]
    neg = [1 if e.sign < 0 else 0 for e in g.edges]
    codes = bytearray(len(g.edges))
    parent = list(range(g.n_vertices))
    # (next depth, union-find parents, bridges of the minor, the edge just
    # contracted as inactive or -1); entries at depth k never rewrite the
    # codes of edges processed above k, so one buffer serves every branch
    stack = [(0, parent, _bridges(parent, ends, order), -1)]
    while stack:
        k, parent, bridges, contracted = stack.pop()
        if contracted >= 0:
            codes[contracted] = _D + neg[contracted]
        for depth in range(k, len(order)):
            e = order[depth]
            a, b = _find(parent, ends[e][0]), _find(parent, ends[e][1])
            if a == b:
                codes[e] = _LOOP + neg[e]
            elif e in bridges:
                codes[e] = _L + neg[e]
                parent[a] = b
            else:
                merged = parent.copy()
                merged[a] = b
                stack.append((depth + 1, merged, bridges, e))
                codes[e] = _DEL + neg[e]
                bridges = _bridges(parent, ends, order[depth + 1:])
        yield bytes(codes)


def _record(codes: bytes, cusp_count: Optional[int]) -> SpanningTreeRecord:
    """The record of one tree from its label codes; with a front's cusp
    count, classed good (u = 1 - C) or bad (u = 2 - C)."""
    tree = frozenset(i for i, c in enumerate(codes) if c < _LOOP)
    count = codes.count
    u = count(_L) - count(_LOOP) - count(_L + 1) + count(_LOOP + 1)
    cls = "neither" if cusp_count is None else _CLASS.get(u + cusp_count, "neither")
    return SpanningTreeRecord(
        tree=tree,
        labels={i: _LABEL_OF_CODE[c] for i, c in enumerate(codes)},
        u=u,
        v=count(_L) + count(_D) + count(_LOOP + 1) + count(_DEL + 1),
        class_=cls,
    )


def labelled_trees(
    g: TaitGraph, front: Optional[FrontDiagram] = None
) -> Iterator[SpanningTreeRecord]:
    """Every spanning tree with its activity labels, u and v (and its
    good/bad class when a front is attached), each exactly once, in
    lexicographic order of the sorted edge-id lists.

    One deletion-contraction pass on the highest edge labels every tree
    as it is found; the records equal ``classify_activities`` on each tree
    without its per-edge union-finds.  Each tree is checked to span.
    """
    cusp_count = front.cusp_count if front is not None else None
    for codes in sorted(_labelling_pass(g), key=lambda c: c.translate(_MEMBERSHIP)):
        rec = _record(codes, cusp_count)
        _validate_tree(g, rec.tree)
        yield rec


def spanning_trees(g: TaitGraph) -> Iterator[frozenset[int]]:
    """All spanning trees, each exactly once, in lexicographic order of
    their sorted edge-id lists: the tree-only view of ``labelled_trees``.
    """
    for rec in labelled_trees(g):
        yield rec.tree


def _validate_tree(g: TaitGraph, tree: frozenset[int]) -> None:
    if len(tree) != g.n_vertices - 1:
        raise NotASpanningTree(f"{len(tree)} edges for {g.n_vertices} vertices")
    # V - 1 edges without a cycle span the graph
    parent = list(range(g.n_vertices))
    for e_idx in tree:
        a, b = _find(parent, g.edges[e_idx].u), _find(parent, g.edges[e_idx].v)
        if a == b:
            raise NotASpanningTree(f"edge {e_idx} closes a cycle")
        parent[a] = b


def classify_activities(
    g: TaitGraph, tree: frozenset[int], front: Optional[FrontDiagram] = None
) -> SpanningTreeRecord:
    """Label every edge with its activity read off the definition, and
    compute u(T) and v(T): the reference for the labelling pass.

    Each edge gets a fresh union-find forest.  A tree edge is lowest in
    its cut exactly when T minus it, together with every lower edge,
    leaves its ends apart.  A non-tree edge is lowest in its cycle exactly
    when the higher tree edges join its ends (a loop's ends are joined at
    once).  When a front is attached, the record is classed good
    (u = 1 - C) or bad (u = 2 - C) relative to the front's cusp number.
    """
    _validate_tree(g, tree)
    codes = bytearray(len(g.edges))
    for i, e in enumerate(g.edges):
        if i in tree:
            joining = [f for f in tree if f != i] + list(range(i))
        else:
            joining = [f for f in tree if f > i]
        parent = list(range(g.n_vertices))
        for f in joining:
            parent[_find(parent, g.edges[f].u)] = _find(parent, g.edges[f].v)
        joined = _find(parent, e.u) == _find(parent, e.v)
        if i in tree:
            code = _D if joined else _L
        else:
            code = _LOOP if joined else _DEL
        codes[i] = code + (e.sign < 0)
    return _record(bytes(codes), front.cusp_count if front is not None else None)


def dual_tree(
    g: TaitGraph, tree: frozenset[int]
) -> tuple[TaitGraph, frozenset[int], dict[int, tuple[str, str]]]:
    """The complementary spanning tree of the dual graph.

    Returns (dual graph, dual tree, per-edge label pair (label, dual
    label)); ``classify_activities`` checks that the tree and its
    complement in the dual span, and ConventionError is raised unless every
    label swaps L<->lb, D<->db, l<->Lb, d<->Db.
    """
    rec = classify_activities(g, tree)
    gd = dual_graph(g)
    dual = frozenset(range(len(g.edges))) - tree
    rec_d = classify_activities(gd, dual)
    pairs = {}
    for i in range(len(g.edges)):
        lab, dlab = rec.labels[i], rec_d.labels[i]
        if dlab != DUAL_LABEL[lab]:
            raise ConventionError(
                f"edge {i}: label {lab} has dual label {dlab}, "
                f"not {DUAL_LABEL[lab]}"
            )
        pairs[i] = (lab, dlab)
    return gd, dual, pairs


def min_x_spanning_tree(
    g: TaitGraph, front: Optional[FrontDiagram] = None
) -> SpanningTreeRecord:
    """Kruskal tree minimizing the sum of edge indices (x-ranks); indices
    are distinct, so the minimizer is unique."""
    if not g.is_connected():
        raise Disconnected("graph is not connected")
    parent = list(range(g.n_vertices))
    chosen = set()
    for i, e in enumerate(g.edges):
        ru, rv = _find(parent, e.u), _find(parent, e.v)
        if ru != rv:
            parent[ru] = rv
            chosen.add(i)
    return classify_activities(g, frozenset(chosen), front)


def to_khovanov_bigrading(
    rec: SpanningTreeRecord, n: int, w: int
) -> GeneratorPair:
    """Convert (u, v) to the Khovanov gradings of the tree's two
    generators: i = u - v + w + (n - w)/2 and j = i + u + w - 1."""
    if (n - w) % 2 != 0:
        raise ParityViolation(f"crossing count {n} and writhe {w} differ mod 2")
    half = (n - w) // 2

    def ij(u: int, v: int) -> tuple[int, int]:
        i = u - v + w + half
        return (i, i + u + w - 1)

    return GeneratorPair(
        u=rec.u,
        v=rec.v,
        ij=(ij(rec.u, rec.v), ij(rec.u + 2, rec.v + 2)),
    )


def tree_euler_characteristic(g: TaitGraph, n: int, w: int) -> LaurentPoly:
    """Sum of (-1)^i q^j over both generators of every spanning tree."""
    total = LaurentPoly.zero()
    for rec in labelled_trees(g):
        pair = to_khovanov_bigrading(rec, n, w)
        for i, j in pair.ij:
            total = total + LaurentPoly.monomial(j, (-1) ** (i % 2))
    return total


def splice_unknot(d: LinkDiagram, rec: SpanningTreeRecord) -> tuple[LinkDiagram, int]:
    """Splice every inactive crossing (D, db -> A; d, Db -> B), keeping the
    active ones.  The result must be a one-component twisted unknot; its
    writhe is returned (and equals -u by the activity count)."""
    resolution = {}
    for i, lab in rec.labels.items():
        if lab in INACTIVE_SPLICE:
            resolution[i] = INACTIVE_SPLICE[lab]
    u_t = d.smooth(resolution)
    if u_t.component_count() != 1:
        raise NotUnknot(
            f"splicing produced {u_t.component_count()} components; "
            "convention bug"
        )
    return u_t, u_t.writhe()


def splice_front(
    front: FrontDiagram, rec: SpanningTreeRecord
) -> tuple[FrontDiagram, int, int]:
    """Event-word surgery: Legendrian A-splices drop the crossing event,
    B-splices replace it by a right cusp followed by a left cusp.

    Returns (F_T, tb(F_T), C(F_T)).
    """
    splice_of_crossing = {
        i: INACTIVE_SPLICE[lab]
        for i, lab in rec.labels.items()
        if lab in INACTIVE_SPLICE
    }
    events = []
    c = 0
    for kind, pos in front.events:
        if kind != "X":
            events.append((kind, pos))
            continue
        kind_here = splice_of_crossing.get(c)
        c += 1
        if kind_here is None:
            events.append(("X", pos))
        elif kind_here == "B":
            events.append(("R", pos))
            events.append(("L", pos))
        # A-splice: event removed
    f_t = FrontDiagram(tuple(events))
    return f_t, f_t.tb(), f_t.cusp_count
