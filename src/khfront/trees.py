"""Spanning trees, Tutte activities, and the tree-model bigradings.

Edges are ordered by index, which is their crossing's x-rank on a front
(see ``tait``).  An edge in the tree is internally active when its index
is lowest in its cut set; an edge outside is externally active when its
index is lowest in its cycle set.  Tutte's recursion on the highest edge
finds them: deleting and contracting edges from the highest index down, a
loop of the current minor is externally active, a bridge is internally
active and gets contracted, and any other edge branches into an inactive
tree edge (contracted) and an inactive non-tree edge (deleted).  Signs
follow Kauffman's labels for signed graphs.  Labels combine activity and
sign:

    tree:      L (active +)   Lb (active -)   D (inactive +)   Db (inactive -)
    non-tree:  l (active +)   lb (active -)   d (inactive +)   db (inactive -)

('b' marks the bar of a negative edge.)  The bigrading is

    u(T) = #L - #l - #Lb + #lb        v(T) = #L + #D + #lb + #db

Two functions walk that recursion.  ``labelled_trees`` follows every
branch and yields each tree with its labels; the ``trees`` listing and
the tests use it.  ``bigrading_counts`` only counts the trees at each
(u, v), by frontier dynamic programming over the edges (Sekine, Imai and
Tani, *Computing the Tutte polynomial of a graph of moderate size*,
1995):

* Reduce first.  A bridge of G stays a bridge, and a loop stays a loop,
  in every minor of the recursion, so each is labelled alike in every
  tree and leaves the other labels alone.  One bridge search contracts
  the bridges and drops the loops, keeping their constant (u, v) shift.
* The state before edge e is the contraction partition of the frontier:
  the vertices with edges both above e and at or below it.  On a front
  the frontier is the set of black faces cut by the sweep line.  Each
  state carries its ``{(u, v): count}`` relative to an offset, so a step
  that does not branch shifts it in O(1).
* Edge e is a loop when its ends share a class, and a bridge when its
  ends stay apart in the union of the classes and the components of the
  edges below e; otherwise both branches are kept.

``classify_activities`` labels one given tree straight from the
definition, with one union-find per edge: the reference for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

from .diagram import LinkDiagram, _find
from .errors import (
    ConventionError,
    Disconnected,
    NotASpanningTree,
    NotUnknot,
    ParityViolation,
    TooLarge,
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
#: code -> the (u, v) it adds to its tree's bigrading
_SHIFT = ((1, 1), (-1, 0), (0, 1), (0, 0), (-1, 0), (1, 1), (0, 0), (0, 1))
#: code -> 0 on the tree, 1 off it; ascending order of the translated
#: strings is lexicographic order of the trees' sorted edge lists
_MEMBERSHIP = bytes.maketrans(bytes(range(8)), bytes([0, 0, 0, 0, 1, 1, 1, 1]))
#: u + C -> class of a tree on a front with C cusp pairs
_CLASS = {1: "good", 2: "bad"}
#: most spanning trees ``labelled_trees`` lists; the listing is sorted, so
#: every tree is held in memory before the first is yielded
LISTING_LIMIT = 100_000


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
    without its per-edge union-finds.  Each tree is checked to span.  A
    graph with more than ``LISTING_LIMIT`` trees raises TooLarge as soon as
    the pass finds one tree more than that.
    """
    cusp_count = front.cusp_count if front is not None else None
    found = list(islice(_labelling_pass(g), LISTING_LIMIT + 1))
    if len(found) > LISTING_LIMIT:
        raise TooLarge(
            f"more than {LISTING_LIMIT} spanning trees to list; "
            "analyze counts them without listing"
        )
    found.sort(key=lambda c: c.translate(_MEMBERSHIP))
    for codes in found:
        rec = _record(codes, cusp_count)
        _validate_tree(g, rec.tree)
        yield rec


def spanning_trees(g: TaitGraph) -> Iterator[frozenset[int]]:
    """All spanning trees, each exactly once, in lexicographic order of
    their sorted edge-id lists: the tree-only view of ``labelled_trees``.
    """
    for rec in labelled_trees(g):
        yield rec.tree


def bigrading_counts(g: TaitGraph) -> dict[tuple[int, int], int]:
    """The number of spanning trees at each bigrading (u, v), in ascending
    order of (u, v), without listing any tree: the (u, v) counts of
    ``labelled_trees``, from the bridge and loop reduction and the
    frontier sweep of the module docstring."""
    if not g.is_connected():
        raise Disconnected("graph is not connected")
    ends = [(e.u, e.v) for e in g.edges]
    parent = list(range(g.n_vertices))
    bridges = _bridges(parent, ends, range(len(ends)))
    u0 = v0 = 0
    kept = []
    for i, e in enumerate(g.edges):
        if e.u == e.v:
            code = _LOOP
        elif i in bridges:
            code = _L
            parent[_find(parent, e.u)] = _find(parent, e.v)
        else:
            kept.append(i)
            continue
        du, dv = _SHIFT[code + (e.sign < 0)]
        u0, v0 = u0 + du, v0 + dv
    counts = _sweep(
        [(_find(parent, ends[i][0]), _find(parent, ends[i][1])) for i in kept],
        [g.edges[i].sign < 0 for i in kept],
    )
    return {(u + u0, v + v0): c for (u, v), c in counts.items()}


def _canon(labels) -> tuple[int, ...]:
    """Class labels renumbered in order of first appearance."""
    first: dict[int, int] = {}
    return tuple([first.setdefault(x, len(first)) for x in labels])


def _joined(labels: list[int], comps: tuple[int, ...], pa: int, pb: int) -> bool:
    """Whether positions pa and pb are linked by chains of positions that
    share a class label or a component; both number from 0 below
    ``len(labels)``."""
    m = len(labels)
    parent = list(range(2 * m))
    for x, c in zip(labels, comps):
        parent[_find(parent, x)] = _find(parent, m + c)
    return _find(parent, labels[pa]) == _find(parent, labels[pb])


def _pour(states: dict, key: tuple[int, ...], bucket: list) -> None:
    """Add ``bucket`` ([offset, counts, owned]) to the state ``key``.  The
    smaller counts are rebased onto the larger's offset; counts shared by
    two branches are copied before they change."""
    there = states.setdefault(key, bucket)
    if there is bucket:
        return
    if len(bucket[1]) > len(there[1]):
        states[key] = bucket
        bucket, there = there, bucket
    if not there[2]:
        there[1], there[2] = dict(there[1]), True
    counts = there[1]
    shift = bucket[0] - there[0]
    for k, c in bucket[1].items():
        counts[k + shift] = counts.get(k + shift, 0) + c


def _sweep(
    ends: list[tuple[int, int]], neg: list[bool]
) -> dict[tuple[int, int], int]:
    """Tutte's recursion on the highest edge, memoized on the frontier.

    ``ends`` lists each edge's vertex pair (small integers) and ``neg``
    whether it is negative.  A step keeps one state per contraction
    partition of the working vertices: the frontier and the ends of the
    edge that are new to it.  Each state holds its counts keyed by
    u * (n + 1) + v for n edges, relative to an offset in the same
    encoding, which stays exact since 0 <= v <= n.  A class whose last
    frontier vertex leaves while edges remain (a deleted bridge), or a
    sweep that ends in anything but one state, raises ConventionError.
    """
    n = len(ends)
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    for e, pair in enumerate(ends):
        for x in pair:
            lo.setdefault(x, e)
            hi[x] = e
    # per edge: its working vertices, the positions that stay on the
    # next frontier and those that leave it
    plan: list = [None] * n
    frontier: list[int] = []
    for e in range(n - 1, -1, -1):
        work = frontier + [x for x in dict.fromkeys(ends[e]) if hi[x] == e]
        keep = [i for i, x in enumerate(work) if lo[x] < e]
        leave = [i for i, x in enumerate(work) if lo[x] == e]
        plan[e] = (work, keep, leave)
        frontier = [work[i] for i in keep]
    # the components of the edges below e, on the working vertices
    comps = [()] * n
    parent = list(range(max(lo, default=-1) + 1))
    for e, (a, b) in enumerate(ends):
        comps[e] = _canon([_find(parent, x) for x in plan[e][0]])
        parent[_find(parent, a)] = _find(parent, b)

    stride = n + 1
    shifts = [du * stride + dv for du, dv in _SHIFT]
    states = {(): [0, {0: 1}, True]}
    for e in range(n - 1, -1, -1):
        work, keep, leave = plan[e]
        pa, pb = work.index(ends[e][0]), work.index(ends[e][1])
        sign = neg[e]
        step: dict = {}
        for state, bucket in states.items():
            labels = [*state, *range(len(state), len(work))]
            la, lb = labels[pa], labels[pb]
            if la == lb:
                children = ((_LOOP + sign, labels),)
            else:
                merged = [la if x == lb else x for x in labels]
                if _joined(labels, comps[e], pa, pb):
                    children = ((_D + sign, merged), (_DEL + sign, labels))
                else:
                    children = ((_L + sign, merged),)
            for code, labs in children:
                kept = [labs[i] for i in keep]
                if e and any(labs[i] not in kept for i in leave):
                    raise ConventionError(
                        f"edge {e}: a class leaves the frontier while edges remain"
                    )
                if len(children) == 1:
                    bucket[0] += shifts[code]
                    child = bucket
                else:
                    child = [bucket[0] + shifts[code], bucket[1], False]
                _pour(step, _canon(kept), child)
        states = step
    if list(states) != [()]:
        raise ConventionError(f"the sweep ends in {len(states)} states, not one")
    offset, counts, _ = states[()]
    return {divmod(k + offset, stride): c for k, c in sorted(counts.items())}


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


def _generator_ij(
    u: int, v: int, n: int, w: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Khovanov (i, j) of the generators at (u, v) and (u + 2, v + 2):
    i = u - v + w + (n - w)/2 and j = i + u + w - 1."""
    if (n - w) % 2 != 0:
        raise ParityViolation(f"crossing count {n} and writhe {w} differ mod 2")
    i = u - v + w + (n - w) // 2
    return ((i, i + u + w - 1), (i, i + u + w + 1))


def to_khovanov_bigrading(
    rec: SpanningTreeRecord, n: int, w: int
) -> GeneratorPair:
    """Convert (u, v) to the Khovanov gradings of the tree's two
    generators: i = u - v + w + (n - w)/2 and j = i + u + w - 1."""
    return GeneratorPair(u=rec.u, v=rec.v, ij=_generator_ij(rec.u, rec.v, n, w))


def tree_euler_characteristic(g: TaitGraph, n: int, w: int) -> LaurentPoly:
    """Sum of (-1)^i q^j over both generators of every spanning tree."""
    coeffs: dict[int, int] = {}
    for (u, v), count in bigrading_counts(g).items():
        for i, j in _generator_ij(u, v, n, w):
            coeffs[j] = coeffs.get(j, 0) + (-1) ** (i % 2) * count
    return LaurentPoly(coeffs)


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
