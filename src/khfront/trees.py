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

One frontier sweep runs that recursion (Sekine, Imai and Tani,
*Computing the Tutte polynomial of a graph of moderate size*, 1995), and
both tree paths read it: ``bigrading_counts`` counts the trees at each
(u, v) for ``analyze``, ``certify`` and ``corpus``, and
``sorted_tree_codes`` lists every tree's label codes, sorted and checked
to span.  The listing is shared: ``labelled_trees`` makes a record of
each tree, and the ``trees`` command writes each tree straight from its
codes.

* Reduce first.  A bridge of G stays a bridge, and a loop stays a loop,
  in every minor of the recursion, so each is labelled alike in every
  tree and leaves the other labels alone.  One bridge search contracts
  the bridges and drops the loops, each with its fixed label, and is
  where a graph that is not connected is refused.
* The state before edge e is the contraction partition of the frontier:
  the vertices with edges both above e and at or below it.  On a front
  these are black faces that span the line between crossings e and
  e + 1, and each holds one or more of the black gaps that ``tait``'s
  sweep holds there.
* Edge e is a loop when its ends share a class, and a bridge when its
  ends stay apart in the union of the classes and the components of the
  edges below e; otherwise both branches are kept.  That rule is decided
  once per state and edge.
* A path through the states is one tree.  The count carries each state's
  ``{(u, v): count}`` relative to an offset, so a step that does not
  branch shifts it in O(1); the listing walks the paths depth first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Collection, Iterable, Iterator, Optional

from .diagram import _find
from .errors import (
    ConventionError,
    Disconnected,
    NotASpanningTree,
    ParityViolation,
    TooLarge,
)
from .front import FrontDiagram
from .laurent import LaurentPoly
from .tait import TaitGraph

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


#: labels by code in the byte strings of the listing: tree labels take
#: codes 0-3, non-tree labels 4-7, and a negative edge adds 1
_LABEL_OF_CODE = ("L", "Lb", "D", "Db", "l", "lb", "d", "db")
_L, _D, _LOOP, _DEL = 0, 2, 4, 6
#: code -> the (u, v) it adds to its tree's bigrading
_SHIFT = ((1, 1), (-1, 0), (0, 1), (0, 0), (-1, 0), (1, 1), (0, 0), (0, 1))
#: code -> 1 on the tree, 0 off it; descending order of the translated
#: strings is lexicographic order of the trees' sorted edge lists
_ON_TREE = bytes.maketrans(bytes(range(8)), bytes([1, 1, 1, 1, 0, 0, 0, 0]))
#: u + C -> class of a tree on a front with C cusp pairs
_CLASS = {1: "good", 2: "bad"}
#: most spanning trees ``sorted_tree_codes`` lists; the listing is sorted,
#: so every tree is held in memory before the first is yielded
LISTING_LIMIT = 100_000


def _bridges(ends: list[tuple[int, int]], n_vertices: int) -> set[int]:
    """Bridges of the graph on the vertices 0 to ``n_vertices`` - 1 whose
    edges join the vertex pairs ``ends``, by one iterative Tarjan search
    from vertex 0.  Raises Disconnected unless the search reaches every
    vertex, so a graph with no vertex is refused too."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
    for e, (a, b) in enumerate(ends):
        if a != b:
            adj[a].append((b, e))
            adj[b].append((a, e))
    bridges: set[int] = set()
    disc = {0: 0}
    low = {0: 0}
    stack = [(0, -1, iter(adj[0] if adj else ()))]
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
    if len(disc) != n_vertices:
        raise Disconnected("graph is not connected")
    return bridges


def _reduce(g: TaitGraph) -> tuple[dict[int, int], list[int], list, list]:
    """The bridge and loop reduction, by one bridge search, which also
    refuses a graph that is not connected.

    Returns the label codes of the bridges and loops by edge id, the ids
    of the other edges in ascending order, their ends in the graph with
    the bridges contracted, and whether each of them is negative.  An
    edge with an end outside 0 to V - 1 or a sign other than +-1 raises
    ValueError.
    """
    vertices = range(g.n_vertices)
    ends = []
    for i, (a, b, sign) in enumerate(g.edges):
        if a not in vertices or b not in vertices or sign not in (1, -1):
            raise ValueError(
                f"edge {i} {g.edges[i]!r} needs ends in 0..{g.n_vertices - 1} "
                "and a sign of +1 or -1"
            )
        ends.append((a, b))
    bridges = _bridges(ends, g.n_vertices)
    parent = list(vertices)
    fixed: dict[int, int] = {}
    kept = []
    for i, e in enumerate(g.edges):
        if e.u == e.v:
            fixed[i] = _LOOP + (e.sign < 0)
        elif i in bridges:
            fixed[i] = _L + (e.sign < 0)
            parent[_find(parent, e.u)] = _find(parent, e.v)
        else:
            kept.append(i)
    return (
        fixed,
        kept,
        [(_find(parent, ends[i][0]), _find(parent, ends[i][1])) for i in kept],
        [g.edges[i].sign < 0 for i in kept],
    )


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
        c += m
        while parent[x] != x:
            x = parent[x]
        while parent[c] != c:
            c = parent[c]
        parent[x] = c
    x, y = labels[pa], labels[pb]
    while parent[x] != x:
        x = parent[x]
    while parent[y] != y:
        y = parent[y]
    return x == y


def _plan(ends: list[tuple[int, int]]) -> list[tuple]:
    """The frontier plan of the sweep, per edge e: the positions of e's
    ends among the working vertices (the frontier above e and the ends
    of e that are new to it), their number, the positions that stay on
    the next frontier and those that leave it, the components of the
    edges below e on the working vertices, and whether those components
    hold e's ends apart."""
    n = len(ends)
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    for e, pair in enumerate(ends):
        for x in pair:
            lo.setdefault(x, e)
            hi[x] = e
    works: list = [None] * n
    frontier: list[int] = []
    for e in range(n - 1, -1, -1):
        work = frontier + [x for x in dict.fromkeys(ends[e]) if hi[x] == e]
        works[e] = work
        frontier = [x for x in work if lo[x] < e]
    plan = []
    parent = list(range(max(lo, default=-1) + 1))
    for e, (a, b) in enumerate(ends):
        work = works[e]
        comps = _canon([_find(parent, x) for x in work])
        pa, pb = work.index(a), work.index(b)
        plan.append((
            pa,
            pb,
            len(work),
            [i for i, x in enumerate(work) if lo[x] < e],
            [i for i, x in enumerate(work) if lo[x] == e],
            comps,
            comps[pa] != comps[pb],
        ))
        parent[_find(parent, a)] = _find(parent, b)
    return plan


def _level(states: Iterable[tuple], step: tuple, sign: int, last: bool) -> dict:
    """The step rule at one edge: ``{state: its one or two (label code,
    next state)}``.  The edge is a loop (l), a bridge (L, contracted), or
    a branch into an inactive tree edge (D, contracted) and an inactive
    non-tree edge (d, deleted).  A class that leaves the frontier while
    edges remain (a deleted bridge) raises ConventionError."""
    pa, pb, width, keep, leave, comps, apart = step
    level = {}
    for state in states:
        labels = [*state, *range(len(state), width)]
        la, lb = labels[pa], labels[pb]
        if la == lb:
            options = ((_LOOP + sign, labels),)
        else:
            merged = [la if x == lb else x for x in labels]
            if apart and not _joined(labels, comps, pa, pb):
                options = ((_L + sign, merged),)
            else:
                options = ((_D + sign, merged), (_DEL + sign, labels))
        children = level[state] = []
        for code, labs in options:
            # the kept classes, renumbered in order of first appearance
            first: dict[int, int] = {}
            key = tuple([first.setdefault(labs[i], len(first)) for i in keep])
            if not last and any(labs[i] not in first for i in leave):
                raise ConventionError(
                    "a class leaves the frontier while edges remain"
                )
            children.append((code, key))
    return level


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
    """The (u, v) counts of the trees of the reduced edges: ``ends``
    lists each edge's vertex pair (small integers) and ``neg`` whether it
    is negative.  Each state holds its counts keyed by u * (n + 1) + v
    for n edges, relative to an offset in the same encoding, which stays
    exact since 0 <= v <= n."""
    plan = _plan(ends)
    stride = len(ends) + 1
    shifts = [du * stride + dv for du, dv in _SHIFT]
    buckets = {(): [0, {0: 1}, True]}
    for e in range(len(ends) - 1, -1, -1):
        step: dict = {}
        for state, children in _level(buckets, plan[e], neg[e], e == 0).items():
            bucket = buckets[state]
            if len(children) == 1:
                code, key = children[0]
                bucket[0] += shifts[code]
                _pour(step, key, bucket)
            else:
                for code, key in children:
                    _pour(step, key, [bucket[0] + shifts[code], bucket[1], False])
        buckets = step
    offset, counts, _ = buckets[()]
    return {divmod(k + offset, stride): c for k, c in sorted(counts.items())}


def bigrading_counts(g: TaitGraph) -> dict[tuple[int, int], int]:
    """The number of spanning trees at each bigrading (u, v), in ascending
    order of (u, v), without listing any tree: the (u, v) counts of
    ``labelled_trees``."""
    fixed, _, ends, neg = _reduce(g)
    u0, v0 = _bigrading(bytes(fixed.values()))
    return {(u + u0, v + v0): c for (u, v), c in _sweep(ends, neg).items()}


def _tree_codes(g: TaitGraph) -> list[bytes]:
    """Every spanning tree's label codes, indexed by edge id, by a
    depth-first walk over the sweep's transitions.

    A path from the first state to the last is one tree.  The codes that
    a state's run of single steps fixes, down to the next branching state,
    are joined once per state with the codes of the reduced edges between
    them, so a tree costs one slice write per branch on its path.  More
    than ``LISTING_LIMIT`` trees, counted over the transitions first,
    raise TooLarge.
    """
    fixed, kept, ends, neg = _reduce(g)
    plan = _plan(ends)
    levels = []  # levels[j]: the states before kept edge j
    states: Iterable = [()]
    for j in range(len(ends) - 1, -1, -1):
        levels.append(_level(states, plan[j], neg[j], j == 0))
        states = dict.fromkeys(k for ch in levels[-1].values() for _, k in ch)
    levels.reverse()
    below = {(): 1}
    for level in levels:
        below = {s: sum(below[k] for _, k in ch) for s, ch in level.items()}
    if below[()] > LISTING_LIMIT:
        raise TooLarge(
            f"{below[()]} spanning trees exceed the listing limit of "
            f"{LISTING_LIMIT}; analyze counts them without listing"
        )
    buf = bytearray(len(g.edges))
    for i, c in fixed.items():
        buf[i] = c
    # per state, from the lowest kept edge up: the codes that its single
    # steps fix down to the next branch, and that branch's options (lo, hi,
    # codes of positions lo to hi - 1, the next branch's options or None)
    runs: dict = {(): (b"", None)}
    for j, level in enumerate(levels):
        gap = bytes(buf[kept[j - 1] + 1 if j else 0 : kept[j]])
        hi = kept[j] + 1
        step = {}
        for state, children in level.items():
            options = []
            for code, child in children:
                codes, branch = runs[child]
                codes += gap + bytes((code,))
                options.append((hi - len(codes), hi, codes, branch))
            step[state] = options[0][2:] if len(options) == 1 else (b"", options)
        runs = step
    top = kept[-1] + 1 if kept else 0
    codes, branch = runs[()]
    stack = [(top - len(codes), top, codes, branch)]
    found = []
    # a run writes only below the branch it follows, so the codes above it
    # are still those of the path to that branch
    while stack:
        lo, hi, codes, branch = stack.pop()
        buf[lo:hi] = codes
        if branch is None:
            found.append(bytes(buf))
        else:
            stack += branch
    return found


def _bigrading(codes: bytes) -> tuple[int, int]:
    """(u, v) summed over label codes."""
    count = codes.count
    return (
        count(_L) - count(_LOOP) - count(_L + 1) + count(_LOOP + 1),
        count(_L) + count(_D) + count(_LOOP + 1) + count(_DEL + 1),
    )


def _record(codes: bytes, cusp_count: Optional[int]) -> SpanningTreeRecord:
    """The record of one tree from its label codes; with a front's cusp
    count, classed good (u = 1 - C) or bad (u = 2 - C)."""
    tree = frozenset(compress(range(len(codes)), codes.translate(_ON_TREE)))
    u, v = _bigrading(codes)
    cls = "neither" if cusp_count is None else _CLASS.get(u + cusp_count, "neither")
    return SpanningTreeRecord(
        tree=tree,
        labels=dict(enumerate(map(_LABEL_OF_CODE.__getitem__, codes))),
        u=u,
        v=v,
        class_=cls,
    )


def sorted_tree_codes(g: TaitGraph) -> list[bytes]:
    """Every spanning tree's label codes, indexed by edge id, in
    lexicographic order of the sorted edge-id lists, each checked to span.

    This is the one listing of the trees: ``labelled_trees`` makes a
    record of each, and the ``trees`` command writes each straight from
    its codes.  A graph with more than ``LISTING_LIMIT`` trees raises
    TooLarge before any tree is listed; a listed edge set that does not
    span raises NotASpanningTree.
    """
    found = _tree_codes(g)
    found.sort(key=lambda c: c.translate(_ON_TREE), reverse=True)
    ids = range(len(g.edges))
    for codes in found:
        _validate_tree(g, list(compress(ids, codes.translate(_ON_TREE))))
    return found


def labelled_trees(
    g: TaitGraph, front: Optional[FrontDiagram] = None
) -> Iterator[SpanningTreeRecord]:
    """Every spanning tree with its activity labels, u and v (and its
    good/bad class when a front is attached), each exactly once, in
    lexicographic order of the sorted edge-id lists.

    The trees are the paths of the frontier sweep, listed and checked to
    span by ``sorted_tree_codes``, which the ``trees`` command reads too.
    A graph with more than ``LISTING_LIMIT`` trees raises TooLarge before
    any tree is listed.
    """
    cusp_count = front.cusp_count if front is not None else None
    for codes in sorted_tree_codes(g):
        yield _record(codes, cusp_count)


def _validate_tree(g: TaitGraph, tree: Collection[int]) -> None:
    """Raise NotASpanningTree unless the edge ids ``tree`` span g."""
    if len(tree) != g.n_vertices - 1:
        raise NotASpanningTree(f"{len(tree)} edges for {g.n_vertices} vertices")
    # V - 1 edges without a cycle span the graph; the roots are found with
    # path halving, inline, since every listed tree is checked
    parent = list(range(g.n_vertices))
    edges = g.edges
    for e_idx in tree:
        a, b, _ = edges[e_idx]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            raise NotASpanningTree(f"edge {e_idx} closes a cycle")
        parent[a] = b


def generator_ij(
    u: int, v: int, n: int, w: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Khovanov (i, j) of the generators at (u, v) and (u + 2, v + 2):
    i = u - v + w + (n - w)/2 and j = i + u + w - 1."""
    if (n - w) % 2 != 0:
        raise ParityViolation(f"crossing count {n} and writhe {w} differ mod 2")
    i = u - v + w + (n - w) // 2
    return ((i, i + u + w - 1), (i, i + u + w + 1))


def tree_euler_characteristic(g: TaitGraph, n: int, w: int) -> LaurentPoly:
    """Sum of (-1)^i q^j over both generators of every spanning tree."""
    coeffs: dict[int, int] = {}
    for (u, v), count in bigrading_counts(g).items():
        for i, j in generator_ij(u, v, n, w):
            coeffs[j] = coeffs.get(j, 0) + (-1) ** (i % 2) * count
    return LaurentPoly(coeffs)


def splice_front(
    front: FrontDiagram, rec: SpanningTreeRecord
) -> tuple[FrontDiagram, int, int]:
    """Splice every inactive crossing of the tree (D, db -> A; d, Db -> B)
    by event-word surgery, keeping the active ones: Legendrian A-splices
    drop the crossing event, B-splices replace it by a right cusp followed
    by a left cusp.  F_T is a one-component unknot front whose
    desingularization has writhe -u(T).

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
