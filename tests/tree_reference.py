"""Test references for the tree side, read straight off the definitions.

``classify_activities`` labels one given tree with one union-find per
edge, and sums u and v from the labels; it is the reference for the
labels that ``khfront.trees.labelled_trees`` lists.  ``brute_force_trees``
is the reference for which trees it lists: it tries every edge subset of
the right size.  ``dual_tree`` labels the complementary tree of the dual
graph, which is the other coloring's Tait graph, with
``classify_activities`` and checks the lemma's label swap.
``min_x_tree`` is Kruskal's tree of least x-ranks.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Optional

from khfront import (
    ConventionError,
    FrontDiagram,
    SpanningTreeRecord,
    TaitGraph,
)
from khfront.front import _find
from khfront.trees import _validate_tree

#: label swap between an edge and its dual under complementary dual trees
DUAL_LABEL = {
    "L": "lb", "lb": "L",
    "D": "db", "db": "D",
    "l": "Lb", "Lb": "l",
    "d": "Db", "Db": "d",
}


def classify_activities(
    g: TaitGraph, tree: frozenset[int], front: Optional[FrontDiagram] = None
) -> SpanningTreeRecord:
    """Label every edge with its activity read off the definition, and
    compute u(T) and v(T) from the label counts.

    Each edge gets a fresh union-find forest.  A tree edge is lowest in
    its cut exactly when T minus it, together with every lower edge,
    leaves its ends apart.  A non-tree edge is lowest in its cycle exactly
    when the higher tree edges join its ends (a loop's ends are joined at
    once).  When a front is attached, the record is classed good
    (u = 1 - C) or bad (u = 2 - C) relative to the front's cusp number.
    """
    _validate_tree(g, tree)
    labels = {}
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
            label = "D" if joined else "L"
        else:
            label = "l" if joined else "d"
        labels[i] = label + ("b" if e.sign < 0 else "")
    count = Counter(labels.values())
    u = count["L"] - count["l"] - count["Lb"] + count["lb"]
    v = count["L"] + count["D"] + count["lb"] + count["db"]
    cls = "neither"
    if front is not None:
        cls = {1: "good", 2: "bad"}.get(u + front.cusp_count, "neither")
    return SpanningTreeRecord(tree=tree, labels=labels, u=u, v=v, class_=cls)


def dual_tree(
    g: TaitGraph, gd: TaitGraph, tree: frozenset[int]
) -> tuple[frozenset[int], dict[int, tuple[str, str]]]:
    """The complementary spanning tree of the dual graph ``gd``, the other
    coloring's Tait graph, whose edge i crosses edge i of g.

    Returns (dual tree, per-edge label pair (label, dual label));
    ``classify_activities`` checks that the tree and its complement in the
    dual span, and ConventionError is raised unless every label swaps
    L<->lb, D<->db, l<->Lb, d<->Db.  It raises rather than asserts, so the
    check survives ``python -O``.
    """
    rec = classify_activities(g, tree)
    dual = frozenset(range(len(g.edges))) - tree
    rec_d = classify_activities(gd, dual)
    pairs = {}
    for i, lab in rec.labels.items():
        dlab = rec_d.labels[i]
        if dlab != DUAL_LABEL[lab]:
            raise ConventionError(
                f"edge {i}: label {lab} has dual label {dlab}, "
                f"not {DUAL_LABEL[lab]}"
            )
        pairs[i] = (lab, dlab)
    return dual, pairs


def min_x_tree(g: TaitGraph) -> frozenset[int]:
    """Kruskal's tree minimizing the sum of edge indices (x-ranks);
    indices are distinct, so the minimizer is unique."""
    parent = list(range(g.n_vertices))
    chosen = set()
    for i, e in enumerate(g.edges):
        a, b = _find(parent, e.u), _find(parent, e.v)
        if a != b:
            parent[a] = b
            chosen.add(i)
    return frozenset(chosen)


def brute_force_trees(g: TaitGraph) -> set[frozenset[int]]:
    """Every set of V - 1 edges that spans g, by trying each one: at most
    C(12, 6) = 924 sets, since g may have at most 12 edges."""
    if len(g.edges) > 12:
        raise ValueError(f"{len(g.edges)} edges; the search takes at most 12")
    found = set()
    for subset in combinations(range(len(g.edges)), g.n_vertices - 1):
        # V - 1 edges span exactly when joining them never closes a cycle
        parent = list(range(g.n_vertices))
        for i in subset:
            a, b = _find(parent, g.edges[i].u), _find(parent, g.edges[i].v)
            if a == b:
                break
            parent[a] = b
        else:
            found.add(frozenset(subset))
    return found
