"""Spanning trees, activities, bigradings, splicing, duality labels."""

import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings

from khfront import (
    ConventionError,
    Disconnected,
    LaurentPoly,
    NotASpanningTree,
    ParityViolation,
    TaitGraph,
    bigrading_counts,
    generator_ij,
    kauffman_jones,
    labelled_trees,
    parse_front,
    splice_front,
    tait_graph,
    tree_euler_characteristic,
)
from khfront.tait import TaitEdge
from khfront.trees import _validate_tree

import tree_reference
from conftest import front_words, matrix_tree_count, run_optimized
from tree_reference import (
    DUAL_LABEL,
    brute_force_trees,
    classify_activities,
    dual_tree,
    min_x_tree,
)

TREFOIL = "L1 L2 X1 X1 X1 R2 R1"

#: graphs with bridges, which no front of the benchmark has: both
#: colorings of a kink chain (a star of bridges, or a vertex with loops)
#: and of two trefoils joined by a kink (two triangles and a bridge), and
#: a signed path, a star, and a cycle with a pendant edge
BRIDGED = {
    f"{name}-{coloring}": tait_graph(parse_front(word), reverse)
    for name, word in (
        ("kinks", "L1 " + "L3 X2 R3 " * 5 + "R1"),
        ("trefoils", "L1 L2 X1 X1 X1 R2 L3 X2 R3 L2 X1 X1 X1 R2 R1"),
    )
    for coloring, reverse in (("canonical", False), ("reversed", True))
}
BRIDGED |= {
    "path": TaitGraph(
        4, [TaitEdge(0, 1, 1), TaitEdge(1, 2, -1), TaitEdge(3, 2, -1)]
    ),
    "star": TaitGraph(
        5,
        [TaitEdge(0, 1, -1), TaitEdge(2, 0, 1), TaitEdge(0, 3, 1), TaitEdge(0, 4, -1)],
    ),
    "pendant": TaitGraph(
        4,
        [TaitEdge(0, 1, 1), TaitEdge(2, 3, -1), TaitEdge(1, 2, -1), TaitEdge(2, 0, 1)],
    ),
}


def setup(word):
    front = parse_front(word)
    return front, front.desingularize(), tait_graph(front)


def both_colorings(front):
    return tait_graph(front), tait_graph(front, reverse=True)


def trees_of(g):
    return [rec.tree for rec in labelled_trees(g)]


class TestEnumeration:
    def test_trefoil_trees(self):
        _, _, g = setup(TREFOIL)
        assert trees_of(g) == [
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({1, 2}),
        ]

    def test_unknot_single_empty_tree(self):
        _, _, g = setup("L1 R1")
        assert trees_of(g) == [frozenset()]

    def test_count_matches_matrix_tree(self):
        for word in (TREFOIL, "L1 L2 X1 R2 R1", "L1 L2 X1 X1 R2 R1"):
            _, _, g = setup(word)
            assert len(trees_of(g)) == matrix_tree_count(g)

    @settings(max_examples=40, deadline=None)
    @given(front_words())
    def test_count_matches_matrix_tree_random(self, front):
        g = tait_graph(front)
        assert len(trees_of(g)) == matrix_tree_count(g)

    @settings(max_examples=100, deadline=None)
    @given(front_words(max_crossings=12))
    def test_lists_every_spanning_subset_once(self, front):
        # the listing against a search over all edge subsets, on both
        # colorings
        for g in both_colorings(front):
            listed = trees_of(g)
            assert len(set(listed)) == len(listed)
            assert set(listed) == brute_force_trees(g)

    @pytest.mark.parametrize("name", BRIDGED)
    def test_bridges_go_through_the_sweep(self, name):
        # the sweep's rule labels a bridge of G as a bridge of its minor:
        # the trees, their labels and their counts against the references
        g = BRIDGED[name]
        recs = list(labelled_trees(g))
        assert len({rec.tree for rec in recs}) == len(recs)
        assert {rec.tree for rec in recs} == brute_force_trees(g)
        for rec in recs:
            assert rec == classify_activities(g, rec.tree)
        assert bigrading_counts(g) == dict(Counter((rec.u, rec.v) for rec in recs))

    def test_disconnected_graph(self):
        with pytest.raises(Disconnected):
            trees_of(TaitGraph(2, []))

    def test_not_a_spanning_tree(self):
        _, _, g = setup(TREFOIL)
        with pytest.raises(NotASpanningTree):
            _validate_tree(g, frozenset({0}))
        with pytest.raises(NotASpanningTree):
            _validate_tree(g, frozenset({0, 1, 2}))
        # two Hopf clasps: V - 1 = 2 edges, but edges 0 and 1 are parallel
        _, _, g = setup("L1 L2 X1 X1 R2 L2 X1 X1 R2 R1")
        assert g.n_vertices == 3
        with pytest.raises(NotASpanningTree):
            _validate_tree(g, frozenset({0, 1}))


class TestBigradingCounts:
    @settings(max_examples=100, deadline=None)
    @given(front_words(max_crossings=8))
    def test_counts_match_enumeration(self, front):
        # the counts summed over the sweep against the (u, v) of the
        # listed trees, on both colorings
        for g in both_colorings(front):
            enumerated = Counter((rec.u, rec.v) for rec in labelled_trees(g))
            assert bigrading_counts(g) == dict(enumerated)

    @settings(max_examples=100, deadline=None)
    @given(front_words(max_crossings=10))
    def test_colorings_give_one_distribution(self, front):
        # the dual swap L<->lb, D<->db, l<->Lb, d<->Db keeps u and v, and
        # the reversed coloring's graph is the dual: no enumeration needed
        g, gr = both_colorings(front)
        assert bigrading_counts(g) == bigrading_counts(gr)

    def test_disconnected_graph(self):
        with pytest.raises(Disconnected):
            bigrading_counts(TaitGraph(2, []))


#: graphs that are not connected: two vertices, a loop beside a vertex
#: with no edge, and no vertex at all
SPLIT = [TaitGraph(2, []), TaitGraph(2, [TaitEdge(1, 1, 1)]), TaitGraph(0, [])]


class TestEdgeChecks:
    """The census checks each edge of a library graph before it plans its
    sweep: an end that is no vertex would index past the union-find (or,
    at -1, from its back), and a sign that is not +-1 would be counted as
    positive.  The plan's union-find then refuses a graph that is not
    connected."""

    @pytest.mark.parametrize("census", [bigrading_counts, trees_of])
    @pytest.mark.parametrize(
        "edge", [TaitEdge(0, 5, 1), TaitEdge(-1, 0, 1), TaitEdge(0, 1, 2)]
    )
    def test_edge_off_the_graph_is_refused(self, edge, census):
        g = TaitGraph(2, [TaitEdge(0, 1, 1), edge])
        with pytest.raises(ValueError, match=re.escape(f"edge 1 {edge!r}")):
            census(g)

    def test_edge_check_survives_optimize(self):
        code = (
            "from khfront import TaitGraph, bigrading_counts\n"
            "from khfront.tait import TaitEdge\n"
            "try:\n"
            "    bigrading_counts(TaitGraph(2, [TaitEdge(0, 5, 1)]))\n"
            "except ValueError as exc:\n"
            "    raise SystemExit(0 if str(exc).startswith('edge 0') else 1)\n"
            "raise SystemExit(1)\n"
        )
        proc = run_optimized("-c", code, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("census", [bigrading_counts, trees_of])
    @pytest.mark.parametrize("g", SPLIT, ids=["two-vertices", "loop", "empty"])
    def test_split_graph_is_refused(self, g, census):
        with pytest.raises(Disconnected, match="graph is not connected"):
            census(g)

    def test_split_graph_is_refused_under_optimize(self):
        code = (
            "from khfront import (Disconnected, TaitGraph, bigrading_counts,\n"
            "                     labelled_trees)\n"
            "from khfront.tait import TaitEdge\n"
            "for g in (TaitGraph(2, []), TaitGraph(2, [TaitEdge(1, 1, 1)]),\n"
            "          TaitGraph(0, [])):\n"
            "    for census in (bigrading_counts, labelled_trees):\n"
            "        try:\n"
            "            list(census(g))\n"
            "        except Disconnected:\n"
            "            continue\n"
            "        raise SystemExit(1)\n"
        )
        proc = run_optimized("-c", code, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestActivities:
    def test_trefoil_labels(self):
        front, _, g = setup(TREFOIL)
        recs = {tuple(sorted(rec.tree)): rec for rec in labelled_trees(g, front)}
        assert recs[(0, 1)].labels == {0: "L", 1: "L", 2: "d"}
        assert recs[(0, 2)].labels == {0: "L", 1: "d", 2: "D"}
        assert recs[(1, 2)].labels == {0: "l", 1: "D", 2: "D"}
        assert [recs[k].u for k in sorted(recs)] == [2, 1, -1]
        assert all(r.v == 2 for r in recs.values())
        assert recs[(1, 2)].class_ == "good"

    @settings(max_examples=100, deadline=None)
    @given(front_words(max_crossings=8))
    def test_pass_matches_classify_activities(self, front):
        # the listing's labels against the per-edge union-find
        # reference, on both colorings
        for g in both_colorings(front):
            recs = list(labelled_trees(g, front))
            keys = [sorted(rec.tree) for rec in recs]
            assert keys == sorted(keys)
            assert len(set(map(tuple, keys))) == len(recs) == matrix_tree_count(g)
            for rec in recs:
                assert rec == classify_activities(g, rec.tree, front)

    @settings(max_examples=60, deadline=None)
    @given(front_words(max_crossings=6))
    def test_classify_activities_matches_basis_exchange(self, front):
        # a third characterization, on both colorings: f is in the cut of
        # tree edge e, and e in the cycle of f outside T, exactly when
        # T - e + f is a spanning tree; an edge is active when it is the
        # lowest of its set
        for g in both_colorings(front):
            edges = range(len(g.edges))
            for tree in trees_of(g):

                def exchanges(e, f):
                    try:
                        _validate_tree(g, tree - {e} | {f})
                    except NotASpanningTree:
                        return False
                    return True

                expected = {}
                for i in edges:
                    if i in tree:
                        active = min(f for f in edges if exchanges(i, f)) == i
                        label = "L" if active else "D"
                    else:
                        active = all(e > i for e in tree if exchanges(e, i))
                        label = "l" if active else "d"
                    expected[i] = label + ("b" if g.edges[i].sign < 0 else "")
                assert classify_activities(g, tree).labels == expected

    def test_good_bad_mutually_exclusive(self):
        front, _, g = setup(TREFOIL)
        for rec in labelled_trees(g, front):
            assert rec.class_ in ("good", "bad", "neither")

    @settings(max_examples=40, deadline=None)
    @given(front_words())
    def test_u_v_from_label_counts(self, front):
        g = tait_graph(front)
        for rec in labelled_trees(g):
            assert rec.u == (
                rec.count("L") - rec.count("l") - rec.count("Lb") + rec.count("lb")
            )
            assert rec.v == (
                rec.count("L") + rec.count("D") + rec.count("lb") + rec.count("db")
            )


class TestBigradings:
    def test_trefoil_generator_pairs(self):
        front, d, g = setup(TREFOIL)
        pairs = set()
        for rec in labelled_trees(g, front):
            pairs.update(generator_ij(rec.u, rec.v, d.n, d.writhe()))
        assert pairs == {(3, 7), (3, 9), (2, 5), (2, 7), (0, 1), (0, 3)}

    def test_unknot_generators(self):
        front, d, g = setup("L1 R1")
        (rec,) = labelled_trees(g, front)
        assert generator_ij(rec.u, rec.v, d.n, d.writhe()) == ((0, -1), (0, 1))

    @settings(max_examples=40, deadline=None)
    @given(front_words())
    def test_delta_of_generators(self, front):
        # each tree's generators sit at j - i = u + w -+ 1
        d = front.desingularize()
        w = d.writhe()
        g = tait_graph(front)
        for rec in labelled_trees(g):
            (i1, j1), (i2, j2) = generator_ij(rec.u, rec.v, d.n, w)
            assert j1 - i1 == rec.u + w - 1
            assert j2 - i2 == rec.u + w + 1

    def test_crossings_and_writhe_of_different_parity(self):
        with pytest.raises(ParityViolation):
            generator_ij(0, 0, 3, 2)


class TestDualTrees:
    @settings(max_examples=40, deadline=None)
    @given(front_words())
    def test_label_swap_table(self, front):
        # the complement of a tree is a tree of the other coloring's
        # graph, which is the dual
        g, gr = both_colorings(front)
        for t in trees_of(g):
            dual, pairs = dual_tree(g, gr, t)  # raises unless labels swap
            assert dual == frozenset(range(len(g.edges))) - t
            for lab, dlab in pairs.values():
                assert dlab == DUAL_LABEL[lab]

    def test_label_swap_check_raises(self, monkeypatch):
        g, gr = both_colorings(parse_front(TREFOIL))
        monkeypatch.setattr(tree_reference, "DUAL_LABEL", {k: "d" for k in DUAL_LABEL})
        with pytest.raises(ConventionError):
            dual_tree(g, gr, frozenset({0, 1}))

    def test_dual_label_involution(self):
        assert all(DUAL_LABEL[DUAL_LABEL[k]] == k for k in DUAL_LABEL)


class TestSplicing:
    @settings(max_examples=40, deadline=None)
    @given(front_words())
    def test_front_splice_cusp_count(self, front):
        # splicing the inactive crossings leaves a one-component unknot
        # whose writhe is -u, on knots and links alike
        g = tait_graph(front)
        for rec in labelled_trees(g, front):
            f_t, tb_t, c_t = splice_front(front, rec)
            unknot = f_t.desingularize()
            assert unknot.component_count() == 1
            assert unknot.writhe() == -rec.u
            assert c_t == front.cusp_count + rec.count("d") + rec.count("Db")
            assert tb_t == -rec.u - c_t


class TestMinXTree:
    def test_trefoil_min_x(self):
        # the greedy tree is the lexicographically first, so the listing
        # starts with it
        _, _, g = setup(TREFOIL)
        assert min_x_tree(g) == next(labelled_trees(g)).tree == frozenset({0, 1})

    def test_alternating_min_x_is_good(self):
        # on an alternating front, the x-minimal tree of the all-negative
        # Tait graph is good, and every tree has the same v
        word = "L1 L2 X1 X1 X1 R2 L2 X1 X1 X1 R2 R1"
        front = parse_front(word)
        g = next(
            g for g in both_colorings(front) if all(e.sign < 0 for e in g.edges)
        )
        assert classify_activities(g, min_x_tree(g), front).class_ == "good"
        assert len({rec.v for rec in labelled_trees(g)}) == 1


class TestEulerCharacteristic:
    def test_trefoil(self):
        _, d, g = setup(TREFOIL)
        poly = tree_euler_characteristic(g, d.n, d.writhe())
        assert dict(poly.items()) == {1: 1, 3: 1, 5: 1, 9: -1}

    def test_crossings_and_writhe_of_different_parity(self):
        _, _, g = setup(TREFOIL)
        with pytest.raises(ParityViolation):
            tree_euler_characteristic(g, 3, 2)

    def test_equals_jones_at_scale(self):
        # tree census against the Jones sweep, both far past the 2^n state
        # sum: T(3, 100), T(2, 301), a sum of 20 trefoils and a chain of
        # 540 kinks, which is an unknot
        unknot = LaurentPoly({-1: 1, 1: 1})
        trefoil = LaurentPoly({2: 1, 6: 1, 8: -1})
        cases = [
            ("L1 L2 L3 " + "X1 X2 " * 100 + "R3 R2 R1", None),
            ("L1 L2 " + "X1 " * 301 + "R2 R1", None),
            ("L1 " + "L2 X1 X1 X1 R2 " * 20 + "R1", unknot * trefoil**20),
            ("L1 " + "L2 X1 R2 " * 540 + "R1", unknot),
        ]
        start = time.perf_counter()
        for word, known in cases:
            _, d, g = setup(word)
            tree_side = tree_euler_characteristic(g, d.n, d.writhe())
            assert tree_side == kauffman_jones(d, max_crossings=d.n), word[:20]
            assert known is None or tree_side == known
        elapsed = time.perf_counter() - start
        assert elapsed < 2, f"{elapsed:.2f}s"
