"""Tait graphs read off a front's gaps, against the face-walk reference."""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tait_reference
from khfront import (
    BUNDLED,
    Disconnected,
    TaitGraph,
    bigrading_counts,
    kauffman_jones,
    parse_front,
    tait_graph,
    tree_euler_characteristic,
)
from khfront.tait import TaitEdge

from conftest import front_words, run_optimized
from link_diagram import LinkDiagram, desingularize
from pd_codec import from_pd, to_pd, white_corner
from tait_reference import (
    CORNER_AT,
    black_faces,
    face_of_corner,
    face_walk_graphs,
    front_corner,
    plane_connected,
    renumbered,
)

TREFOIL = "L1 L2 X1 X1 X1 R2 R1"


def graphs_of(front):
    return tait_graph(front), tait_graph(front, reverse=True)


class TestReferenceColoring:
    @settings(max_examples=50, deadline=None)
    @given(front_words())
    def test_adjacent_faces_differ(self, front):
        d = desingularize(front)
        if d.n:
            face = face_of_corner(d)
            black = black_faces(d, front_corner(front))
            for a, b in d.arcs:
                assert black[face[a]] != black[face[b]]

    @settings(max_examples=100, deadline=None)
    @given(front_words(max_crossings=8))
    def test_white_corners_follow_strand_parity(self, front):
        # the gap below the k-th strand is white exactly when k is even,
        # so crossing X p has its N corner (the gap below strand p - 1)
        # white exactly when p is odd
        d = desingularize(front)
        positions = [pos for kind, pos in front.events if kind == "X"]
        if positions:
            face = face_of_corner(d)
            black = black_faces(d, front_corner(front))
            north = CORNER_AT.index("N")
            for c, pos in enumerate(positions):
                assert (not black[face[4 * c + north]]) == (pos % 2 == 1)

    def test_faces_that_are_not_two_colorable(self):
        # one crossing whose two strands close up across each other: the
        # map lies on a torus, with one face on both sides of every arc
        d = LinkDiagram(1, [(1, 3), (0, 2)])
        assert set(face_of_corner(d)) == {0}
        with pytest.raises(ValueError, match="not 2-colorable"):
            black_faces(d, 0)

    def test_free_loops_must_not_be_negative(self):
        with pytest.raises(ValueError, match="free_loops -1 is negative"):
            LinkDiagram(0, [], free_loops=-1)


class TestTaitGraph:
    def test_trefoil_canonical_is_positive_triangle(self):
        g, _ = graphs_of(parse_front(TREFOIL))
        assert g.edges == [TaitEdge(0, 1, 1), TaitEdge(1, 2, 1), TaitEdge(2, 0, 1)]

    def test_trefoil_reversed_is_negative_theta(self):
        _, g = graphs_of(parse_front(TREFOIL))
        assert g.n_vertices == 2
        assert g.edges == [TaitEdge(0, 1, -1)] * 3

    def test_unknot_has_one_face_of_each_color(self):
        for g in graphs_of(parse_front("L1 R1")):
            assert (g.n_vertices, g.edges) == (1, [])

    @settings(max_examples=150, deadline=None)
    @given(front_words(max_crossings=10, max_cusp_pairs=4))
    @example(parse_front("L1 R1"))
    @example(parse_front("L1 L1 L3 X2 X4 X4 X5 X3 X5 X4 X3 X5 R2 R2 R1"))
    def test_sweep_equals_the_face_walks(self, front):
        # edge for edge, with equal signs and with ends equal once both
        # graphs' vertices are numbered in order of first appearance, on
        # both colorings
        reference = face_walk_graphs(desingularize(front), front_corner(front))
        for g, ref in zip(graphs_of(front), reference):
            assert renumbered(g) == (g.n_vertices, g.edges) == renumbered(ref)

    def test_signs_swap_under_reversal(self):
        g, gr = graphs_of(parse_front(TREFOIL))
        assert [e.sign for e in gr.edges] == [-e.sign for e in g.edges]

    @settings(max_examples=50, deadline=None)
    @given(front_words())
    def test_vertices_plus_edges_match_crossings(self, front):
        # the black faces of one coloring are the white faces of the
        # other, and a connected diagram has n + 2 faces
        n = front.n
        g, gr = graphs_of(front)
        assert len(g.edges) == len(gr.edges) == n
        assert g.n_vertices + gr.n_vertices == n + 2

    @settings(max_examples=50, deadline=None)
    @given(front_words())
    def test_pd_import_coloring(self, front):
        # a PD import carries no front: the codec seeds the reference's
        # coloring at a corner of a face with the most corners
        d2, _ = from_pd(to_pd(desingularize(front)))
        if d2.n:
            face = face_of_corner(d2)
            black = black_faces(d2, white_corner(d2))
            for a, b in d2.arcs:
                assert black[face[a]] != black[face[b]]
        g, gr = face_walk_graphs(d2, white_corner(d2))
        assert len(g.edges) == len(gr.edges) == d2.n
        assert g.n_vertices + gr.n_vertices == d2.n + 2

    @pytest.mark.parametrize("word", ["L1 R1 L1 R1", "L1 L1 R1 R1"])
    def test_face_count_of_a_split_front(self, word):
        # two loops, side by side or nested, make three faces for no
        # crossing, one more than a connected front has
        front = parse_front(word)
        for reverse in (False, True):
            with pytest.raises(Disconnected, match="not connected as a plane"):
                tait_graph(front, reverse)

    @settings(max_examples=300, deadline=None)
    @given(front_words(max_crossings=6, connected=False))
    @example(parse_front("L1 R1 L1 R1"))
    @example(parse_front("L1 L1 R1 R1"))
    @example(parse_front("L1 L2 X1 X1 R2 R1 L1 R1"))
    @example(parse_front("L1 L1 L3 X2 X2 R3 R2 R1"))
    @example(parse_front(TREFOIL))
    def test_face_count_is_plane_connectivity(self, front):
        # the sweep's face count against the reference's search along the
        # arcs, on split fronts as well as connected ones
        split = not plane_connected(desingularize(front))
        for reverse in (False, True):
            try:
                tait_graph(front, reverse)
            except Disconnected:
                assert split
            else:
                assert not split

    def test_reference_shares_no_code_with_the_sweep(self):
        # the sweep is checked against the reference only as long as the
        # reference names nothing of it
        sweep = {"tait_graph", "_find"}
        names = set(vars(tait_reference))
        codes = [
            f.__code__
            for f in vars(tait_reference).values()
            if hasattr(f, "__code__")
        ]
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            codes += [k for k in code.co_consts if isinstance(k, type(code))]
        assert "mate" in names  # the walk reached the bodies
        assert not names & sweep


#: the bundled words and a link on which the x-order leaves the census
#: inconclusive
ORDER_WORDS = [e.word for e in BUNDLED] + [
    "L1 L1 L3 X2 X4 X4 X5 X3 X5 X4 X3 X5 R2 R2 R1"
]


class TestEdgeOrder:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("word", ORDER_WORDS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_permuted_edges_keep_the_census(self, word, reverse, data):
        # moving edge j to place perm[j] is a permutation of the edge
        # list; the tree count and the graded Euler characteristic do not
        # depend on the order
        front = parse_front(word)
        n = front.n
        g = tait_graph(front, reverse)
        perm = data.draw(st.permutations(range(n)))
        inv = sorted(range(n), key=perm.__getitem__)
        h = TaitGraph(g.n_vertices, [g.edges[inv[j]] for j in range(n)])
        assert [h.edges[perm[j]] for j in range(n)] == g.edges
        assert sum(bigrading_counts(h).values()) == sum(bigrading_counts(g).values())
        euler = tree_euler_characteristic(h, n, front.writhe)
        assert euler == kauffman_jones(front)


class TestTripwires:
    def test_front_checks_survive_optimize(self):
        # the strand sweep that builds a front raises NonzeroEndState
        # for a word that leaves strands open and MalformedToken for a
        # position that is a bool (bad input); two loops side by side are
        # a legal front, but make three faces for no crossing, which the
        # Tait sweep refuses with Disconnected, under python -O as well
        code = (
            "from khfront import (Disconnected, FrontDiagram, MalformedToken,\n"
            "                     NonzeroEndState, tait_graph)\n"
            "split = FrontDiagram((('L', 1), ('R', 1)) * 2)\n"
            "checks = (\n"
            "    (lambda: FrontDiagram((('L', 1),)), NonzeroEndState),\n"
            "    (lambda: FrontDiagram((('L', True), ('R', True))), MalformedToken),\n"
            "    (lambda: tait_graph(split), Disconnected),\n"
            ")\n"
            "for check, expected in checks:\n"
            "    try:\n"
            "        check()\n"
            "    except expected:\n"
            "        continue\n"
            "    raise SystemExit(1)\n"
        )
        proc = run_optimized("-c", code, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_diagram_checks_survive_optimize(self):
        # a port used twice, a port on no arc, a wrong arc count, and a
        # negative count of free loops, in the reference diagram
        tests = str(Path(__file__).resolve().parent)
        code = (
            f"import sys; sys.path.insert(0, {tests!r})\n"
            "from link_diagram import LinkDiagram\n"
            "checks = (\n"
            "    lambda: LinkDiagram(1, [(0, 1), (0, 2)]),\n"
            "    lambda: LinkDiagram(1, [(0, 1), (2, 7)]),\n"
            "    lambda: LinkDiagram(1, [(0, 1)]),\n"
            "    lambda: LinkDiagram(0, [], free_loops=-1),\n"
            ")\n"
            "for check in checks:\n"
            "    try:\n"
            "        check()\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise SystemExit(1)\n"
        )
        proc = run_optimized("-c", code, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_census_sweep_check_survives_optimize(self):
        # the counting sweep on the plan of the path 0 - 1 - 2 with its top
        # edge, a bridge, marked as not apart: its deleted branch leaves
        # vertex 2's class off the frontier while an edge remains
        code = (
            "from khfront import ConventionError\n"
            "from khfront.trees import _plan, _sweep\n"
            "plan = _plan([(0, 1), (1, 2)], 3)\n"
            "plan[1] = plan[1][:-1] + (False,)\n"
            "try:\n"
            "    _sweep(plan, [False, False])\n"
            "except ConventionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        proc = run_optimized("-c", code, timeout=60)
        assert proc.returncode == 0, proc.stderr
