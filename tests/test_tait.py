"""Checkerboard colorings, Tait graphs, rotation systems, duality."""

import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khfront import (
    BUNDLED,
    ConventionError,
    LinkDiagram,
    NonplanarRotation,
    TaitGraph,
    bigrading_counts,
    checkerboard,
    dual_graph,
    kauffman_jones,
    parse_front,
    tait_graph,
    tree_euler_characteristic,
)
from khfront.diagram import CORNER_AT

from conftest import front_words, run_optimized
from pd_codec import from_pd, to_pd

TREFOIL = "L1 L2 X1 X1 X1 R2 R1"


def graphs_of(word):
    d = parse_front(word).desingularize()
    canonical, rev = checkerboard(d)
    return d, tait_graph(d, canonical), tait_graph(d, rev)


def edge_darts(g):
    """Each edge's listed darts, lower port first, read off the rotation
    by crossing (port x is on crossing x >> 2)."""
    darts = [[] for _ in g.edges]
    for x in sorted(x for cyc in g.rotation for x in cyc):
        darts[x >> 2].append(x)
    return darts


def clockwise(x):
    """The port clockwise from port x at its crossing."""
    return (x & ~3) | ((x + 1) & 3)


def brute_force_match(g, h):
    """Reference for ``matched_to``: try every vertex bijection."""
    if g.n_vertices != h.n_vertices or [e.sign for e in g.edges] != [
        e.sign for e in h.edges
    ]:
        return False

    def same_cyclic(a, b):
        return len(a) == len(b) and (
            not a or any(b[k:] + b[:k] == a for k in range(len(b)))
        )

    for perm in permutations(range(h.n_vertices)):
        if all(
            same_cyclic(g.rotation[v], h.rotation[perm[v]])
            for v in range(g.n_vertices)
        ) and all(
            {perm[e.u], perm[e.v]} == {oe.u, oe.v} for e, oe in zip(g.edges, h.edges)
        ):
            return True
    return False


def perturbed(g, v, i, j):
    """Copies of g with the rotation at v reversed, and with darts i and j
    of that rotation swapped."""
    reversed_at_v = [cyc[::-1] if w == v else cyc for w, cyc in enumerate(g.rotation)]
    swapped = [list(cyc) for cyc in g.rotation]
    swapped[v][i], swapped[v][j] = swapped[v][j], swapped[v][i]
    return [TaitGraph(reversed_at_v), TaitGraph(swapped)]


def matching_outcomes(pairs):
    """``matched_to`` on each pair, after checking it against the
    brute-force reference."""
    out = []
    for a, b in pairs:
        assert a.n_vertices <= 6
        matched = a.matched_to(b)
        assert matched == brute_force_match(a, b)
        out.append(matched)
    return out


class TestColoring:
    def test_unknot_two_faces(self):
        d = parse_front("L1 R1").desingularize()
        canonical, rev = checkerboard(d)
        assert canonical | rev == {0, 1}  # the sphere's two faces
        assert len(canonical) == 1
        assert canonical != rev

    def test_coloring_partitions_faces(self):
        d = parse_front(TREFOIL).desingularize()
        canonical, rev = checkerboard(d)
        all_faces = set(range(len(d.face_walks)))
        assert canonical | rev == all_faces
        assert canonical & rev == set()

    @settings(max_examples=50, deadline=None)
    @given(front_words())
    def test_adjacent_faces_differ(self, front):
        d = front.desingularize()
        canonical, _ = checkerboard(d)
        for a, b in d.arcs:
            fa, fb = d.face_of_corner[a], d.face_of_corner[b]
            assert (fa in canonical) != (fb in canonical)

    @settings(max_examples=100, deadline=None)
    @given(front_words(max_crossings=8))
    def test_white_corners_follow_strand_parity(self, front):
        # the gap below the k-th strand is white exactly when k is even,
        # so crossing X p has its N corner (the gap below strand p - 1)
        # white exactly when p is odd
        d = front.desingularize()
        canonical, _ = checkerboard(d)
        positions = [pos for kind, pos in front.events if kind == "X"]
        north = CORNER_AT.index("N")
        for c, pos in enumerate(positions):
            white = d.face_of_corner[4 * c + north] not in canonical
            assert white == (pos % 2 == 1)


    def test_faces_that_are_not_two_colorable(self):
        # one crossing whose two strands close up across each other: the
        # map lies on a torus, with one face on both sides of every arc
        d = LinkDiagram(1, [(1, 3), (0, 2)], white_corner=0)
        assert len(d.face_walks) == 1
        with pytest.raises(ConventionError, match="not 2-colorable"):
            checkerboard(d)

    def test_crossings_without_a_white_corner(self):
        # a kink whose diagram records no corner to seed the coloring at
        d = LinkDiagram(1, [(0, 3), (1, 2)])
        with pytest.raises(ValueError, match="white_corner"):
            checkerboard(d)

    @pytest.mark.parametrize("corner", [7, -1])
    def test_white_corner_must_be_a_port(self, corner):
        # a kink has ports 0-3: port 7 would index past the face list, and
        # -1 would seed the coloring at port 3
        with pytest.raises(ValueError, match=f"white_corner {corner} is no port"):
            LinkDiagram(1, [(0, 3), (1, 2)], white_corner=corner)

    def test_free_loops_must_not_be_negative(self):
        with pytest.raises(ValueError, match="free_loops -1 is negative"):
            LinkDiagram(0, [], free_loops=-1)


class TestTaitGraph:
    def test_trefoil_canonical_is_positive_triangle(self):
        _, g, _ = graphs_of(TREFOIL)
        assert g.n_vertices == 3
        assert [e.sign for e in g.edges] == [1, 1, 1]
        assert {frozenset((e.u, e.v)) for e in g.edges} == {
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({1, 2}),
        }

    def test_trefoil_reversed_is_negative_theta(self):
        _, _, g = graphs_of(TREFOIL)
        assert g.n_vertices == 2
        assert [e.sign for e in g.edges] == [-1, -1, -1]

    def test_edge_order_is_crossing_order(self):
        # edge i joins the black faces at crossing i's W and E corners
        # (ports 4i, 4i + 2) when positive, at N and S (4i + 1, 4i + 3)
        # when negative
        d = parse_front(TREFOIL).desingularize()
        for black in checkerboard(d):
            g = tait_graph(d, black)
            vertex = {f: v for v, f in enumerate(sorted(black))}
            assert len(g.edges) == d.n
            for i, e in enumerate(g.edges):
                x = 4 * i + (e.sign < 0)
                assert (e.u, e.v) == (
                    vertex[d.face_of_corner[x]],
                    vertex[d.face_of_corner[x + 2]],
                )

    def test_trefoil_rotation_is_in_ports(self):
        d = parse_front(TREFOIL).desingularize()
        canonical, _ = checkerboard(d)
        assert tait_graph(d, canonical).rotation == [[4, 2], [8, 6], [10, 0]]

    @settings(max_examples=50, deadline=None)
    @given(front_words())
    def test_darts_are_the_diagrams_ports(self, front):
        # the v-th vertex turns like the v-th black face's walk, and edge
        # i's darts x, x ^ 2 sit at its u and v; the dual's darts are the
        # ports clockwise from them, the white corners, so it is the other
        # coloring's graph dart for dart
        d = front.desingularize()
        for diagram in (d, from_pd(to_pd(d))[0]):
            colorings = checkerboard(diagram)
            graphs = [tait_graph(diagram, black) for black in colorings]
            for black, g, other in zip(colorings, graphs, graphs[::-1]):
                if diagram.n:
                    walks = diagram.face_walks
                    assert g.rotation == [walks[f] for f in sorted(black)]
                gd = dual_graph(g)
                assert edge_darts(gd) == [
                    sorted(map(clockwise, darts)) for darts in edge_darts(g)
                ]
                assert gd.matched_to(other) and other.matched_to(gd)
                for h in (g, gd):
                    vertex = {x: v for v, cyc in enumerate(h.rotation) for x in cyc}
                    for (x, y), e in zip(edge_darts(h), h.edges):
                        assert y == x ^ 2
                        assert (vertex[x], vertex[y]) == (e.u, e.v)

    def test_non_checkerboard_quadrants(self):
        # every face black lists all 12 ports of the trefoil's crossings:
        # as 6 edges, edges 3 to 5 have no dart
        d = parse_front(TREFOIL).desingularize()
        every_face = frozenset(range(len(d.face_walks)))
        with pytest.raises(ConventionError, match="edge 3: darts are no pair"):
            tait_graph(d, every_face)

    def test_black_corner_off_the_edge_ends(self):
        # a kink with its W corner, its E corner and its N and S corners
        # in three faces.  Black N, S and E list three darts, so E is no
        # end of the N-S edge
        d = LinkDiagram(1, [(0, 3), (1, 2)])
        w, n, e, s = d.face_of_corner
        assert n == s and len({w, n, e}) == 3
        with pytest.raises(ConventionError, match="odd number of darts"):
            tait_graph(d, frozenset({n, e}))

    def test_signs_swap_under_reversal(self):
        _, g, gr = graphs_of(TREFOIL)
        assert [e.sign for e in gr.edges] == [-e.sign for e in g.edges]

    @settings(max_examples=50, deadline=None)
    @given(front_words())
    def test_vertices_plus_edges_match_crossings(self, front):
        d = front.desingularize()
        canonical, rev = checkerboard(d)
        g, gr = tait_graph(d, canonical), tait_graph(d, rev)
        assert len(g.edges) == len(gr.edges) == d.n
        # black + white face counts add up to all faces
        assert g.n_vertices + gr.n_vertices == max(len(d.face_walks), 2)

    @settings(max_examples=50, deadline=None)
    @given(front_words())
    def test_pd_import_coloring(self, front):
        # PD imports carry no white corner from the sweep: the codec seeds
        # the search at a corner of the longest boundary walk
        d = front.desingularize()
        d2, _ = from_pd(to_pd(d))
        canonical, rev = checkerboard(d2)
        for a, b in d2.arcs:
            fa, fb = d2.face_of_corner[a], d2.face_of_corner[b]
            assert (fa in canonical) != (fb in canonical)
        g, gr = tait_graph(d2, canonical), tait_graph(d2, rev)
        assert len(g.edges) == len(gr.edges) == d.n
        assert g.n_vertices + gr.n_vertices == max(len(d2.face_walks), 2)

    @settings(max_examples=50, deadline=None)
    @given(front_words())
    def test_rotation_satisfies_euler(self, front):
        d = front.desingularize()
        canonical, _ = checkerboard(d)
        g = tait_graph(d, canonical)
        assert g.n_vertices - len(g.edges) + len(g.face_orbits()) == 2


#: the bundled words and a link on which the x-order leaves the census
#: inconclusive
ORDER_WORDS = [e.word for e in BUNDLED] + [
    "L1 L1 L3 X2 X4 X4 X5 X3 X5 X4 X3 X5 R2 R2 R1"
]


class TestEdgeOrder:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(ORDER_WORDS), st.integers(0, 1), st.data())
    def test_renumbered_darts_reorder_the_edges(self, word, side, data):
        # moving crossing j's darts to crossing perm[j] moves edge j to
        # place perm[j]; the tree count and the graded Euler
        # characteristic do not depend on the order
        d = parse_front(word).desingularize()
        g = tait_graph(d, checkerboard(d)[side])
        perm = data.draw(st.permutations(range(d.n)))
        h = TaitGraph([[4 * perm[x >> 2] + (x & 3) for x in cyc] for cyc in g.rotation])
        assert [h.edges[perm[j]] for j in range(d.n)] == g.edges
        assert sum(bigrading_counts(h).values()) == sum(bigrading_counts(g).values())
        assert tree_euler_characteristic(h, d.n, d.writhe()) == kauffman_jones(d)


class TestDuality:
    def test_double_dual_identity(self):
        _, g, _ = graphs_of(TREFOIL)
        assert dual_graph(dual_graph(g)).matched_to(g)

    def test_dual_flips_signs_keeps_order(self):
        # edge i keeps its index and takes the ports clockwise from its
        # darts: W, E (4i, 4i + 2) go to N, S and N, S to E, W
        _, g, _ = graphs_of(TREFOIL)
        gd = dual_graph(g)
        assert [ed.sign for ed in gd.edges] == [-e.sign for e in g.edges]
        assert edge_darts(g) == [[4 * i, 4 * i + 2] for i in range(3)]
        assert edge_darts(gd) == [[4 * i + 1, 4 * i + 3] for i in range(3)]
        assert edge_darts(dual_graph(gd)) == edge_darts(g)

    def test_dual_of_canonical_matches_reversed_coloring(self):
        _, g, gr = graphs_of(TREFOIL)
        assert dual_graph(g).matched_to(gr) and gr.matched_to(dual_graph(g))
        assert dual_graph(gr).matched_to(g)

    @settings(max_examples=100, deadline=None)
    @given(front_words(max_crossings=8))
    def test_duality_properties_random(self, front):
        # on both colorings of a front and of its PD re-import, the dual
        # is the other coloring's graph, both ways, and the double dual
        # the graph itself
        d = front.desingularize()
        for diagram in (d, from_pd(to_pd(d))[0]):
            g, gr = (tait_graph(diagram, col) for col in checkerboard(diagram))
            for a, b in ((g, gr), (gr, g)):
                ad = dual_graph(a)
                assert ad.matched_to(b) and b.matched_to(ad)
                assert dual_graph(ad).matched_to(a)
                assert [e.sign for e in ad.edges] == [-e.sign for e in a.edges]

    def test_interleaved_loops_have_no_dual(self):
        # two loops whose ends alternate around the one vertex: V - E + F
        # is 1 - 2 + 1 = 0, so the rotation is not planar
        g = TaitGraph([[0, 4, 2, 6]])
        with pytest.raises(NonplanarRotation):
            dual_graph(g)


    def test_isomorphism_of_1200_crossing_twist(self):
        # the matching keeps no recursion depth per vertex
        d = parse_front("L1 L2 " + "X1 " * 1200 + "R2 R1").desingularize()
        canonical, rev = checkerboard(d)
        start = time.monotonic()
        assert dual_graph(tait_graph(d, rev)).matched_to(tait_graph(d, canonical))
        assert time.monotonic() - start < 5


class TestMatchingReference:
    @settings(max_examples=100, deadline=None)
    @given(front_words(max_crossings=4), st.data())
    def test_matching_agrees_with_brute_force(self, front, data):
        d = front.desingularize()
        g, gr = (tait_graph(d, coloring) for coloring in checkerboard(d))
        pairs = [
            (dual_graph(dual_graph(g)), g),
            (dual_graph(g), gr),
            (dual_graph(gr), g),
        ]
        for h in (g, gr):
            long = [v for v, cyc in enumerate(h.rotation) if len(cyc) >= 2]
            if not long:
                continue
            v = data.draw(st.sampled_from(long))
            i, j = data.draw(
                st.lists(
                    st.integers(0, len(h.rotation[v]) - 1),
                    min_size=2,
                    max_size=2,
                    unique=True,
                )
            )
            pairs += [(p, h) for p in perturbed(h, v, i, j)]
        matching_outcomes(pairs)

    def test_both_comparisons_can_fail(self):
        pairs = []
        for word in (TREFOIL, "L1 L2 X1 R2 R1", "L1 L2 X1 X1 R2 L2 X1 X1 R2 R1"):
            _, g, gr = graphs_of(word)
            pairs.append((dual_graph(g), gr))
            for h in (g, gr):
                v = max(range(h.n_vertices), key=lambda w: len(h.rotation[w]))
                if len(h.rotation[v]) >= 2:
                    pairs += [(p, h) for p in perturbed(h, v, 0, 1)]
        assert set(matching_outcomes(pairs)) == {True, False}


class TestTripwires:
    def test_sweep_and_quadrant_checks_survive_optimize(self):
        # a sweep that leaves strands open must raise NonzeroEndState (bad
        # input); a coloring with no black face (too few edges) and a
        # kink with black N, S and E (three darts) ConventionError, under
        # python -O as well
        code = (
            "from types import SimpleNamespace\n"
            "from khfront import (ConventionError, LinkDiagram, NonzeroEndState,\n"
            "                     parse_front, tait_graph)\n"
            "from khfront.front import desingularize\n"
            "d = parse_front('L1 L2 X1 X1 X1 R2 R1').desingularize()\n"
            "kink = LinkDiagram(1, [(0, 3), (1, 2)])\n"
            "_, n, e, _ = kink.face_of_corner\n"
            "checks = (\n"
            "    (lambda: desingularize(SimpleNamespace(events=(('L', 1),))),\n"
            "     NonzeroEndState),\n"
            "    (lambda: tait_graph(d, frozenset()), ConventionError),\n"
            "    (lambda: tait_graph(kink, frozenset({n, e})), ConventionError),\n"
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

    def test_diagram_and_coloring_checks_survive_optimize(self):
        # a port used twice, a port on no arc, a wrong arc count, a white
        # corner that is no port, a negative count of free loops, faces
        # that are not 2-colorable, and a kink with no white corner
        code = (
            "from khfront import ConventionError, LinkDiagram, checkerboard\n"
            "torus = LinkDiagram(1, [(1, 3), (0, 2)], white_corner=0)\n"
            "kink = LinkDiagram(1, [(0, 3), (1, 2)])\n"
            "checks = (\n"
            "    (lambda: LinkDiagram(1, [(0, 1), (0, 2)]), ValueError),\n"
            "    (lambda: LinkDiagram(1, [(0, 1), (2, 7)]), ValueError),\n"
            "    (lambda: LinkDiagram(1, [(0, 1)]), ValueError),\n"
            "    (lambda: LinkDiagram(1, [(0, 3), (1, 2)], white_corner=-1),\n"
            "     ValueError),\n"
            "    (lambda: LinkDiagram(0, [], free_loops=-1), ValueError),\n"
            "    (lambda: checkerboard(torus), ConventionError),\n"
            "    (lambda: checkerboard(kink), ValueError),\n"
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

    def test_census_sweep_check_survives_optimize(self):
        # the counting sweep on edges that no connected graph reduces to:
        # a class leaves the frontier while an edge remains
        code = (
            "from khfront import ConventionError\n"
            "from khfront.trees import _sweep\n"
            "try:\n"
            "    _sweep([(0, 1), (2, 3)], [False, False])\n"
            "except ConventionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        proc = run_optimized("-c", code, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_rotation_checks_survive_optimize(self):
        # an odd number of darts, the ports -1 (which would index the
        # last slot) and 4E (past the end), a port listed twice, and darts
        # 0, 1 that are no pair x, x ^ 2
        code = (
            "from khfront import ConventionError, TaitGraph\n"
            "checks = (\n"
            "    lambda: TaitGraph([[1]]),\n"
            "    lambda: TaitGraph([[-1, 1]]),\n"
            "    lambda: TaitGraph([[1, 4]]),\n"
            "    lambda: TaitGraph([[1, 1]]),\n"
            "    lambda: TaitGraph([[0, 1]]),\n"
            ")\n"
            "for check in checks:\n"
            "    try:\n"
            "        check()\n"
            "    except ConventionError:\n"
            "        continue\n"
            "    raise SystemExit(1)\n"
        )
        proc = run_optimized("-c", code, timeout=60)
        assert proc.returncode == 0, proc.stderr
