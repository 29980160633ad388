"""Khovanov homology and Jones polynomial oracles."""

import json
import time
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from khfront import (
    BigradedTable,
    EmptyTable,
    LaurentPoly,
    LinkDiagram,
    TooLarge,
    kauffman_jones,
    khovanov_homology,
    parse_front,
)
from khfront import oracle
from khfront.cli import main
from khfront.snf import invariant_factors

from conftest import front_words, quick_entries, run_optimized
from pd_codec import from_pd, to_pd
from khovanov_reference import (
    reference_homology,
    reference_invariant_factors,
    reference_jones,
    sympy_factors,
)

TREFOIL = "L1 L2 X1 X1 X1 R2 R1"
FIG8 = "L1 L1 L1 X2 X2 X4 R3 X2 R1 R1"
#: two-component fronts: the bundled Hopf link, the (2, 4) torus link,
#: and a Hopf clasp summed with a trefoil, whose crossings take both
#: signs when one component is reversed
TWO_COMPONENTS = (
    "L1 L2 X1 X1 R2 R1",
    "L1 L2 X1 X1 X1 X1 R2 R1",
    "L1 L2 X1 X1 R2 L2 X1 X1 X1 R2 R1",
)

UNKNOT_POLY = LaurentPoly({1: 1, -1: 1})


class TestKhovanov:
    def test_unknot(self):
        d = parse_front("L1 R1").desingularize()
        table = khovanov_homology(d)
        assert table.groups == {(0, -1): (1, ()), (0, 1): (1, ())}

    def test_unknot_with_kink(self):
        d = parse_front("L1 L2 X1 R2 R1").desingularize()
        table = khovanov_homology(d)
        assert table.groups == {(0, -1): (1, ()), (0, 1): (1, ())}

    def test_right_trefoil_table(self):
        table = khovanov_homology(parse_front(TREFOIL).desingularize())
        assert table.groups == {
            (0, 1): (1, ()),
            (0, 3): (1, ()),
            (2, 5): (1, ()),
            (3, 7): (0, (2,)),
            (3, 9): (1, ()),
        }
        assert table.min_delta() == 1

    def test_figure_eight_table(self):
        table = khovanov_homology(parse_front(FIG8).desingularize())
        assert table.groups == {
            (-2, -5): (1, ()),
            (-1, -3): (0, (2,)),
            (-1, -1): (1, ()),
            (0, -1): (1, ()),
            (0, 1): (1, ()),
            (1, 1): (1, ()),
            (2, 3): (0, (2,)),
            (2, 5): (1, ()),
        }
        assert table.min_delta() == -3

    def test_positive_hopf_link(self):
        d = parse_front("L1 L2 X1 X1 R2 R1").desingularize()
        table = khovanov_homology(d)
        assert table.groups == {
            (0, 0): (1, ()),
            (0, 2): (1, ()),
            (2, 4): (1, ()),
            (2, 6): (1, ()),
        }

    def test_reach_fifteen_crossings(self):
        # five right trefoils: Euler characteristic (q + 1/q) V^5, with V
        # the trefoil's normalized Jones polynomial
        trefoil = "L2 X1 X1 X1 R2"
        d = parse_front(f"L1 {' '.join([trefoil] * 5)} R1").desingularize()
        assert d.n == 15
        start = time.monotonic()
        table = khovanov_homology(d, max_crossings=15)
        elapsed = time.monotonic() - start
        v = LaurentPoly({2: 1, 6: 1, 8: -1})
        assert table.graded_euler() == UNKNOT_POLY * v**5
        assert elapsed < 10, f"{elapsed:.1f}s"

    def test_homology_of_eight_trefoil_sum_within_ten_seconds(self, capsys):
        # 24 crossings whose residual blocks reach 728 rows of +-2 entries,
        # so the run tests the reach of the Smith reduction, not only the scan
        trefoil = "L2 X1 X1 X1 R2"
        word = f"L1 {' '.join([trefoil] * 8)} R1"
        start = time.monotonic()
        code = main(["homology", "--json", "--max-crossings", "24", word])
        elapsed = time.monotonic() - start
        assert code == 0
        euler = LaurentPoly.zero()
        for g in json.loads(capsys.readouterr().out)["groups"]:
            euler = euler + LaurentPoly.monomial(g["j"], (-1) ** g["i"] * g["rank"])
        v = LaurentPoly({2: 1, 6: 1, 8: -1})
        assert euler == UNKNOT_POLY * v**8
        assert elapsed < 10, f"{elapsed:.1f}s"

    def test_scan_builds_each_surface_once_per_matching(self, monkeypatch):
        # the five-trefoil sum has 835 scan objects but few matchings; a
        # scan that built and evaluated a surface per object or per
        # differential entry made 3,192 surfaces and 11,435 evaluations
        calls = {"_surface": 0, "_evaluate": 0}
        for name in calls:
            def counted(*args, _inner=getattr(oracle, name), _name=name):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(oracle, name, counted)
        trefoil = "L2 X1 X1 X1 R2"
        d = parse_front(f"L1 {' '.join([trefoil] * 5)} R1").desingularize()
        khovanov_homology(d, max_crossings=15)
        assert calls["_surface"] <= 320
        assert calls["_evaluate"] <= 1144

    def test_too_large(self):
        d = parse_front(TREFOIL).desingularize()
        with pytest.raises(TooLarge):
            khovanov_homology(d, max_crossings=2)
        with pytest.raises(TooLarge):
            kauffman_jones(d, max_crossings=2)

    @pytest.mark.parametrize("oracle_fn", [khovanov_homology, kauffman_jones])
    def test_negative_limit_is_a_bad_argument(self, oracle_fn):
        # the limit is at fault, not the diagram: a plain ValueError that
        # names the argument, even on the crossing-free unknot
        d = parse_front("L1 R1").desingularize()
        with pytest.raises(ValueError, match="max_crossings") as err:
            oracle_fn(d, max_crossings=-1)
        assert not isinstance(err.value, TooLarge)

    def test_empty_table_min_delta(self):
        from khfront.oracle import BigradedTable

        with pytest.raises(EmptyTable):
            BigradedTable({}).min_delta()


class TestBigradedTable:
    def test_caller_dict_left_unchanged(self):
        g = {(0, 0): (0, ()), (1, 1): (1, ())}
        table = BigradedTable(g)
        assert set(g) == {(0, 0), (1, 1)}
        assert table.groups == {(1, 1): (1, ())}


def with_a_circle(groups: dict) -> dict:
    """The Künneth product with the unknot's table Z(0, 1) + Z(0, -1): each
    group copied one step up and one step down in j."""
    out: dict = {}
    for (i, j), (rank, torsion) in groups.items():
        for jj in (j - 1, j + 1):
            r, t = out.get((i, jj), (0, ()))
            out[(i, jj)] = (r + rank, tuple(sorted(t + torsion)))
    return out


class TestFreeLoops:
    """Crossing-free loops enter the table by the Künneth formula, a loop
    at a time, beside crossings or alone."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize(
        "entry",
        [e for e in quick_entries() if e.front().desingularize().n],
        ids=lambda e: e.name,
    )
    def test_loops_beside_crossings(self, entry, k):
        d = entry.front().desingularize()
        e = LinkDiagram(d.n, d.arcs, free_loops=k)
        want = khovanov_homology(d).groups
        for _ in range(k):
            want = with_a_circle(want)
        table = khovanov_homology(e)
        assert table.groups == want
        assert table.graded_euler() == kauffman_jones(e)
        flips = [True] * e.component_count()
        assert khovanov_homology(e, flips).graded_euler() == kauffman_jones(e, flips)

    @pytest.mark.parametrize("k", range(4))
    def test_crossing_free_loops(self, k):
        d = LinkDiagram(0, [], free_loops=k)
        want = {(0, 0): (1, ())}  # the empty diagram: Z at (0, 0)
        for _ in range(k):
            want = with_a_circle(want)
        table = khovanov_homology(d)
        assert table.groups == want
        assert table.graded_euler() == kauffman_jones(d) == UNKNOT_POLY**k


class TestFlips:
    @pytest.mark.parametrize("flips", [[True], [True, False, True]])
    @pytest.mark.parametrize(
        "fn",
        [
            lambda d, flips: d.writhe(flips),
            lambda d, flips: khovanov_homology(d, flips),
            lambda d, flips: kauffman_jones(d, flips),
        ],
        ids=["writhe", "khovanov_homology", "kauffman_jones"],
    )
    def test_one_entry_per_component(self, fn, flips):
        d = parse_front(TWO_COMPONENTS[0]).desingularize()
        with pytest.raises(ValueError, match="flips"):
            fn(d, flips)

    def test_free_loops_count_as_components(self):
        assert parse_front("L1 R1").desingularize().writhe([True]) == 0
        d = parse_front(TREFOIL).desingularize()
        e = LinkDiagram(d.n, d.arcs, free_loops=1)
        assert e.writhe([True, False]) == 3
        with pytest.raises(ValueError, match="flips"):
            e.writhe([True])


class TestTripwires:
    def test_d_squared_check_survives_optimize(self):
        # over the empty boundary, Z -> Z^2 -> Z with d0 = (1, 1)^T and
        # d1 = (1, -1) composes to zero.  On the boundary arcs 0..3 the
        # saddle ((0,1),(2,3)) -> ((0,3),(1,2)) followed by the saddle back
        # is a tube, which neck cutting writes as two nonzero terms
        code = (
            "from khfront import ConventionError\n"
            "from khfront.oracle import _Complex\n"
            "z = ((), 0, 0), ((), 1, 0), ((), 1, 0), ((), 2, 0)\n"
            "out = [{1: {0: 1}, 2: {0: 1}}, {3: {0: 1}}, {3: {0: -1}}, {}]\n"
            "_Complex(list(z), out).check_d_squared_zero()\n"
            "a, b = ((0, 1), (2, 3)), ((0, 3), (1, 2))\n"
            "objs = [(a, 0, 0), (b, 1, 0), (a, 2, 0)]\n"
            "tube = _Complex(objs, [{1: {0: 1}}, {2: {0: 1}}, {}])\n"
            "try:\n"
            "    tube.check_d_squared_zero()\n"
            "except ConventionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        proc = run_optimized("-c", code, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_jones_end_state_check_survives_optimize(self):
        # a crossing whose four arcs lead to a crossing that never comes:
        # the sweep ends on an open matching
        code = (
            "from types import SimpleNamespace\n"
            "from khfront import ConventionError, kauffman_jones\n"
            "d = SimpleNamespace(\n"
            "    n=1, free_loops=0, arcs=[(p, 4 + p) for p in range(4)],\n"
            "    mate=[4, 5, 6, 7],\n"
            "    positive_negative=lambda flips=None: (1, 0),\n"
            ")\n"
            "try:\n"
            "    kauffman_jones(d)\n"
            "except ConventionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        proc = run_optimized("-c", code, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_jones_sweep_shares_no_code_with_the_scan(self):
        # the Euler-characteristic checks compare two computations only as
        # long as the sweep names nothing of the scan
        scan = {
            "_Complex", "_surface", "_evaluate", "_add_into", "_partner",
            "_STRIP", "_SADDLE", "invariant_factors", "khovanov_homology",
        }
        names = set()
        codes = [kauffman_jones.__code__]
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            codes += [k for k in code.co_consts if isinstance(k, type(code))]
        assert "_check_oracle_input" in names  # the walk reached the body
        assert not names & scan


@st.composite
def sparse_matrices(draw):
    """Integer matrices of at most 8 x 8, keyed by sparse row and column
    ids and holding zero rows, columns and entries: either random entries,
    or a diagonal of torsion orders, coprime ones among them, hidden by
    unimodular row and column operations."""
    ids = st.lists(st.integers(-100, 100), max_size=8, unique=True)
    row_ids, col_ids = draw(ids), draw(ids)
    n_rows, n_cols = len(row_ids), len(col_ids)
    m = [[0] * n_cols for _ in range(n_rows)]
    if draw(st.booleans()):
        entry = st.sampled_from((0, 0, 0, 2, -2, 3)) | st.integers(-12, 12)
        m = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    else:
        for k in range(min(n_rows, n_cols)):
            m[k][k] = draw(st.sampled_from((0, 1, 2, 3, 4, 5, 6, 9, -2, -3)))
        for _ in range(draw(st.integers(0, 12))):
            on_rows = draw(st.booleans())
            size = n_rows if on_rows else n_cols
            if size < 2:
                continue
            a, b = draw(st.permutations(range(size)))[:2]
            k = draw(st.integers(-3, 3))
            if on_rows:
                m[a] = [x + k * y for x, y in zip(m[a], m[b])]
            else:
                for row in m:
                    row[a] += k * row[b]
    return {
        (r, c): m[i][j] for i, r in enumerate(row_ids) for j, c in enumerate(col_ids)
    }


class TestReference:
    """The oracles against their references: the cube with a separate
    Smith normal form per bidegree, and the sum over all 2^n states."""

    @settings(max_examples=100, deadline=None)
    @given(front_words(max_crossings=8))
    def test_cancellation_matches_per_bidegree_snf(self, front):
        d = front.desingularize()
        assume(d.n > 0)  # the reference builds no crossing-free table
        orientations = (None, [True] * d.component_count())
        for flips, want in zip(orientations, reference_homology(d, orientations)):
            assert khovanov_homology(d, flips=flips).groups == want.groups

    @settings(max_examples=50, deadline=None)
    @given(front_words(max_crossings=8), st.data())
    def test_any_crossing_order_and_orientation(self, front, data):
        # a PD re-import numbers the crossings in a shuffled order, so the
        # scan adds them in an order unrelated to the front's x-order
        d = front.desingularize()
        assume(d.n > 0)
        e, _ = from_pd(data.draw(st.permutations(to_pd(d))))
        n_comp = e.component_count()
        orientations = ([True] * n_comp, [k == 0 for k in range(n_comp)])
        for flips, want in zip(orientations, reference_homology(e, orientations)):
            assert khovanov_homology(e, flips=flips).groups == want.groups

    @settings(max_examples=100, deadline=None)
    @given(front_words(max_crossings=8), st.data())
    def test_jones_sweep_matches_state_sum(self, front, data):
        d = front.desingularize()
        n_comp = d.component_count()
        flipped = data.draw(st.integers(min_value=0, max_value=n_comp - 1))
        for flips in (None, [k == flipped for k in range(n_comp)]):
            assert kauffman_jones(d, flips) == reference_jones(d, flips)

    @settings(max_examples=50, deadline=None)
    @given(front_words(max_crossings=8), st.data())
    def test_jones_sweep_in_any_crossing_order(self, front, data):
        # the sweep adds a PD re-import's crossings in their shuffled order,
        # so its matchings need not be planar along any line
        d = front.desingularize()
        assume(d.n > 0)
        e, _ = from_pd(data.draw(st.permutations(to_pd(d))))
        n_comp = e.component_count()
        for flips in ([True] * n_comp, [k == 0 for k in range(n_comp)]):
            assert kauffman_jones(e, flips) == reference_jones(e, flips)

    @pytest.mark.parametrize(
        "entries, factors",
        [
            ({(0, 0): 2, (1, 1): 3}, [1, 6]),
            ({(10, -4): 3, (-7, 30): -2, (-7, 8): 0}, [1, 6]),
            ({(0, 0): 2, (0, 1): 4, (1, 0): 6, (1, 1): 8}, [2, 4]),
            ({(5, 7): -4}, [4]),
            ({(0, 0): 0, (1, 1): 0}, []),
        ],
    )
    def test_invariant_factors(self, entries, factors):
        assert invariant_factors(entries) == factors
        assert reference_invariant_factors(entries) == factors
        assert sympy_factors(entries) == factors

    @settings(max_examples=300, deadline=None)
    @given(sparse_matrices())
    @example({(10, -4): 2, (-7, 30): 3})  # Z/2 + Z/3 = Z/6
    def test_invariant_factors_match_sympy(self, entries):
        assert invariant_factors(entries) == sympy_factors(entries)


class TestJones:
    def test_unknot(self):
        d = parse_front("L1 R1").desingularize()
        assert kauffman_jones(d) == UNKNOT_POLY

    def test_right_trefoil(self):
        d = parse_front(TREFOIL).desingularize()
        assert kauffman_jones(d) == LaurentPoly({1: 1, 3: 1, 5: 1, 9: -1})

    def test_figure_eight(self):
        d = parse_front(FIG8).desingularize()
        assert kauffman_jones(d) == LaurentPoly({-5: 1, 5: 1})

    def test_torus_3_100_within_a_second(self):
        d = parse_front("L1 L2 L3 " + "X1 X2 " * 100 + "R3 R2 R1").desingularize()
        start = time.perf_counter()
        kauffman_jones(d, max_crossings=d.n)
        assert time.perf_counter() - start < 1

    def test_seven_trefoil_sum_within_a_tenth_of_a_second(self):
        # 2^21 states for a state sum; the sweep holds at most two matchings
        d = parse_front("L1 " + "L2 X1 X1 X1 R2 " * 7 + "R1").desingularize()
        start = time.perf_counter()
        got = kauffman_jones(d, max_crossings=d.n)
        elapsed = time.perf_counter() - start
        assert got == UNKNOT_POLY * LaurentPoly({2: 1, 6: 1, 8: -1}) ** 7
        assert elapsed < 0.1, f"{elapsed:.3f}s"

    def test_mirror_negates_exponents(self):
        left = "L1 L1 L1 X2 X4 R3 X2 R1 R1"
        d = parse_front(left).desingularize()
        got = kauffman_jones(d)
        mirror = LaurentPoly({-e: c for e, c in got.items()})
        assert mirror == kauffman_jones(parse_front(TREFOIL).desingularize())


class TestConsistency:
    @settings(max_examples=25, deadline=None)
    @given(front_words(max_crossings=3, max_cusp_pairs=2))
    def test_euler_characteristic_is_jones(self, front):
        d = front.desingularize()
        table = khovanov_homology(d)  # also checks d^2 = 0 internally
        assert table.graded_euler() == kauffman_jones(d)

    @pytest.mark.parametrize("flips", product((False, True), repeat=2))
    @pytest.mark.parametrize("word", TWO_COMPONENTS)
    def test_euler_characteristic_is_jones_in_every_orientation(self, word, flips):
        d = parse_front(word).desingularize()
        assert d.component_count() == 2
        table = khovanov_homology(d, flips)
        assert table.graded_euler() == kauffman_jones(d, flips)

    @settings(max_examples=25, deadline=None)
    @given(front_words(max_crossings=3, max_cusp_pairs=2))
    def test_jones_orientation_invariance_for_knots(self, front):
        # reversing the orientation of every component preserves the
        # writhe, hence the polynomial
        d = front.desingularize()
        flips = [True] * d.component_count()
        assert kauffman_jones(d) == kauffman_jones(d, flips=flips)
