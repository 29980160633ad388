"""Khovanov homology and Jones polynomial oracles."""

import inspect
import json
import time
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import factorint

from khfront import (
    BigradedTable,
    Disconnected,
    EmptyTable,
    LaurentPoly,
    TooLarge,
    kauffman_jones,
    khovanov_homology,
    parse_front,
    tait_graph,
)
from khfront import oracle
from khfront.cli import main
from khfront.snf import invariant_factors

from conftest import front_words, quick_entries, run_optimized
from link_diagram import desingularize
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
        table = khovanov_homology(parse_front("L1 R1"))
        assert table.groups == {(0, -1): (1, ()), (0, 1): (1, ())}

    def test_unknot_with_kink(self):
        table = khovanov_homology(parse_front("L1 L2 X1 R2 R1"))
        assert table.groups == {(0, -1): (1, ()), (0, 1): (1, ())}

    def test_right_trefoil_table(self):
        table = khovanov_homology(parse_front(TREFOIL))
        assert table.groups == {
            (0, 1): (1, ()),
            (0, 3): (1, ()),
            (2, 5): (1, ()),
            (3, 7): (0, (2,)),
            (3, 9): (1, ()),
        }
        assert table.min_delta() == 1

    def test_figure_eight_table(self):
        table = khovanov_homology(parse_front(FIG8))
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
        table = khovanov_homology(parse_front("L1 L2 X1 X1 R2 R1"))
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
        front = parse_front(f"L1 {' '.join([trefoil] * 5)} R1")
        assert front.n == 15
        start = time.monotonic()
        table = khovanov_homology(front, max_crossings=15)
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
        front = parse_front(f"L1 {' '.join([trefoil] * 5)} R1")
        khovanov_homology(front, max_crossings=15)
        assert calls["_surface"] <= 320
        assert calls["_evaluate"] <= 1144

    def test_too_large(self):
        front = parse_front(TREFOIL)
        with pytest.raises(TooLarge):
            khovanov_homology(front, max_crossings=2)
        with pytest.raises(TooLarge):
            kauffman_jones(front, max_crossings=2)

    @pytest.mark.parametrize("oracle_fn", [khovanov_homology, kauffman_jones])
    def test_negative_limit_is_a_bad_argument(self, oracle_fn):
        # the limit is at fault, not the front: a plain ValueError that
        # names the argument, even on the crossing-free unknot
        with pytest.raises(ValueError, match="max_crossings") as err:
            oracle_fn(parse_front("L1 R1"), max_crossings=-1)
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
        [e for e in quick_entries() if e.crossings],
        ids=lambda e: e.name,
    )
    def test_loops_beside_crossings(self, entry, k):
        e = parse_front(entry.word + " L1 R1" * k)
        want = khovanov_homology(entry.front()).groups
        for _ in range(k):
            want = with_a_circle(want)
        table = khovanov_homology(e)
        assert table.groups == want
        assert table.graded_euler() == kauffman_jones(e)
        flips = [True] * e.component_count
        assert khovanov_homology(e, flips).graded_euler() == kauffman_jones(e, flips)

    @pytest.mark.parametrize("k", range(4))
    def test_crossing_free_loops(self, k):
        # the cores take the empty diagram, which no front word makes
        want = {(0, 0): (1, ())}  # the empty diagram: Z at (0, 0)
        for _ in range(k):
            want = with_a_circle(want)
        assert oracle._khovanov([], 0, 0, k).groups == want
        assert oracle._jones([], 0, 0, k) == UNKNOT_POLY**k
        if k:
            front = parse_front("L1 R1 " * k)
            table = khovanov_homology(front)
            assert table.groups == want
            assert table.graded_euler() == kauffman_jones(front) == UNKNOT_POLY**k


def kunneth(g1: dict, g2: dict) -> dict:
    """The integer Künneth product of two tables (Khovanov,
    arXiv:math/9908171): A (x) B at (i1 + i2, j1 + j2) and Tor(A, B) at
    (i1 + i2 - 1, j1 + j2), summand by summand from Z (x) Z = Z,
    Z (x) Z/t = Z/t and Z/s (x) Z/t = Tor(Z/s, Z/t) = Z/gcd(s, t)."""
    out: dict = {}

    def add(ij, rank, torsion):
        r, t = out.get(ij, (0, ()))
        out[ij] = (r + rank, t + tuple(torsion))

    for (i1, j1), (r1, t1) in g1.items():
        for (i2, j2), (r2, t2) in g2.items():
            tor = [gcd(s, t) for s in t1 for t in t2]
            add((i1 + i2, j1 + j2), r1 * r2, [*t1] * r2 + [*t2] * r1 + tor)
            add((i1 + i2 - 1, j1 + j2), 0, tor)
    return out


def primary(groups: dict) -> dict:
    """Each nonzero group as its free rank and its torsion split into
    sorted prime powers, so that two presentations of one group compare
    equal (Z/6 and Z/2 + Z/3)."""
    out = {}
    for ij, (rank, torsion) in groups.items():
        powers = sorted(p**k for t in torsion for p, k in factorint(t).items())
        if rank or powers:
            out[ij] = (rank, powers)
    return out


class TestSplitFronts:
    """Two fronts side by side make a split front, which the oracle
    answers and the Tait sweep refuses."""

    @settings(max_examples=40, deadline=None)
    @given(front_words(), front_words())
    @example(parse_front(TREFOIL), parse_front(TREFOIL))  # Tor(Z/2, Z/2)
    @example(parse_front(TREFOIL), parse_front(FIG8))
    @example(parse_front("L1 R1"), parse_front(FIG8))
    def test_side_by_side(self, f1, f2):
        front = parse_front(f"{f1.word()} {f2.word()}")
        h1, h2 = khovanov_homology(f1).groups, khovanov_homology(f2).groups
        assert primary(khovanov_homology(front).groups) == primary(kunneth(h1, h2))
        assert kauffman_jones(front) == kauffman_jones(f1) * kauffman_jones(f2)
        assert front.tb() == f1.tb() + f2.tb()
        for reverse in (False, True):
            with pytest.raises(Disconnected):
                tait_graph(front, reverse)


class TestFlips:
    @pytest.mark.parametrize("flips", [[True], [True, False, True]])
    @pytest.mark.parametrize(
        "fn",
        [
            lambda front, flips: front.tb(flips),
            lambda front, flips: khovanov_homology(front, flips),
            lambda front, flips: kauffman_jones(front, flips),
        ],
        ids=["tb", "khovanov_homology", "kauffman_jones"],
    )
    def test_one_entry_per_component(self, fn, flips):
        with pytest.raises(ValueError, match="flips"):
            fn(parse_front(TWO_COMPONENTS[0]), flips)

    def test_free_loops_count_as_components(self):
        assert parse_front("L1 R1").crossing_signs([True]) == []
        front = parse_front(TREFOIL + " L1 R1")
        assert front.component_count == 2
        assert sum(front.crossing_signs([True, False])) == 3
        with pytest.raises(ValueError, match="flips"):
            front.crossing_signs([True])


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
            "from khfront import ConventionError\n"
            "from khfront.oracle import _jones\n"
            "try:\n"
            "    _jones([4, 5, 6, 7], 1, 0)\n"
            "except ConventionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        proc = run_optimized("-c", code, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_jones_sweep_shares_no_code_with_the_scan(self):
        # the Euler-characteristic checks compare two computations only as
        # long as the sweep names nothing of the scan, neither itself nor
        # through the module's functions that it calls
        scan = {
            "_Complex", "_surface", "_evaluate", "_add_into", "_partner",
            "_STRIP", "_SADDLE", "invariant_factors", "khovanov_homology",
            "_khovanov",
        }
        names = set()
        codes = [kauffman_jones.__code__]
        while codes:
            code = codes.pop()
            new = set(code.co_names) - names
            names |= new
            codes += [k for k in code.co_consts if isinstance(k, type(code))]
            codes += [
                f.__code__
                for f in map(vars(oracle).get, new)
                if inspect.isfunction(f) and f.__module__ == oracle.__name__
            ]
        # the walk reached the body and the functions it calls
        assert {"_oriented", "_desingularize", "_jones"} <= names
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
        assume(front.n > 0)  # the reference builds no crossing-free table
        d = desingularize(front)
        orientations = (None, [True] * front.component_count)
        for flips, want in zip(orientations, reference_homology(d, orientations)):
            assert khovanov_homology(front, flips=flips).groups == want.groups

    @settings(max_examples=50, deadline=None)
    @given(front_words(max_crossings=8), st.data())
    def test_any_crossing_order_and_orientation(self, front, data):
        # a PD re-import numbers the crossings in a shuffled order, so the
        # scan adds them in an order unrelated to the front's x-order; no
        # front has that order, so the scan's core takes the port map
        assume(front.n > 0)
        e, _ = from_pd(data.draw(st.permutations(to_pd(desingularize(front)))))
        n_comp = e.component_count()
        orientations = ([True] * n_comp, [k == 0 for k in range(n_comp)])
        for flips, want in zip(orientations, reference_homology(e, orientations)):
            got = oracle._khovanov(e.mate, *e.positive_negative(flips))
            assert got.groups == want.groups

    @settings(max_examples=100, deadline=None)
    @given(front_words(max_crossings=8), st.data())
    def test_jones_sweep_matches_state_sum(self, front, data):
        d = desingularize(front)
        n_comp = front.component_count
        flipped = data.draw(st.integers(min_value=0, max_value=n_comp - 1))
        for flips in (None, [k == flipped for k in range(n_comp)]):
            assert kauffman_jones(front, flips) == reference_jones(d, flips)

    @settings(max_examples=50, deadline=None)
    @given(front_words(max_crossings=8), st.data())
    def test_jones_sweep_in_any_crossing_order(self, front, data):
        # the sweep adds a PD re-import's crossings in their shuffled order,
        # so its matchings need not be planar along any line
        assume(front.n > 0)
        e, _ = from_pd(data.draw(st.permutations(to_pd(desingularize(front)))))
        n_comp = e.component_count()
        for flips in ([True] * n_comp, [k == 0 for k in range(n_comp)]):
            got = oracle._jones(e.mate, *e.positive_negative(flips))
            assert got == reference_jones(e, flips)

    @settings(max_examples=100, deadline=None)
    @given(front_words(max_crossings=8, connected=False))
    def test_port_map_is_the_reference_diagrams(self, front):
        d = desingularize(front)
        assert oracle._desingularize(front) == (d.mate, d.free_loops)

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
        assert kauffman_jones(parse_front("L1 R1")) == UNKNOT_POLY

    def test_right_trefoil(self):
        got = kauffman_jones(parse_front(TREFOIL))
        assert got == LaurentPoly({1: 1, 3: 1, 5: 1, 9: -1})

    def test_figure_eight(self):
        assert kauffman_jones(parse_front(FIG8)) == LaurentPoly({-5: 1, 5: 1})

    def test_torus_3_100_within_a_second(self):
        front = parse_front("L1 L2 L3 " + "X1 X2 " * 100 + "R3 R2 R1")
        start = time.perf_counter()
        kauffman_jones(front, max_crossings=front.n)
        assert time.perf_counter() - start < 1

    def test_seven_trefoil_sum_within_a_tenth_of_a_second(self):
        # 2^21 states for a state sum; the sweep holds at most two matchings
        front = parse_front("L1 " + "L2 X1 X1 X1 R2 " * 7 + "R1")
        start = time.perf_counter()
        got = kauffman_jones(front, max_crossings=front.n)
        elapsed = time.perf_counter() - start
        assert got == UNKNOT_POLY * LaurentPoly({2: 1, 6: 1, 8: -1}) ** 7
        assert elapsed < 0.1, f"{elapsed:.3f}s"

    def test_mirror_negates_exponents(self):
        left = "L1 L1 L1 X2 X4 R3 X2 R1 R1"
        got = kauffman_jones(parse_front(left))
        mirror = LaurentPoly({-e: c for e, c in got.items()})
        assert mirror == kauffman_jones(parse_front(TREFOIL))


class TestLaurentPoly:
    @pytest.mark.parametrize("poly, n", [
        (LaurentPoly({0: 3}), 3),
        (LaurentPoly({0: -2}), -2),
        (LaurentPoly(), 0),
        (LaurentPoly({0: 0}), 0),
    ])
    def test_a_constant_hashes_as_its_int(self, poly, n):
        assert poly == n
        assert hash(poly) == hash(n)
        assert {n: "x"}.get(poly) == "x"
        assert {poly: "x"}.get(n) == "x"

    def test_polynomials_stay_apart(self):
        keys = {LaurentPoly({0: 1}): 0, UNKNOT_POLY: 1, LaurentPoly({1: 1}): 2}
        assert len(keys) == 3
        assert keys[LaurentPoly({-1: 1, 1: 1})] == 1
        assert 1 in keys and LaurentPoly({1: 1}) != 1


class TestConsistency:
    @settings(max_examples=25, deadline=None)
    @given(front_words(max_crossings=3, max_cusp_pairs=2))
    def test_euler_characteristic_is_jones(self, front):
        table = khovanov_homology(front)  # also checks d^2 = 0 internally
        assert table.graded_euler() == kauffman_jones(front)

    @pytest.mark.parametrize("flips", product((False, True), repeat=2))
    @pytest.mark.parametrize("word", TWO_COMPONENTS)
    def test_euler_characteristic_is_jones_in_every_orientation(self, word, flips):
        front = parse_front(word)
        assert front.component_count == 2
        table = khovanov_homology(front, flips)
        assert table.graded_euler() == kauffman_jones(front, flips)

    @settings(max_examples=25, deadline=None)
    @given(front_words(max_crossings=3, max_cusp_pairs=2))
    def test_jones_orientation_invariance_for_knots(self, front):
        # reversing the orientation of every component preserves the
        # writhe, hence the polynomial
        flips = [True] * front.component_count
        assert kauffman_jones(front) == kauffman_jones(front, flips=flips)
