"""Bound reports, censuses, sharpness certificates, tripwire."""

import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khfront import (
    FrontDiagram,
    LaurentPoly,
    bigrading_counts,
    kauffman_jones,
    khovanov_homology,
    parse_front,
    sharpness_report,
    tait_graph,
    tree_euler_characteristic,
)

from conftest import front_words, matrix_tree_count, run_optimized

TREFOIL = "L1 L2 X1 X1 X1 R2 R1"


class TestNgBound:
    def test_unknot_equality(self):
        r = sharpness_report(parse_front("L1 R1"), with_oracle=True)
        assert (r.tb, r.min_delta, r.verdict) == (-1, -1, "sharp_certified")

    def test_trefoil_equality(self):
        r = sharpness_report(parse_front(TREFOIL), with_oracle=True)
        assert (r.tb, r.min_delta) == (1, 1)

    def test_stabilized_unknot_strict(self):
        r = sharpness_report(parse_front("L1 L2 R1 R1"), with_oracle=True)
        assert r.tb == -2
        assert r.min_delta == -1

    def test_without_oracle(self):
        r = sharpness_report(parse_front(TREFOIL))
        assert r.min_delta is None

    @settings(max_examples=20, deadline=None)
    @given(front_words(max_crossings=3, max_cusp_pairs=2))
    def test_bound_on_random_fronts(self, front):
        r = sharpness_report(front, with_oracle=True)
        assert r.tb <= r.min_delta
        assert r.min_u >= 1 - r.C


class TestCensus:
    def test_unknot(self):
        assert sharpness_report(parse_front("L1 R1")).census == {0: (1, 0)}

    def test_trefoil(self):
        assert sharpness_report(parse_front(TREFOIL)).census == {2: (1, 0)}

    def test_stabilized_unknot(self):
        assert sharpness_report(parse_front("L1 L2 R1 R1")).census == {0: (0, 1)}


class TestSharpness:
    def test_trefoil_sharp(self):
        r = sharpness_report(parse_front(TREFOIL), with_oracle=True)
        assert r.verdict == "sharp_certified"
        assert r.tb == r.min_delta == 1

    def test_stabilized_unknot_not_sharp(self):
        r = sharpness_report(parse_front("L1 L2 R1 R1"), with_oracle=True)
        assert r.verdict == "not_sharp_certified"
        assert r.tb < r.min_delta

    @settings(max_examples=20, deadline=None)
    @given(front_words(max_crossings=3, max_cusp_pairs=2))
    def test_certificates_agree_with_oracle(self, front):
        # raises ConventionError on any certificate/oracle disagreement
        r = sharpness_report(front, with_oracle=True)
        if r.verdict == "sharp_certified":
            assert r.tb == r.min_delta
        elif r.verdict == "not_sharp_certified":
            assert r.tb < r.min_delta

    @settings(max_examples=20, deadline=None)
    @given(front_words(max_crossings=3, max_cusp_pairs=2))
    def test_good_tree_exists_whenever_sharp(self, front):
        table = khovanov_homology(front)
        r = sharpness_report(front)
        if front.tb() == table.min_delta():
            assert any(good for good, _ in r.census.values())


class TestKnownMaximalTb:
    """Known answers at scale, with no oracle: the closure of (X1 X2)^m
    is T(3, m), whose maximal tb is 2m - 3 (Etnyre-Honda), and the
    twist X1^n is T(2, n), whose Tait graph is the n-cycle."""

    @pytest.mark.parametrize("m", [13, 50, 100])
    def test_torus_3_m_certifies_sharp(self, m):
        front = parse_front("L1 L2 L3 " + "X1 X2 " * m + "R3 R2 R1")
        r = sharpness_report(front)
        assert (r.tb, r.verdict, r.min_u) == (2 * m - 3, "sharp_certified", 1 - r.C)
        if m == 13:
            assert r.tree_count == matrix_tree_count(tait_graph(front))

    def test_twist_2001_within_a_second(self):
        start = time.perf_counter()
        r = sharpness_report(parse_front("L1 L2 " + "X1 " * 2001 + "R2 R1"))
        elapsed = time.perf_counter() - start
        assert (r.tb, r.tree_count, r.verdict) == (1999, 2001, "sharp_certified")
        assert elapsed < 1


def stabilize(front, at: int, p: int, down: bool) -> FrontDiagram:
    """The front with a zigzag on strand ``p`` after its first ``at``
    events: ``L p+1 R p``, or ``L p R p+1`` when ``down``.  It adds one
    right cusp and no crossing, so tb drops by 1 and the link type is
    kept."""
    zigzag = (("L", p), ("R", p + 1)) if down else (("L", p + 1), ("R", p))
    return FrontDiagram(front.events[:at] + zigzag + front.events[at:])


def strands_after(front, at: int) -> int:
    """Strands cut by a vertical line after the first ``at`` events."""
    steps = {"L": 2, "R": -2, "X": 0}
    return sum(steps[kind] for kind, _ in front.events[:at])


class TestStabilization:
    """A stabilization lowers tb by exactly 1 and keeps the knot type, so
    the Jones polynomial of a knot stays, and a front that certified its
    bound sharp certifies it no longer."""

    def check(self, front, stabilized, max_crossings):
        assert stabilized.tb() == front.tb() - 1
        if front.component_count == 1:
            jones = kauffman_jones(front, max_crossings=max_crossings)
            assert kauffman_jones(stabilized, max_crossings=max_crossings) == jones
        if sharpness_report(front).verdict == "sharp_certified":
            assert sharpness_report(stabilized).verdict != "sharp_certified"

    @settings(max_examples=50, deadline=None)
    @given(front_words(max_crossings=8), st.data())
    def test_random_fronts(self, front, data):
        at = data.draw(st.integers(1, len(front.events) - 1))
        strand = data.draw(st.integers(1, strands_after(front, at)))
        stabilized = stabilize(front, at, strand, data.draw(st.booleans()))
        self.check(front, stabilized, max_crossings=8)

    def seeded(self, front, seed: int) -> FrontDiagram:
        rng = random.Random(seed)
        at = rng.randrange(1, len(front.events))
        strand = rng.randint(1, strands_after(front, at))
        return stabilize(front, at, strand, rng.random() < 0.5)

    def test_bundled_fronts(self, corpus_fronts):
        # nine of the ten bundled fronts certify sharp
        for seed, (_, front) in enumerate(corpus_fronts):
            n = front.n
            self.check(front, self.seeded(front, seed), max_crossings=n)

    @pytest.mark.parametrize("seed", range(4))
    def test_torus_3_20(self, seed):
        front = parse_front("L1 L2 L3 " + "X1 X2 " * 20 + "R3 R2 R1")
        assert sharpness_report(front).verdict == "sharp_certified"
        self.check(front, self.seeded(front, seed), max_crossings=40)


def connected_sum(f1: FrontDiagram, f2: FrontDiagram) -> FrontDiagram:
    """The Legendrian connected sum of two fronts that start with L1 and
    end with R1: F1 without its last R1, then F2 without its first L1.
    The two strands that F1 leaves open take F2's place."""
    assert f1.events[-1] == ("R", 1) and f2.events[0] == ("L", 1)
    return FrontDiagram(f1.events[:-1] + f2.events[1:])


def census(front: FrontDiagram) -> list[dict]:
    """The (u, v) tree counts of the front on both colorings."""
    return [bigrading_counts(tait_graph(front, reverse)) for reverse in (False, True)]


def convolve(a: dict, b: dict) -> dict:
    """The (u, v) counts of the pairs of a tree counted in a and a tree
    counted in b, whose u and v add."""
    out: Counter = Counter()
    for (u1, v1), c1 in a.items():
        for (u2, v2), c2 in b.items():
            out[u1 + u2, v1 + v2] += c1 * c2
    return dict(out)


def jones(front: FrontDiagram) -> LaurentPoly:
    return kauffman_jones(front, max_crossings=front.n)


def tree_euler(front: FrontDiagram) -> LaurentPoly:
    """The graded Euler characteristic of the canonical coloring's trees."""
    return tree_euler_characteristic(tait_graph(front), front.n, front.writhe)


class TestConnectedSum:
    """Known answers with no oracle.  The Tait graphs of a connected sum
    are the one-point unions of its factors', so its trees are the pairs
    of the factors' trees, and their u and v add with no shift.  The sum
    has one cusp pair fewer than its factors, so for knots
    tb(F1 # F2) = tb1 + tb2 + 1, and the unreduced Jones polynomials
    satisfy J(F1 # F2) (q + 1/q) = J(F1) J(F2).  The sum's census is tied
    to the Jones sweep by its Euler characteristic, so a census that
    errs alike on every factor is caught too."""

    UNKNOT = LaurentPoly({-1: 1, 1: 1})

    def check(self, f1, f2):
        s = connected_sum(f1, f2)
        for c1, c2, c in zip(census(f1), census(f2), census(s)):
            assert c == convolve(c1, c2)
        assert tree_euler(s) == jones(s)
        if all(f.component_count == 1 for f in (f1, f2)):
            assert s.tb() == f1.tb() + f2.tb() + 1
            assert jones(s) * self.UNKNOT == jones(f1) * jones(f2)

    @settings(max_examples=60, deadline=None)
    @given(front_words(max_crossings=8), front_words(max_crossings=8))
    def test_random_pairs(self, f1, f2):
        self.check(f1, f2)

    def test_bundled_pairs(self, corpus_fronts):
        # 100 ordered pairs, the Hopf link's among them
        for _, f1 in corpus_fronts:
            for _, f2 in corpus_fronts:
                self.check(f1, f2)

    def test_powers_of_the_bundled_knots(self, corpus_fronts):
        # a sum of 40 copies of each bundled knot, or as many as fit in 160
        # crossings; counts, tb and Jones all follow from one copy's
        for entry, front in corpus_fronts:
            if front.component_count != 1:
                continue
            k = min(40, 160 // max(front.n, 1))
            power = front
            for _ in range(k - 1):
                power = connected_sum(power, front)
            for c1, c in zip(census(front), census(power)):
                expected = {(0, 0): 1}
                for _ in range(k):
                    expected = convolve(expected, c1)
                assert c == expected, entry.name
            assert tree_euler(power) == jones(power)
            assert power.tb() == k * front.tb() + k - 1
            assert jones(power) * self.UNKNOT ** (k - 1) == jones(front) ** k


class TestReportShape:
    def test_json_dict(self):
        r = sharpness_report(parse_front(TREFOIL), with_oracle=True)
        payload = r.to_json_dict()
        assert payload["schema"] == 1
        assert payload["verdict"] == "sharp_certified"
        assert payload["census"] == {"2": {"good": 1, "bad": 0}}


class TestTripwires:
    def test_report_invariant_survives_optimize(self):
        # python -O strips asserts; the tb <= min_delta and verdict
        # tripwires must not
        code = (
            "from khfront import BoundReport, ConventionError\n"
            "for tb, verdict, min_delta in (\n"
            "    (2, 'sharp_certified', 1), (0, 'maybe', None)\n"
            "):\n"
            "    try:\n"
            "        BoundReport(tb=tb, C=1, min_u=0, census={},"
            " verdict=verdict, min_delta=min_delta)\n"
            "    except ConventionError:\n"
            "        continue\n"
            "    raise SystemExit(1)\n"
        )
        proc = run_optimized("-c", code, timeout=60)
        assert proc.returncode == 0, proc.stderr
