"""Bound reports, censuses, sharpness certificates, tripwire."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khfront import (
    FrontDiagram,
    checkerboard,
    kauffman_jones,
    khovanov_homology,
    parse_front,
    sharpness_report,
    tait_graph,
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
        table = khovanov_homology(front.desingularize())
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
            d = front.desingularize()
            g = tait_graph(d, checkerboard(d)[0])
            assert r.tree_count == matrix_tree_count(g)

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
        d, e = front.desingularize(), stabilized.desingularize()
        if d.component_count() == 1:
            jones = kauffman_jones(d, max_crossings=max_crossings)
            assert kauffman_jones(e, max_crossings=max_crossings) == jones
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
            n = front.crossing_count
            self.check(front, self.seeded(front, seed), max_crossings=n)

    @pytest.mark.parametrize("seed", range(4))
    def test_torus_3_20(self, seed):
        front = parse_front("L1 L2 L3 " + "X1 X2 " * 20 + "R3 R2 R1")
        assert sharpness_report(front).verdict == "sharp_certified"
        self.check(front, self.seeded(front, seed), max_crossings=40)


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
