"""Bound reports, censuses, sharpness certificates, tripwire."""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings

import khfront
from khfront import (
    checkerboard,
    good_bad_census,
    khovanov_homology,
    ng_bound,
    parse_front,
    sharpness_report,
)

from conftest import front_words

TREFOIL = "L1 L2 X1 X1 X1 R2 R1"


class TestNgBound:
    def test_unknot_equality(self):
        r = ng_bound(parse_front("L1 R1"), with_oracle=True)
        assert (r.tb, r.min_delta, r.verdict) == (-1, -1, "bound_holds")

    def test_trefoil_equality(self):
        r = ng_bound(parse_front(TREFOIL), with_oracle=True)
        assert (r.tb, r.min_delta) == (1, 1)

    def test_stabilized_unknot_strict(self):
        r = ng_bound(parse_front("L1 L2 R1 R1"), with_oracle=True)
        assert r.tb == -2
        assert r.min_delta == -1
        assert r.bound_is_equality() is False

    def test_without_oracle(self):
        r = ng_bound(parse_front(TREFOIL))
        assert r.min_delta is None
        assert r.bound_is_equality() is None

    @settings(max_examples=20, deadline=None)
    @given(front_words(max_crossings=3, max_cusp_pairs=2))
    def test_bound_on_random_fronts(self, front):
        r = ng_bound(front, with_oracle=True)
        assert r.tb <= r.min_delta
        assert r.min_u >= 1 - r.C


class TestCensus:
    def test_unknot(self):
        assert good_bad_census(parse_front("L1 R1")) == {0: (1, 0)}

    def test_trefoil(self):
        assert good_bad_census(parse_front(TREFOIL)) == {2: (1, 0)}

    def test_stabilized_unknot(self):
        assert good_bad_census(parse_front("L1 L2 R1 R1")) == {0: (0, 1)}

    @settings(max_examples=20, deadline=None)
    @given(front_words())
    def test_census_invariant_under_coloring_reversal(self, front):
        d = front.desingularize()
        canonical, rev = checkerboard(d)
        assert good_bad_census(front, canonical) == good_bad_census(front, rev)


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
            assert r.good_total() >= 1


class TestReportShape:
    def test_json_dict(self):
        r = sharpness_report(parse_front(TREFOIL), with_oracle=True)
        payload = r.to_json_dict()
        assert payload["schema"] == 1
        assert payload["verdict"] == "sharp_certified"
        assert payload["census"] == {"2": {"good": 1, "bad": 0}}


class TestTripwires:
    def test_report_invariant_survives_optimize(self):
        # python -O strips asserts; the tb <= min_delta tripwire must not
        code = (
            "from khfront import BoundReport, ConventionError\n"
            "try:\n"
            "    BoundReport(tb=2, C=1, min_u=0, census={},"
            " verdict='bound_holds', min_delta=1)\n"
            "except ConventionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = str(Path(khfront.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, timeout=60
        )
        assert proc.returncode == 0
