"""Acceptance suite: eight end-to-end criteria over the bundled corpus.

Each test prints exactly one PASS/FAIL line; a test only prints PASS
after all of its assertions held.
"""

import time

from khfront import (
    BUNDLED,
    checkerboard,
    classify_activities,
    dual_graph,
    dual_tree,
    good_bad_census,
    kauffman_jones,
    khovanov_homology,
    parse_front,
    quick_entries,
    sharpness_report,
    spanning_trees,
    splice_front,
    tait_graph,
    tree_euler_characteristic,
)
from khfront.cli import EXIT_OK, main
from khfront.corpus import entry_by_name

from conftest import matrix_tree_count


def _report(name: str):
    print(f"ACCEPTANCE {name}: PASS")


def _graph(front, coloring=None):
    d = front.desingularize()
    if coloring is None:
        coloring, _ = checkerboard(d)
    return d, tait_graph(d, coloring)


def test_1_euler_characteristic_identity():
    """Tree-model Euler characteristic == Jones == homology Euler
    characteristic on every quick-corpus diagram, within 60 s."""
    start = time.monotonic()
    for entry in quick_entries():
        front = entry.front()
        d, g = _graph(front)
        tree_side = tree_euler_characteristic(g, d.n, d.writhe())
        jones = kauffman_jones(d)
        homology_side = khovanov_homology(d).graded_euler()
        assert tree_side == jones == homology_side, entry.name
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"{elapsed:.1f}s > 60s"
    _report("1 euler-characteristic identity (tree == jones == homology)")


def test_2_tree_grading_lower_bound_and_splice():
    """u(T) >= 1 - C(F) for every tree of every corpus front, and the
    spliced front satisfies tb(F_T) <= -1 - (#d + #Db), with tb(F_T)
    recomputed independently by event-word surgery."""
    for entry in BUNDLED:
        front = entry.front()
        c = front.cusp_count
        _, g = _graph(front)
        for t in spanning_trees(g):
            rec = classify_activities(g, t, front)
            assert rec.u >= 1 - c, entry.name
            _, tb_t, _ = splice_front(front, rec)
            assert tb_t <= -1 - (rec.count("d") + rec.count("Db")), entry.name
    _report("2 tree grading bound u >= 1-C and splice inequality")


def test_3_tb_bound_with_named_cases():
    """tb <= min delta on the corpus; strict for the stabilized unknot,
    equalities for unknot and right trefoil with the full integer table."""
    for entry in BUNDLED:
        front = entry.front()
        table = khovanov_homology(front.desingularize())
        assert front.tb() <= table.min_delta(), entry.name
    strict = entry_by_name("unknot-stabilized").front()
    assert strict.tb() == -2
    assert khovanov_homology(strict.desingularize()).min_delta() == -1
    eq = entry_by_name("unknot-max-tb").front()
    assert eq.tb() == khovanov_homology(eq.desingularize()).min_delta() == -1
    tref = entry_by_name("trefoil-right-max-tb").front()
    table = khovanov_homology(tref.desingularize())
    assert tref.tb() == table.min_delta() == 1
    assert table.groups == {
        (0, 1): (1, ()),
        (0, 3): (1, ()),
        (2, 5): (1, ()),
        (3, 7): (0, (2,)),
        (3, 9): (1, ()),
    }
    _report("3 tb <= min delta, strict and equality cases as expected")


def test_4_certificates_consistent_with_oracle():
    """sharp_certified implies tb = min delta; zero good trees implies
    tb < min delta; sharpness_report aborts on any counterexample."""
    for entry in BUNDLED:
        r = sharpness_report(entry.front(), with_oracle=True)
        if r.verdict == "sharp_certified":
            assert r.tb == r.min_delta, entry.name
        if r.good_total() == 0:
            assert r.tb < r.min_delta, entry.name
    _report("4 certificates consistent with the homology oracle")


def test_5_max_tb_fronts_certified_sharp():
    """The max-tb figure-eight (tb = -3) and alternating 6-crossing
    fronts are certified sharp and confirmed by the oracle."""
    fig8 = entry_by_name("figure-eight-max-tb")
    r = sharpness_report(fig8.front(), with_oracle=True)
    assert r.verdict == "sharp_certified"
    assert r.tb == r.min_delta == -3
    alt6 = entry_by_name("granny-knot-max-tb")
    assert alt6.crossings == 6 and alt6.alternating
    r = sharpness_report(alt6.front(), with_oracle=True)
    assert r.verdict == "sharp_certified"
    assert r.tb == r.min_delta == 3
    _report("5 supplied max-tb fronts certified sharp and oracle-confirmed")


def test_6_duality_suite():
    """Double dual is the identity; the label-swap table holds for every
    tree of every corpus graph; census invariant under coloring reversal."""
    for entry in BUNDLED:
        front = entry.front()
        d = front.desingularize()
        canonical, rev = checkerboard(d)
        g = tait_graph(d, canonical)
        gd = dual_graph(g)
        assert dual_graph(gd).matched_to(g), entry.name
        assert gd.isomorphic_to(tait_graph(d, rev)), entry.name
        for t in spanning_trees(g):
            dual_tree(g, t)  # asserts the edgewise label swaps
        assert good_bad_census(front, canonical) == good_bad_census(
            front, rev
        ), entry.name
    _report("6 duality: involution, label swaps, census invariance")


def test_7_oracle_self_checks():
    """d^2 = 0 on every corpus complex (the oracle raises ConventionError
    on any d^2 != 0); tree count equals the matrix-tree determinant;
    unknot homology is Z at (0, +-1) only."""
    for entry in quick_entries():
        front = entry.front()
        d, g = _graph(front)
        khovanov_homology(d)  # raises ConventionError unless d^2 = 0
        assert len(list(spanning_trees(g))) == matrix_tree_count(g), entry.name
    table = khovanov_homology(parse_front("L1 R1").desingularize())
    assert table.groups == {(0, -1): (1, ()), (0, 1): (1, ())}
    _report("7 oracle self-checks: d^2=0, matrix-tree count, unknot table")


def test_8_twelve_crossing_scale(capsys):
    """A 12-crossing front completes `analyze --oracle` within 5 minutes."""
    entry = entry_by_name("four-trefoil-sum")
    assert entry.crossings == 12
    start = time.monotonic()
    code = main(["analyze", entry.word, "--oracle", "--json"])
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    assert '"verdict": "sharp_certified"' in captured.out
    assert elapsed <= 300.0, f"{elapsed:.1f}s > 300s"
    with capsys.disabled():
        print()
        _report(f"8 twelve-crossing analyze --oracle in {elapsed:.1f}s (<= 300s)")
