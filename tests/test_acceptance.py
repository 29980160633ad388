"""Acceptance suite: eight end-to-end criteria over the bundled corpus.

Each test prints exactly one PASS/FAIL line; a test only prints PASS
after all of its assertions held.
"""

import time

from khfront import (
    BUNDLED,
    bigrading_counts,
    kauffman_jones,
    khovanov_homology,
    labelled_trees,
    parse_front,
    sharpness_report,
    splice_front,
    tait_graph,
    tree_euler_characteristic,
)
from khfront.cli import EXIT_OK, main

from conftest import matrix_tree_count, quick_entries
from link_diagram import desingularize
from tait_reference import face_walk_graphs, front_corner, renumbered
from tree_reference import dual_tree

ENTRIES = {e.name: e for e in BUNDLED}


def _report(name: str):
    print(f"ACCEPTANCE {name}: PASS")


def test_1_euler_characteristic_identity():
    """Tree-model Euler characteristic == Jones == homology Euler
    characteristic on every quick-corpus diagram, within 60 s."""
    start = time.monotonic()
    for entry in quick_entries():
        front = entry.front()
        g = tait_graph(front)
        tree_side = tree_euler_characteristic(g, front.n, front.writhe)
        jones = kauffman_jones(front)
        homology_side = khovanov_homology(front).graded_euler()
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
        g = tait_graph(front)
        for rec in labelled_trees(g, front):
            assert rec.u >= 1 - c, entry.name
            _, tb_t, _ = splice_front(front, rec)
            assert tb_t <= -1 - (rec.count("d") + rec.count("Db")), entry.name
    _report("2 tree grading bound u >= 1-C and splice inequality")


def test_3_tb_bound_with_named_cases():
    """tb <= min delta on the corpus; strict for the stabilized unknot,
    equalities for unknot and right trefoil with the full integer table."""
    for entry in BUNDLED:
        front = entry.front()
        table = khovanov_homology(front)
        assert front.tb() <= table.min_delta(), entry.name
    strict = ENTRIES["unknot-stabilized"].front()
    assert strict.tb() == -2
    assert khovanov_homology(strict).min_delta() == -1
    eq = ENTRIES["unknot-max-tb"].front()
    assert eq.tb() == khovanov_homology(eq).min_delta() == -1
    tref = ENTRIES["trefoil-right-max-tb"].front()
    table = khovanov_homology(tref)
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
        if not any(good for good, _ in r.census.values()):
            assert r.tb < r.min_delta, entry.name
    _report("4 certificates consistent with the homology oracle")


def test_5_max_tb_fronts_certified_sharp():
    """The max-tb figure-eight (tb = -3) and alternating 6-crossing
    fronts are certified sharp and confirmed by the oracle."""
    fig8 = ENTRIES["figure-eight-max-tb"]
    r = sharpness_report(fig8.front(), with_oracle=True)
    assert r.verdict == "sharp_certified"
    assert r.tb == r.min_delta == -3
    alt6 = ENTRIES["granny-knot-max-tb"]
    assert alt6.crossings == 6 and alt6.alternating
    r = sharpness_report(alt6.front(), with_oracle=True)
    assert r.verdict == "sharp_certified"
    assert r.tb == r.min_delta == 3
    _report("5 supplied max-tb fronts certified sharp and oracle-confirmed")


def test_6_duality_suite():
    """Both colorings' graphs equal the face-walk reference's; the two
    are duals, with n + 2 vertices between them and every sign flipped;
    the label-swap table holds for every tree of every corpus graph and
    its complement in the other coloring's; the tree counts by (u, v),
    and so the census, are invariant under coloring reversal."""
    for entry in BUNDLED:
        front = entry.front()
        g, gr = tait_graph(front), tait_graph(front, reverse=True)
        reference = face_walk_graphs(desingularize(front), front_corner(front))
        assert [renumbered(g), renumbered(gr)] == list(map(renumbered, reference))
        assert g.n_vertices + gr.n_vertices == front.n + 2, entry.name
        assert [e.sign for e in gr.edges] == [-e.sign for e in g.edges]
        for rec in labelled_trees(g):
            dual_tree(g, gr, rec.tree)  # raises unless every label swaps
        assert bigrading_counts(g) == bigrading_counts(gr), entry.name
    _report("6 duality: face-walk reference, label swaps, census invariance")


def test_7_oracle_self_checks():
    """d^2 = 0 on every corpus complex (the oracle raises ConventionError
    on any d^2 != 0); tree count equals the matrix-tree determinant;
    unknot homology is Z at (0, +-1) only."""
    for entry in quick_entries():
        front = entry.front()
        g = tait_graph(front)
        khovanov_homology(front)  # raises ConventionError unless d^2 = 0
        assert len(list(labelled_trees(g))) == matrix_tree_count(g), entry.name
    table = khovanov_homology(parse_front("L1 R1"))
    assert table.groups == {(0, -1): (1, ()), (0, 1): (1, ())}
    _report("7 oracle self-checks: d^2=0, matrix-tree count, unknot table")


def test_8_twelve_crossing_scale(capsys):
    """A 12-crossing front completes `analyze --oracle` within 5 minutes."""
    entry = ENTRIES["four-trefoil-sum"]
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
