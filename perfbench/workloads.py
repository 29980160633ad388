"""Seeded inputs for the khfront benchmark, with expected values computed
independently of khfront.

Every front is built from pieces whose invariants are known in closed
form, so each CLI output can be checked without trusting the code under
test:

* connected sums ``L1 <blocks> R1`` of the blocks below.  A sum of k blocks
  has tb = sum(tb) + k - 1, tree count = product(trees), k + 1 cusp pairs,
  and unreduced Jones polynomial (q + 1/q) * product(reduced Jones);
* 3-strand closures ``L1 L2 L3 <X1/X2 word> R3 R2 R1``.  They have
  tb = (letters) - 3, and their canonical Tait graph is a "wheel": a cycle
  through the m regions between strands 1 and 2 (one edge per X1), plus
  one spoke per X2 from the current region to the hub region inside the
  third cusp.  Its tree count comes from Kirchhoff's matrix-tree theorem;
* 2-strand twists ``L1 L2 X1^n R2 R1``: tb = n - 2, Tait graph the n-cycle,
  so n trees of n - 1 edges.

The seed picks block orders, closure words and trefoil positions.  The
cost class of every front (its crossing count, block composition, tree
count window) is fixed per workload, so that run-to-run timing reflects
the program and not the draw.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

#: block -> (event word, tb of ``L1 <block> R1``, spanning trees, reduced
#: Jones polynomial as {exponent of q: coefficient})
BLOCKS = {
    "K": ("L2 X1 R2", -1, 1, {0: 1}),  # kink: one-crossing unknot
    "T": ("L2 X1 X1 X1 R2", 1, 3, {2: 1, 6: 1, 8: -1}),  # right trefoil
    "H": ("L2 X1 X1 R2", 0, 2, {1: 1, 5: 1}),  # positive Hopf clasp
}

WORKLOADS = ("oracle", "census", "long-front")

#: oracle workload: block compositions of 6-11 crossings.  Cube cost
#: depends on the composition far more than on the block order, so the
#: compositions are fixed and the seed shuffles each one.  Five
#: 7-crossing sums put the median inside one group of similar ops, and
#: the three 10-crossing sums share a composition so the ops around the
#: tail rank are alike too.
ORACLE_SUMS = (
    "TT", "THK", "TTK", "THH", "TTK", "THH", "TTK", "TTKK", "THHK", "TTT",
    "TTHK", "TTTK", "TTTK", "TTTK", "TTTH",
)

#: census workload: (word length, lowest and highest admissible tree
#: count) per closure; the windows pin the cost of each slot.
CENSUS_CLOSURES = (
    (12, 100, 150), (13, 150, 220), (14, 250, 330),
    (15, 380, 460), (16, 550, 650), (16, 750, 900),
)
#: census workload: twist lengths.  Twists cost the same for every seed:
#: 45 and 50 put the median among them, and analyze on 77 and 79 costs
#: about as much as trees on 91, which keeps the tail rank inside one
#: group of ops.
CENSUS_TWISTS = (41, 45, 50, 57, 77, 79, 91)

#: long-front workload: kink-chain crossing counts before jitter, plus
#: one 1500-crossing chain per round.  Sizes are dense around the median,
#: and the two 540 chains hold the p70 rank.
LONG_SIZES = (300, 340, 390, 420, 450, 480, 540, 540, 620)
LONG_MAX = 1500


@dataclass(frozen=True)
class Case:
    """One front with the values its outputs must show."""

    name: str
    word: str
    tb: int
    trees: int
    cusp_pairs: int
    tree_edges: Optional[int] = None  # edges per spanning tree, when known
    jones: Optional[dict[int, int]] = None  # unreduced Jones, when known
    verdict: Optional[str] = None  # expected sharpness verdict, when known


@dataclass(frozen=True)
class Op:
    """One ``khfront.cli.main`` call, without ``--json --out``."""

    command: str
    argv: tuple[str, ...]
    case: Optional[Case] = None


def _poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def block_sum(name: str, blocks: list[str]) -> Case:
    jones = {1: 1, -1: 1}
    for b in blocks:
        jones = _poly_mul(jones, BLOCKS[b][3])
    trees = 1
    for b in blocks:
        trees *= BLOCKS[b][2]
    return Case(
        name=name,
        word="L1 " + " ".join(BLOCKS[b][0] for b in blocks) + " R1",
        tb=sum(BLOCKS[b][1] for b in blocks) + len(blocks) - 1,
        trees=trees,
        cusp_pairs=len(blocks) + 1,
        jones=jones,
    )


def _determinant(m: list[list[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def wheel_tree_count(letters: list[str]) -> tuple[int, int]:
    """(spanning trees, vertices) of a closure's canonical Tait graph."""
    m = letters.count("X1")
    lap = [[0] * (m + 1) for _ in range(m + 1)]
    region = 0
    for x in letters:
        if x == "X1":
            a, b = 1 + region % m, 1 + (region + 1) % m
            region += 1
        else:
            a, b = 0, 1 + region % m
        if a != b:
            lap[a][a] += 1
            lap[b][b] += 1
            lap[a][b] -= 1
            lap[b][a] -= 1
    return _determinant([row[1:] for row in lap[1:]]), m + 1


def closure(name: str, letters: list[str], trees: int, vertices: int) -> Case:
    return Case(
        name=name,
        word="L1 L2 L3 " + " ".join(letters) + " R3 R2 R1",
        tb=len(letters) - 3,
        trees=trees,
        cusp_pairs=3,
        tree_edges=vertices - 1,
    )


def twist(name: str, n: int) -> Case:
    return Case(
        name=name,
        word="L1 L2 " + "X1 " * n + "R2 R1",
        tb=n - 2,
        trees=n,
        cusp_pairs=2,
        tree_edges=n - 1,
    )


def _closure_word(rng: random.Random, length: int, lo: int, hi: int) -> list[str]:
    while True:  # between one draw in three and one in eight lands in a window
        letters = [rng.choice(("X1", "X2")) for _ in range(length)]
        if "X1" in letters and "X2" in letters:
            trees, _ = wheel_tree_count(letters)
            if lo <= trees <= hi:
                return letters


def build(name: str, seed: int, workdir: Path, corpus_module) -> list[Op]:
    """One round of the workload's ops, generated from its seed.

    The oracle workload also materializes the bundled corpus under
    ``workdir`` through ``corpus_module.write_corpus_dir``.
    """
    rng = random.Random(f"{name}:{seed}")
    ops: list[Op] = []
    if name == "oracle":
        for k, comp in enumerate(ORACLE_SUMS):
            blocks = list(comp)
            rng.shuffle(blocks)
            case = block_sum(f"sum{k}", blocks)
            ops += [
                Op("analyze", ("analyze", case.word, "--oracle"), case),
                Op("homology", ("homology", case.word), case),
                Op("jones", ("jones", case.word), case),
            ]
        corpus_dir = workdir / "corpus"
        corpus_module.write_corpus_dir(corpus_dir)
        # --jobs stays within the cores this process may use
        jobs = str(min(2, len(os.sched_getaffinity(0))))
        ops.append(Op("corpus", ("corpus", str(corpus_dir), "--oracle", "--jobs", jobs)))
    elif name == "census":
        for k, (length, lo, hi) in enumerate(CENSUS_CLOSURES):
            letters = _closure_word(rng, length, lo, hi)
            trees, vertices = wheel_tree_count(letters)
            ops += _census_ops(closure(f"closure{k}", letters, trees, vertices))
        for n in CENSUS_TWISTS:
            ops += _census_ops(twist(f"twist{n}", n))
    elif name == "long-front":
        for k, size in enumerate(LONG_SIZES):
            case = _chain(rng, f"chain{k}", size, size // 50)
            ops += [
                Op("analyze", ("analyze", case.word), case),
                Op("certify", ("certify", case.word), case),
            ]
        # no jitter: this op sets the workload's peak memory
        case = _chain(rng, "chain-long", LONG_MAX, 0)
        ops.append(Op("analyze", ("analyze", case.word), case))
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    return ops


def _chain(rng: random.Random, name: str, size: int, jitter: int) -> Case:
    """A kink chain of ``size`` +- ``jitter`` crossings with up to two
    trefoils."""
    n_trefoils = rng.randrange(3)
    n_kinks = size + rng.randrange(-jitter, jitter + 1) - 3 * n_trefoils
    blocks = ["K"] * n_kinks + ["T"] * n_trefoils
    rng.shuffle(blocks)
    # every chain is a max-tb sum whose census certifies sharpness
    return replace(block_sum(name, blocks), jones=None, verdict="sharp_certified")


def _census_ops(case: Case) -> list[Op]:
    return [
        Op("analyze", ("analyze", case.word), case),
        Op("trees", ("trees", case.word), case),
    ]
