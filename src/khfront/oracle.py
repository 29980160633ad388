"""Independent verification back-ends: integer Khovanov homology from the
cube of resolutions, and the Jones polynomial from the Kauffman bracket.

Both work directly on a LinkDiagram and share nothing with the spanning
tree model beyond the diagram itself, so agreement between the two sides
is meaningful evidence.

Conventions: the unknot has homology Z at (0, -1) and (0, 1) (unreduced,
graded Euler characteristic (q + 1/q) times the Jones polynomial); the
0-smoothing of a crossing is the A-smoothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .diagram import A_PAIRS, B_PAIRS, LinkDiagram
from .errors import ConventionError, EmptyTable, TooLarge
from .laurent import LaurentPoly
from .snf import invariant_factors

DEFAULT_MAX_CROSSINGS = 14


@dataclass(frozen=True)
class BigradedTable:
    """Finitely supported table of abelian groups indexed by (i, j):
    a free rank and a tuple of torsion orders per bidegree."""

    groups: dict[tuple[int, int], tuple[int, tuple[int, ...]]]

    def __post_init__(self):
        # a filtered copy: the caller's dict is left as it was
        nonzero = {key: g for key, g in self.groups.items() if g[0] or g[1]}
        object.__setattr__(self, "groups", nonzero)

    def rank(self, i: int, j: int) -> int:
        return self.groups.get((i, j), (0, ()))[0]

    def torsion(self, i: int, j: int) -> tuple[int, ...]:
        return self.groups.get((i, j), (0, ()))[1]

    def support(self) -> list[tuple[int, int]]:
        return sorted(self.groups)

    def min_delta(self) -> int:
        """min of j - i over the support; the diagram-side bound datum."""
        if not self.groups:
            raise EmptyTable("homology table has empty support")
        return min(j - i for i, j in self.groups)

    def graded_euler(self) -> LaurentPoly:
        total = LaurentPoly.zero()
        for (i, j), (rank, _) in self.groups.items():
            total = total + LaurentPoly.monomial(j, ((-1) ** (i % 2)) * rank)
        return total

    def to_json_dict(self) -> dict:
        return {
            "groups": [
                {"i": i, "j": j, "rank": rank, "torsion": list(torsion)}
                for (i, j), (rank, torsion) in sorted(self.groups.items())
            ]
        }

    def pretty(self) -> str:
        lines = []
        for (i, j), (rank, torsion) in sorted(self.groups.items()):
            parts = ["Z"] * rank + [f"Z/{t}" for t in torsion]
            lines.append(f"  ({i:>3}, {j:>3})  " + " + ".join(parts))
        return "\n".join(lines) or "  (empty)"


def _port_arc(d: LinkDiagram) -> dict[tuple[int, int], int]:
    out = {}
    for idx, (a, b) in enumerate(d.arcs):
        out[a] = idx
        out[b] = idx
    return out


class _StateLoops:
    """Loops of one full smoothing: arc index -> loop position, with loops
    canonically ordered by their minimum arc index."""

    __slots__ = ("loop_of_arc", "count", "roots")

    def __init__(self, d: LinkDiagram, port_arc, state: int):
        n_arcs = len(d.arcs)
        parent = list(range(n_arcs))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for c in range(d.n):
            for p, q in B_PAIRS if (state >> c) & 1 else A_PAIRS:
                ra, rb = find(port_arc[(c, p)]), find(port_arc[(c, q)])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        root = [find(x) for x in range(n_arcs)]
        self.roots = sorted(set(root))
        pos = {r: k for k, r in enumerate(self.roots)}
        self.loop_of_arc = [pos[r] for r in root]
        self.count = len(self.roots)


def khovanov_homology(
    d: LinkDiagram,
    flips: Optional[Sequence[bool]] = None,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> BigradedTable:
    """Integer Khovanov homology of an oriented diagram, computed from the
    full cube of resolutions with Smith normal form over Z.

    The square of the differential is verified to vanish on every
    computed complex.
    """
    if d.n > max_crossings:
        raise TooLarge(
            f"{d.n} crossings exceeds the oracle limit of {max_crossings}"
        )
    if d.n == 0:
        # k disjoint unknotted circles: (q + 1/q)^k at i = 0
        poly = LaurentPoly.monomial(1) + LaurentPoly.monomial(-1)
        out = poly**d.free_loops if d.free_loops else LaurentPoly({0: 1})
        if d.free_loops == 0:
            return BigradedTable({})
        return BigradedTable(
            {(0, j): (c, ()) for j, c in out.items()}
        )
    assert d.free_loops == 0, "crossing-free loops alongside crossings"

    n = d.n
    n_plus, n_minus = d.positive_negative(flips)
    w = n_plus - n_minus
    port_arc = _port_arc(d)
    loops = [_StateLoops(d, port_arc, s) for s in range(1 << n)]

    # index all generators; a generator is (state, label mask) and lives in
    # bidegree (i, j).  idx_of[s][mask] is its index within that bucket.
    dims: dict[tuple[int, int], int] = {}
    idx_of: list[list[int]] = []
    for s in range(1 << n):
        i = s.bit_count() - n_minus
        nl = loops[s].count
        here = []
        for mask in range(1 << nl):
            key = (i, i + w + 2 * mask.bit_count() - nl)
            k = dims.get(key, 0)
            here.append(k)
            dims[key] = k + 1
        idx_of.append(here)

    # differentials, one sparse matrix per (i, j) mapping into (i+1, j)
    mats: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for s in range(1 << n):
        i = s.bit_count() - n_minus
        ls = loops[s]
        nl = ls.count
        cols = idx_of[s]
        for c in range(n):
            if (s >> c) & 1:
                continue
            t = s | (1 << c)
            lt = loops[t]
            rows = idx_of[t]
            sign = -1 if (s & ((1 << c) - 1)).bit_count() % 2 else 1
            touch = sorted(
                {ls.loop_of_arc[port_arc[(c, p)]] for p in range(4)}
            )
            # unaffected loops keep their minimum arc, hence their identity
            t_pos_of_root = {r: k for k, r in enumerate(lt.roots)}
            bit_map = [0] * nl
            for k in range(nl):
                if k not in touch:
                    bit_map[k] = 1 << t_pos_of_root[ls.roots[k]]
            base = [0] * (1 << nl)
            for mask in range(1, 1 << nl):
                lsb = mask & -mask
                base[mask] = base[mask ^ lsb] | bit_map[lsb.bit_length() - 1]
            if len(touch) == 2:  # merge: m(v+,v+)=v+, m(v+,v-)=v-, m(v-,v-)=0
                la, lb = touch
                tbit = 1 << lt.loop_of_arc[ls.roots[la]]
                ba, bb = 1 << la, 1 << lb
                for mask in range(1 << nl):
                    if mask & ba:
                        tmask = (base[mask] | tbit) if mask & bb else base[mask]
                    elif mask & bb:
                        tmask = base[mask]
                    else:
                        continue
                    jq = i + w + 2 * mask.bit_count() - nl
                    mat = mats.setdefault((i, jq), {})
                    key = (rows[tmask], cols[mask])
                    mat[key] = mat.get(key, 0) + sign
            else:  # split: d(v+) = v+ v- + v- v+, d(v-) = v- v-
                (la,) = touch
                targets = sorted(
                    {
                        lt.loop_of_arc[a]
                        for a in range(len(ls.loop_of_arc))
                        if ls.loop_of_arc[a] == la
                    }
                )
                assert len(targets) == 2, "one loop must split in two"
                b1, b2 = 1 << targets[0], 1 << targets[1]
                ba = 1 << la
                for mask in range(1 << nl):
                    jq = i + w + 2 * mask.bit_count() - nl
                    mat = mats.setdefault((i, jq), {})
                    col = cols[mask]
                    if mask & ba:
                        for tmask in (base[mask] | b1, base[mask] | b2):
                            key = (rows[tmask], col)
                            mat[key] = mat.get(key, 0) + sign
                    else:
                        key = (rows[base[mask]], col)
                        mat[key] = mat.get(key, 0) + sign
    _check_d_squared_zero(mats)

    groups: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    factors: dict[tuple[int, int], list[int]] = {}
    ranks: dict[tuple[int, int], int] = {}
    for key, mat in mats.items():
        i, jq = key
        f = invariant_factors(mat, dims.get((i + 1, jq), 0), dims[key])
        factors[key] = f
        ranks[key] = len(f)
    for (i, jq), dim in dims.items():
        rank_out = ranks.get((i, jq), 0)
        rank_in = ranks.get((i - 1, jq), 0)
        free = dim - rank_out - rank_in
        torsion = tuple(sorted(t for t in factors.get((i - 1, jq), []) if t > 1))
        assert free >= 0
        if free or torsion:
            groups[(i, jq)] = (free, torsion)
    return BigradedTable(groups)


def _check_d_squared_zero(mats) -> None:
    """Raise ConventionError unless every composite d(i+1) d(i) of the
    sparse differentials ``mats``, keyed by (i, j), is zero."""
    by_col: dict[tuple[int, int], dict[int, list[tuple[int, int]]]] = {}
    for key, mat in mats.items():
        cols = by_col.setdefault(key, {})
        for (r, c), val in mat.items():
            cols.setdefault(c, []).append((r, val))
    for (i, jq), mat in mats.items():
        nxt = by_col.get((i + 1, jq))
        if not nxt:
            continue
        acc: dict[tuple[int, int], int] = {}
        for (r, c), val in mat.items():
            for r2, val2 in nxt.get(r, ()):
                key = (r2, c)
                acc[key] = acc.get(key, 0) + val * val2
        if any(acc.values()):
            raise ConventionError(
                f"differential does not square to zero at (i, j) = ({i}, {jq})"
            )


def kauffman_jones(
    d: LinkDiagram, flips: Optional[Sequence[bool]] = None
) -> LaurentPoly:
    """Unreduced Jones polynomial in q via the Kauffman bracket state sum;
    the unknot maps to q + 1/q."""
    if d.n == 0:
        circle = LaurentPoly.monomial(1) + LaurentPoly.monomial(-1)
        return circle**d.free_loops
    assert d.free_loops == 0
    w = d.writhe(flips)
    port_arc = _port_arc(d)
    delta = LaurentPoly.monomial(2, -1, var="A") + LaurentPoly.monomial(
        -2, -1, var="A"
    )
    bracket = LaurentPoly.zero(var="A")
    for s in range(1 << d.n):
        b = bin(s).count("1")
        loops = _StateLoops(d, port_arc, s).count
        term = LaurentPoly.monomial(d.n - 2 * b, 1, var="A") * delta ** (loops - 1)
        bracket = bracket + term
    writhe_fix = LaurentPoly.monomial(-3 * w, (-1) ** (w % 2), var="A")
    x_poly = writhe_fix * bracket
    # substitute A^2 = -1/q, then multiply by the unknot value q + 1/q
    in_q = LaurentPoly.zero()
    for e, c in x_poly.items():
        assert e % 2 == 0, "normalized bracket must have even exponents"
        k = e // 2
        in_q = in_q + LaurentPoly.monomial(-k, c * ((-1) ** (k % 2)))
    return in_q * (LaurentPoly.monomial(1) + LaurentPoly.monomial(-1))
