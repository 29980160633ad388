"""Independent verification back-ends: integer Khovanov homology from the
cube of resolutions, and the Jones polynomial from the Kauffman bracket.

Both work directly on a LinkDiagram and share nothing with the spanning
tree model beyond the diagram itself, so agreement between the two sides
is meaningful evidence.

Khovanov homology runs in four steps: build the differential of the whole
cube once, as sparse rows over global generator ids; check d∘d = 0 on
that full, unreduced complex; cancel unit entries by Gaussian elimination
(Bar-Natan, "Fast Khovanov homology computations", arXiv:math/0606318)
until none is left; and read ranks and torsion off the Smith normal form
of each residual (i, j) block.

Conventions: the unknot has homology Z at (0, -1) and (0, 1) (unreduced,
graded Euler characteristic (q + 1/q) times the Jones polynomial); the
0-smoothing of a crossing is the A-smoothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .diagram import A_PAIRS, B_PAIRS, LinkDiagram, _find
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


def _circle() -> LaurentPoly:
    """q + 1/q, the unknot's value."""
    return LaurentPoly.monomial(1) + LaurentPoly.monomial(-1)


def _check_oracle_input(d: LinkDiagram, max_crossings: int) -> None:
    if d.n > max_crossings:
        raise TooLarge(
            f"{d.n} crossings exceeds the oracle limit of {max_crossings}"
        )
    if d.n and d.free_loops:
        raise ConventionError("crossing-free loops alongside crossings")


class _StateLoops:
    """Loops of one full smoothing: arc index -> loop position, with loops
    canonically ordered by their minimum arc index."""

    __slots__ = ("loop_of_arc", "count", "roots")

    def __init__(self, d: LinkDiagram, port_arc, state: int):
        n_arcs = len(d.arcs)
        parent = list(range(n_arcs))
        for c in range(d.n):
            for p, q in B_PAIRS if (state >> c) & 1 else A_PAIRS:
                ra = _find(parent, port_arc[(c, p)])
                rb = _find(parent, port_arc[(c, q)])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        root = [_find(parent, x) for x in range(n_arcs)]
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
    full cube of resolutions.

    The square of the differential is verified to vanish on the whole,
    unreduced complex; unit entries are then cancelled, and each residual
    bidegree block goes through Smith normal form.
    """
    _check_oracle_input(d, max_crossings)
    if d.n == 0:
        # k disjoint unknotted circles: (q + 1/q)^k at i = 0
        if d.free_loops == 0:
            return BigradedTable({})
        return BigradedTable(
            {(0, j): (c, ()) for j, c in (_circle() ** d.free_loops).items()}
        )

    n = d.n
    n_plus, n_minus = d.positive_negative(flips)
    w = n_plus - n_minus
    port_arc = _port_arc(d)
    loops = [_StateLoops(d, port_arc, s) for s in range(1 << n)]

    # generator x = offset[s] + mask is state s with loop labels mask (bit
    # set = v+) in bidegree deg[x]; out[x] = {y: coefficient of y in dx}
    offset: list[int] = []
    deg: list[tuple[int, int]] = []
    for s, ls in enumerate(loops):
        offset.append(len(deg))
        i = s.bit_count() - n_minus
        nl = ls.count
        deg += [(i, i + w + 2 * m.bit_count() - nl) for m in range(1 << nl)]
    out: list[Optional[dict[int, int]]] = [{} for _ in deg]
    for s, ls in enumerate(loops):
        nl = ls.count
        rows = out[offset[s] : offset[s] + (1 << nl)]
        for c in range(n):
            if (s >> c) & 1:
                continue
            t = s | (1 << c)
            lt = loops[t]
            sign = -1 if (s & ((1 << c) - 1)).bit_count() % 2 else 1
            touch = sorted(
                {ls.loop_of_arc[port_arc[(c, p)]] for p in range(4)}
            )
            # unaffected loops keep their minimum arc, hence their identity;
            # base[mask] is the generator of t carrying their labels
            bit_map = [0] * nl
            for k in range(nl):
                if k not in touch:
                    bit_map[k] = 1 << lt.loop_of_arc[ls.roots[k]]
            base = [offset[t]] * (1 << nl)
            for mask in range(1, 1 << nl):
                lsb = mask & -mask
                base[mask] = base[mask ^ lsb] + bit_map[lsb.bit_length() - 1]
            if len(touch) == 2:  # merge: m(v+,v+)=v+, m(v+,v-)=v-, m(v-,v-)=0
                la, lb = touch
                tbit = 1 << lt.loop_of_arc[ls.roots[la]]
                ba, bb = 1 << la, 1 << lb
                for mask, row in enumerate(rows):
                    if mask & ba:
                        row[base[mask] + tbit if mask & bb else base[mask]] = sign
                    elif mask & bb:
                        row[base[mask]] = sign
            else:  # split: d(v+) = v+ v- + v- v+, d(v-) = v- v-
                (la,) = touch
                targets = {
                    lt.loop_of_arc[a]
                    for a in range(len(ls.loop_of_arc))
                    if ls.loop_of_arc[a] == la
                }
                if len(targets) != 2:
                    raise ConventionError("one loop must split in two")
                b1, b2 = (1 << k for k in targets)
                ba = 1 << la
                for mask, row in enumerate(rows):
                    if mask & ba:
                        row[base[mask] + b1] = sign
                        row[base[mask] + b2] = sign
                    else:
                        row[base[mask]] = sign
    _check_d_squared_zero(out)
    _cancel_units(out)

    # the residual complex has no unit entries; number its generators
    # within each bidegree and reduce each block d: (i, j) -> (i + 1, j)
    dims: dict[tuple[int, int], int] = {}
    pos: dict[int, int] = {}
    for x, row in enumerate(out):
        if row is not None:
            pos[x] = dims.get(deg[x], 0)
            dims[deg[x]] = pos[x] + 1
    blocks: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for x in pos:
        for y, v in out[x].items():
            blocks.setdefault(deg[x], {})[(pos[y], pos[x])] = v
    factors = {
        (i, jq): invariant_factors(mat, dims[(i + 1, jq)], dims[(i, jq)])
        for (i, jq), mat in blocks.items()
    }
    groups: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for (i, jq), dim in dims.items():
        f_in = factors.get((i - 1, jq), ())
        free = dim - len(factors.get((i, jq), ())) - len(f_in)
        if free < 0:
            raise ConventionError(f"negative free rank at (i, j) = ({i}, {jq})")
        groups[(i, jq)] = (free, tuple(sorted(t for t in f_in if t > 1)))
    return BigradedTable(groups)


def _check_d_squared_zero(out) -> None:
    """Raise ConventionError unless every entry of the unreduced cube
    differential is +-1 and every composite entry of d∘d is zero;
    ``out[x]`` maps each generator y to the coefficient of y in dx."""
    signed = []  # per generator: its +1 targets and its -1 targets
    for y, row in enumerate(out):
        pos = [z for z, b in row.items() if b == 1]
        neg = [z for z, b in row.items() if b == -1]
        if len(pos) + len(neg) != len(row):
            raise ConventionError(f"cube differential entry not +-1 at {y}")
        signed.append((pos, neg))
    # the paths x -> y -> z of each sign must reach the same multiset of z
    for x, row in enumerate(out):
        plus: list[int] = []
        minus: list[int] = []
        for y, a in row.items():
            pos, neg = signed[y]
            plus += pos if a == 1 else neg
            minus += neg if a == 1 else pos
        if sorted(plus) != sorted(minus):
            raise ConventionError(
                f"differential does not square to zero on generator {x}"
            )


def _cancel_units(out) -> None:
    """Gaussian elimination (Bar-Natan, arXiv:math/0606318): while some
    entry u = d(x, y) is a unit, replace d(x', y') by d(x', y') - d(x', y)
    u d(x, y') for every other x' into y and y' out of x, and delete x and
    y, which leaves the complex homotopy equivalent.  Rows that change are
    visited again; deleted generators get ``out[x] = None``."""
    # inc[y] lists the x with y in out[x]; lists, not sets, since they
    # stay short and a list costs less than half the memory
    inc: list[Optional[list[int]]] = [[] for _ in out]
    for x, row in enumerate(out):
        for y in row:
            inc[y].append(x)
    work = deque(range(len(out) - 1, -1, -1))
    while work:
        x = work.popleft()
        row = out[x]
        if not row:
            continue
        units = [(len(inc[y]), y) for y, u in row.items() if u == 1 or u == -1]
        if not units:
            continue
        y = min(units)[1]
        u = row.pop(y)
        inc[y].remove(x)
        for xp in inc[y]:
            rp = out[xp]
            f = rp.pop(y) * u
            for yp, b in row.items():
                v = rp.get(yp)
                if v is None:
                    rp[yp] = -f * b
                    inc[yp].append(xp)
                elif v == f * b:
                    del rp[yp]
                    inc[yp].remove(xp)
                else:
                    rp[yp] = v - f * b
            work.append(xp)
        for yp in row:
            inc[yp].remove(x)
        for xp in inc[x]:
            del out[xp][x]
        for z in out[y]:
            inc[z].remove(y)
        out[x] = out[y] = inc[x] = inc[y] = None


def kauffman_jones(
    d: LinkDiagram,
    flips: Optional[Sequence[bool]] = None,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> LaurentPoly:
    """Unreduced Jones polynomial in q via the Kauffman bracket state sum;
    the unknot maps to q + 1/q."""
    _check_oracle_input(d, max_crossings)
    if d.n == 0:
        return _circle() ** d.free_loops
    w = d.writhe(flips)
    port_arc = _port_arc(d)
    delta = LaurentPoly.monomial(2, -1, var="A") + LaurentPoly.monomial(
        -2, -1, var="A"
    )
    # states counted by (B-smoothings, loops): one term per class
    states: dict[tuple[int, int], int] = {}
    for s in range(1 << d.n):
        key = (s.bit_count(), _StateLoops(d, port_arc, s).count)
        states[key] = states.get(key, 0) + 1
    bracket = LaurentPoly.zero(var="A")
    for (b, loops), count in states.items():
        term = LaurentPoly.monomial(d.n - 2 * b, count, var="A")
        bracket = bracket + term * delta ** (loops - 1)
    writhe_fix = LaurentPoly.monomial(-3 * w, (-1) ** (w % 2), var="A")
    x_poly = writhe_fix * bracket
    # substitute A^2 = -1/q, then multiply by the unknot value q + 1/q
    in_q = LaurentPoly.zero()
    for e, c in x_poly.items():
        if e % 2:
            raise ConventionError("normalized bracket must have even exponents")
        k = e // 2
        in_q = in_q + LaurentPoly.monomial(-k, c * ((-1) ** (k % 2)))
    return in_q * _circle()
