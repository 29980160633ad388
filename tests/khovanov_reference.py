"""Test-only references for the oracles: Khovanov homology with one
sparse matrix per bidegree and a separate Smith normal form for each, and
the Jones polynomial as a sum over all 2^n states.

It builds the differential of the cube of resolutions as one matrix per
bidegree (i, j) -> (i + 1, j), keyed by generator positions within each
bidegree, and reduces each matrix on its own: unit (+-1) pivots first,
sparsest rows first, then sympy's Smith normal form of what is left.  It
shares no reduction with the oracle it checks, which never builds the
cube: it scans the diagram one crossing at a time over dotted cobordisms,
cancels +-identity entries as it goes, and finishes the residual blocks
with its own sparse Smith reduction (``snf.invariant_factors``).  The
Jones reference enumerates the states with an arc union-find; the oracle
sweeps matchings of the open arc-ends instead.
"""

from __future__ import annotations

import heapq

from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from khfront.front import _find
from khfront.laurent import LaurentPoly
from khfront.oracle import BigradedTable, _circle
from link_diagram import A_PAIRS, B_PAIRS


def _port_arc(d) -> list[int]:
    """Port -> the index of its arc in ``d.arcs``."""
    out = [0] * (4 * d.n)
    for k, (a, b) in enumerate(d.arcs):
        out[a] = out[b] = k
    return out


class _StateLoops:
    """Loops of one full smoothing: arc index -> loop position, with loops
    canonically ordered by their minimum arc index."""

    __slots__ = ("loop_of_arc", "count", "roots")

    def __init__(self, d, port_arc, state: int):
        n_arcs = len(d.arcs)
        parent = list(range(n_arcs))
        for c in range(d.n):
            for p, q in B_PAIRS if (state >> c) & 1 else A_PAIRS:
                ra = _find(parent, port_arc[4 * c + p])
                rb = _find(parent, port_arc[4 * c + q])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        root = [_find(parent, x) for x in range(n_arcs)]
        self.roots = sorted(set(root))
        pos = {r: k for k, r in enumerate(self.roots)}
        self.loop_of_arc = [pos[r] for r in root]
        self.count = len(self.roots)


def reference_homology(d, orientations) -> list[BigradedTable]:
    """Integer Khovanov homology of a diagram with at least one crossing,
    one table per orientation in ``orientations`` (each a ``flips``
    argument).  The cube is built and reduced once, in the unshifted
    gradings h = number of B-smoothings and q = h + #v+ - #v-, since the
    orientation only shifts them by (-n-, n+ - 2 n-)."""
    assert d.n and d.free_loops == 0
    n = d.n
    port_arc = _port_arc(d)
    loops = [_StateLoops(d, port_arc, s) for s in range(1 << n)]

    # a generator is (state, label mask), bit set = v+; idx_of[s][mask] is
    # its position within its bidegree
    dims: dict[tuple[int, int], int] = {}
    idx_of: list[list[int]] = []
    for s in range(1 << n):
        h = s.bit_count()
        nl = loops[s].count
        here = []
        for mask in range(1 << nl):
            key = (h, h + 2 * mask.bit_count() - nl)
            k = dims.get(key, 0)
            here.append(k)
            dims[key] = k + 1
        idx_of.append(here)

    mats: dict[tuple[int, int], dict[tuple[int, int], int]] = {}

    def add(h, mask, nl, row, col, sign):
        mat = mats.setdefault((h, h + 2 * mask.bit_count() - nl), {})
        mat[(row, col)] = mat.get((row, col), 0) + sign

    for s in range(1 << n):
        h = s.bit_count()
        ls = loops[s]
        nl = ls.count
        for c in range(n):
            if (s >> c) & 1:
                continue
            t = s | (1 << c)
            lt = loops[t]
            sign = -1 if (s & ((1 << c) - 1)).bit_count() % 2 else 1
            touch = sorted({ls.loop_of_arc[port_arc[4 * c + p]] for p in range(4)})
            t_pos = {r: k for k, r in enumerate(lt.roots)}

            def image(mask):
                """Label mask of the untouched loops, moved to state t."""
                out = 0
                for k in range(nl):
                    if k not in touch and mask >> k & 1:
                        out |= 1 << t_pos[ls.roots[k]]
                return out

            if len(touch) == 2:  # merge: m(+,+)=+, m(+,-)=m(-,+)=-, m(-,-)=0
                la, lb = touch
                tbit = 1 << lt.loop_of_arc[ls.roots[la]]
                for mask in range(1 << nl):
                    a, b = mask >> la & 1, mask >> lb & 1
                    if a or b:
                        tmask = image(mask) | (tbit if a and b else 0)
                        add(h, mask, nl, idx_of[t][tmask], idx_of[s][mask], sign)
            else:  # split: d(+) = +- + -+, d(-) = --
                (la,) = touch
                targets = sorted(
                    {
                        lt.loop_of_arc[arc]
                        for arc, loop in enumerate(ls.loop_of_arc)
                        if loop == la
                    }
                )
                assert len(targets) == 2
                for mask in range(1 << nl):
                    col = idx_of[s][mask]
                    if mask >> la & 1:
                        for tb in targets:
                            tmask = image(mask) | 1 << tb
                            add(h, mask, nl, idx_of[t][tmask], col, sign)
                    else:
                        add(h, mask, nl, idx_of[t][image(mask)], col, sign)

    factors = {key: reference_invariant_factors(mat) for key, mat in mats.items()}
    groups = {}
    for (h, q), dim in dims.items():
        free = dim - len(factors.get((h, q), ())) - len(factors.get((h - 1, q), ()))
        assert free >= 0
        torsion = tuple(sorted(t for t in factors.get((h - 1, q), ()) if t > 1))
        groups[(h, q)] = (free, torsion)
    tables = []
    for flips in orientations:
        n_plus, n_minus = d.positive_negative(flips)
        tables.append(
            BigradedTable(
                {
                    (h - n_minus, q + n_plus - 2 * n_minus): g
                    for (h, q), g in groups.items()
                }
            )
        )
    return tables


def reference_invariant_factors(entries: dict[tuple[int, int], int]) -> list[int]:
    """Invariant factors of a sparse matrix: eliminate unit pivots, sparsest
    rows first, then reduce the core that is left with sympy."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), val in entries.items():
        if val:
            rows.setdefault(r, {})[c] = val
            cols.setdefault(c, set()).add(r)

    unit_pivots = 0
    progress = True
    while progress:
        progress = False
        heap = [(len(rowd), r) for r, rowd in rows.items()]
        heapq.heapify(heap)
        while heap:
            length, pr = heapq.heappop(heap)
            rowd = rows.get(pr)
            if rowd is None:
                continue
            if len(rowd) != length:
                heapq.heappush(heap, (len(rowd), pr))
                continue
            units = [(len(cols[c]), c) for c, val in rowd.items() if val in (1, -1)]
            if not units:
                continue
            pc = min(units)[1]
            pval = rowd[pc]
            prow = dict(rowd)
            for r in list(cols[pc]):
                if r == pr:
                    continue
                mult = rows[r][pc] * pval
                for c, val in prow.items():
                    new = rows[r].get(c, 0) - mult * val
                    if new:
                        rows[r][c] = new
                        cols[c].add(r)
                    else:
                        rows[r].pop(c, None)
                        cols[c].discard(r)
                if rows[r]:
                    heapq.heappush(heap, (len(rows[r]), r))
                else:
                    del rows[r]
            for c in prow:
                cols[c].discard(pr)
                if not cols[c]:
                    del cols[c]
            del rows[pr]
            unit_pivots += 1
            progress = True

    return [1] * unit_pivots + sympy_factors(
        {(r, c): val for r, rowd in rows.items() for c, val in rowd.items()}
    )


def sympy_factors(entries: dict[tuple[int, int], int]) -> list[int]:
    """Nonzero invariant factors of a sparse matrix by sympy."""
    live = {key: val for key, val in entries.items() if val}
    ri = {r: i for i, r in enumerate(sorted({r for r, _ in live}))}
    ci = {c: i for i, c in enumerate(sorted({c for _, c in live}))}
    m = Matrix.zeros(len(ri), len(ci))
    for (r, c), val in live.items():
        m[ri[r], ci[c]] = val
    return [int(f) for f in sympy_invariant_factors(m, domain=ZZ) if f]


def reference_jones(d, flips=None) -> LaurentPoly:
    """Unreduced Jones polynomial as a sum over all 2^n states, in the
    normalisation of ``oracle.kauffman_jones``: a state with b B-smoothings
    and k loops weighs (-q)^b (q + 1/q)^k, and the sum is multiplied by
    (-1)^{n-} q^{n+ - 2 n-}."""
    n_plus, n_minus = d.positive_negative(flips)
    port_arc = _port_arc(d)
    # states counted by (B-smoothings, loops): one term per class.  The
    # states are enumerated depth-first over the crossings; each level
    # copies the arc union-find once and keeps a running loop count
    states: dict[tuple[int, int], int] = {}
    stack = [(0, list(range(len(d.arcs))), 0, len(d.arcs) + d.free_loops)]
    while stack:
        c, parent, b, loops = stack.pop()
        if c == d.n:
            states[(b, loops)] = states.get((b, loops), 0) + 1
            continue
        for smoothing, pairs in ((1, B_PAIRS), (0, A_PAIRS)):
            here = parent[:] if smoothing else parent
            k = loops
            for p, q in pairs:
                ra = _find(here, port_arc[4 * c + p])
                rb = _find(here, port_arc[4 * c + q])
                if ra != rb:
                    here[ra] = rb
                    k -= 1
            stack.append((c + 1, here, b + smoothing, k))
    total = LaurentPoly.zero()
    for (b, loops), count in states.items():
        total = total + LaurentPoly.monomial(b, count * (-1) ** b) * _circle() ** loops
    return LaurentPoly.monomial(n_plus - 2 * n_minus, (-1) ** n_minus) * total
