"""Exact integer linear algebra for chain-complex homology.

Matrices are sparse dicts {(row, col): value}.  Invariant factors are
computed by first eliminating with unit (+-1) pivots chosen to minimize
fill, which empties typical Khovanov differentials almost completely, then
running a textbook Smith reduction on the small dense core.
"""

from __future__ import annotations

import heapq


def invariant_factors(
    entries: dict[tuple[int, int], int], n_rows: int, n_cols: int
) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form, each positive,
    each dividing the next."""
    del n_rows, n_cols  # zero rows/cols never contribute factors
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
        # sparsest rows first; heap entries are revalidated lazily
        heap = [(len(rowd), r) for r, rowd in rows.items()]
        heapq.heapify(heap)
        while heap:
            l, pr = heapq.heappop(heap)
            rowd = rows.get(pr)
            if rowd is None:
                continue
            if len(rowd) != l:
                heapq.heappush(heap, (len(rowd), pr))
                continue
            units = [
                (len(cols[c]), c) for c, val in rowd.items() if val in (1, -1)
            ]
            if not units:
                continue  # revisited on the next outer pass
            pc = min(units)[1]
            pval = rowd[pc]
            prow = dict(rowd)
            # clear column pc using row pr
            for r in list(cols[pc]):
                if r == pr:
                    continue
                mult = rows[r][pc] * pval  # pval is +-1: the exact quotient
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

    factors = [1] * unit_pivots
    if rows:
        live_rows = sorted(rows)
        live_cols = sorted({c for rowd in rows.values() for c in rowd})
        ri = {r: i for i, r in enumerate(live_rows)}
        ci = {c: i for i, c in enumerate(live_cols)}
        core = [[0] * len(live_cols) for _ in live_rows]
        for r, rowd in rows.items():
            for c, val in rowd.items():
                core[ri[r]][ci[c]] = val
        factors += _dense_smith(core)
    return factors


def _dense_smith(m: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of a small dense integer matrix."""
    m = [row[:] for row in m]
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    out: list[int] = []
    t = 0
    while True:
        # find a nonzero entry at position >= (t, t)
        piv = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                if m[i][j]:
                    if piv is None or abs(m[i][j]) < abs(m[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        i, j = piv
        m[t], m[i] = m[i], m[t]
        for row in m:
            row[t], row[j] = row[j], row[t]
        while True:
            # reduce column t
            dirty = False
            for i in range(t + 1, n_rows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    for j in range(t, n_cols):
                        m[i][j] -= q * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        dirty = True
            if dirty:
                continue
            # reduce row t
            for j in range(t + 1, n_cols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for i in range(t, n_rows):
                        m[i][j] -= q * m[i][t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty:
                break
        # enforce divisibility of later entries by the pivot
        p = abs(m[t][t])
        bad = None
        for i in range(t + 1, n_rows):
            for j in range(t + 1, n_cols):
                if m[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(t, n_cols):
                m[t][j] += m[bad][j]
            continue  # redo pivot t with the mixed-in row
        out.append(p)
        t += 1
    return out
