"""Exact integer Smith normal form for chain-complex homology.

Matrices are sparse dicts {(row, col): value}.  The Khovanov oracle
cancels every +-identity entry of its complex while it scans the diagram
crossing by crossing (see ``oracle``), so only the small integer blocks
left after the last crossing get here, and a textbook dense Smith
reduction finishes them.
"""

from __future__ import annotations


def invariant_factors(entries: dict[tuple[int, int], int]) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form, each positive,
    each dividing the next; zero rows and columns contribute none, so the
    matrix's size is not needed."""
    live = {key: val for key, val in entries.items() if val}
    ri = {r: i for i, r in enumerate(sorted({r for r, _ in live}))}
    ci = {c: i for i, c in enumerate(sorted({c for _, c in live}))}
    core = [[0] * len(ci) for _ in ri]
    for (r, c), val in live.items():
        core[ri[r]][ci[c]] = val
    return _dense_smith(core)


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
