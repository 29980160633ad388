"""Exact integer Smith normal form for chain-complex homology.

Matrices are sparse dicts {(row, col): value}.  The Khovanov oracle
cancels every +-identity entry of its complex while it scans the diagram
crossing by crossing (see ``oracle``), so only the integer blocks left
after the last crossing get here.  They are large but sparse, and one
sparse reduction finishes them on their own row and column dicts: pivot
on an entry of least |value|, clear its column and then its row by floor
division, and record |pivot| once both are clear; a nonzero remainder is
smaller than the pivot, so the least entry keeps falling until one does
clear.  The recorded diagonal becomes invariant factors by gcd/lcm
pairs, since diag(a, b) ~ diag(gcd(a, b), lcm(a, b)).
"""

from __future__ import annotations

from math import gcd, lcm


def invariant_factors(entries: dict[tuple[int, int], int]) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form, each positive,
    each dividing the next; zero rows and columns contribute none, so the
    matrix's size is not needed."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), val in entries.items():
        if val:
            rows.setdefault(r, {})[c] = val
            cols.setdefault(c, set()).add(r)

    def put(r: int, c: int, val: int) -> None:
        if val:
            rows[r][c] = val
            cols[c].add(r)
        else:
            rows[r].pop(c, None)
            cols[c].discard(r)

    diag: list[int] = []
    while rows:
        # least |value|, then the fewest entries in its row and column
        _, _, r, c = min(
            (abs(val), len(row) + len(cols[c]), r, c)
            for r, row in rows.items()
            for c, val in row.items()
        )
        p, prow = rows[r][c], rows[r]
        for r2 in cols[c] - {r}:
            q = rows[r2][c] // p
            for c2, val in prow.items():
                put(r2, c2, rows[r2].get(c2, 0) - q * val)
            if not rows[r2]:
                del rows[r2]
        if len(cols[c]) > 1:
            continue
        # column c holds p alone, so a column operation moves row r only
        for c2 in [c2 for c2 in prow if c2 != c]:
            put(r, c2, prow[c2] % p)
        if len(prow) > 1:
            continue
        diag.append(abs(p))
        del rows[r], cols[c]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return diag
