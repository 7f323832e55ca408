"""Kernels of integer matrices modulo n.

Row operations invertible mod n keep the solutions of A c == 0 (mod n),
and column operations A -> A V turn them into c = V y.  _diagonalize
applies both until A is diagonal mod n, with d_j on column j (0 where no
pivot fell).  Then there are prod(gcd(d_j, n)) solutions: c = V y mod n,
where y_j runs over the multiples of n // gcd(d_j, n).
"""

from itertools import product
from math import gcd, prod


def _subtract(dst: dict, src: dict, q: int, n: int) -> None:
    """dst -= q * src mod n, on sparse vectors {index: nonzero residue},
    each residue taken in (-n/2, n/2]."""
    for k, x in src.items():
        y = (dst.get(k, 0) - q * x) % n
        if y:
            dst[k] = y - n if 2 * y > n else y
        else:
            dst.pop(k, None)


def _diagonalize(matrix, ncols: int, n: int):
    """Return (diag, v): column j's diagonal entry and column j of V.

    Each round pivots on the nonzero entry p of least absolute value and
    clears its column by row operations.  Then its row is cleared by column
    operations, which, with p alone in its column, change only that row and
    V.  A nonzero remainder is smaller than p, so the rounds end.
    """
    if n < 1:
        raise ValueError("modulus must be >= 1")
    rows = [{} for _ in matrix]
    for row, entries in zip(rows, matrix):
        _subtract(row, dict(enumerate(entries)), -1, n)
    v = [{j: 1} for j in range(ncols)]
    diag = [0] * ncols
    while rows := [row for row in rows if row]:
        best = (n, 0, 0)
        for i, row in enumerate(rows):
            for j, x in row.items():
                if abs(x) < best[0]:
                    best = (abs(x), i, j)
            if best[0] == 1:
                break
        _, i, j = best
        pivot = rows[i]
        p = pivot[j]
        for row in rows:
            if row is not pivot and j in row:
                _subtract(row, pivot, row[j] // p, n)
        if any(j in row for row in rows if row is not pivot):
            continue
        for k in [k for k in pivot if k != j]:
            _subtract(v[k], v[j], pivot[k] // p, n)
            _subtract(pivot, {k: p}, pivot[k] // p, n)
        if len(pivot) == 1:
            diag[j] = pivot.pop(j)
    return diag, v


def kernel_count_mod(matrix, ncols: int, n: int) -> int:
    """Number of c in Z_n^ncols with matrix @ c == 0 (mod n)."""
    return prod(gcd(d, n) for d in _diagonalize(matrix, ncols, n)[0])


def kernel_vectors_mod(matrix, ncols: int, n: int):
    """All kernel vectors mod n, unsorted; use only when the count is small."""
    diag, v = _diagonalize(matrix, ncols, n)
    out = []
    for y in product(*(range(0, n, n // gcd(d, n)) for d in diag)):
        c = [0] * ncols
        for yj, column in zip(y, v):
            for i, x in column.items():
                c[i] += x * yj
        out.append(tuple(x % n for x in c))
    return out
