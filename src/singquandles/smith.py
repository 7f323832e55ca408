"""Kernels of integer matrices modulo n.

A system is a list of sparse rows {column: residue}, each residue nonzero
and taken in (-n/2, n/2]; the linear counter (coloring._substitute) builds
its residual rows so with _sparse_row.  Row operations invertible mod n
keep the solutions of A c == 0 (mod n), and column operations A -> A V
turn them into c = V y.  _diagonalize applies both until each row left
holds one entry d_j, on a column j of its own; a column that holds no such
entry has d_j = 0.  Then there are prod(gcd(d_j, n)) solutions: c = V y
mod n, where y_j runs over the multiples of n // gcd(d_j, n).  V is kept
only when the counter lists the solutions.

The elimination's cost follows the nonzero entries: a column index maps
each column to the rows that hold it, so clearing a column visits only
those rows.
"""

from collections import defaultdict
from math import gcd, prod


def _sparse_row(entries, n: int) -> dict:
    """The sparse row of a dense row's entries mod n, each nonzero residue
    taken in (-n/2, n/2] and each zero left out."""
    return {k: y - n if 2 * y > n else y
            for k, x in enumerate(entries) if (y := x % n)}


def _subtract(rows: list, h: int, src: dict, q: int, n: int, index: dict) -> None:
    """rows[h] -= q * src mod n, and the column index follows its fill-in
    and cancellation."""
    dst = rows[h]
    for k, x in src.items():
        old = dst.get(k, 0)
        y = (old - q * x) % n
        if y:
            dst[k] = y - n if 2 * y > n else y
            if not old:
                index[k].add(h)
        elif old:
            del dst[k]
            index[k].remove(h)


def _combine(dst: dict, src: dict, q: int, n: int) -> None:
    """dst -= q * src mod n, on sparse columns of V."""
    for k, x in src.items():
        y = (dst.get(k, 0) - q * x) % n
        if y:
            dst[k] = y
        else:
            dst.pop(k, None)


def _least(row: dict, columns) -> int:
    """The column of the row's entry of least absolute value."""
    return min(columns, key=lambda k: abs(row[k]))


def _diagonalize(rows: list, n: int, v: list | None = None) -> dict:
    """Diagonalize the sparse rows in place; return {j: d_j} for the
    columns with a nonzero d_j.  v, if given, holds the columns of V as
    sparse vectors, and takes the column operations too.

    A pass starts at the first row left, on its entry p of least absolute
    value, in column j.  The other rows that hold column j are reduced by
    the pivot row; a remainder left in column j is smaller than p, and the
    least one is the next pivot.  Once p is alone in its column, its row is
    cleared by column operations, which change only that row and V; a
    remainder left there is smaller than p too, and the next pivot.  Once p
    is alone in its row as well, d_j = p and the pass ends.  Pivots shrink
    within a pass, so each pass ends, and each takes one row out.
    """
    index = defaultdict(set)
    for h, row in enumerate(rows):
        for k in row:
            index[k].add(h)
    diag = {}
    for start, row in enumerate(rows):
        while row:
            i, j = start, _least(row, row)
            while True:
                p = row[j]
                left = None
                for h in list(index[j]):
                    if h != i:
                        other = rows[h]
                        _subtract(rows, h, row, other[j] // p, n, index)
                        if j in other and (left is None
                                           or abs(other[j]) < abs(rows[left][j])):
                            left = h
                if left is not None:
                    i, row = left, rows[left]
                    continue
                for k in [k for k in row if k != j]:
                    q, x = divmod(row[k], p)
                    if v is not None and q:
                        _combine(v[k], v[j], q, n)
                    if x:
                        row[k] = x
                    else:
                        del row[k]
                        index[k].remove(i)
                if len(row) == 1:
                    diag[j] = row.pop(j)
                    index[j].remove(i)
                    break
                j = _least(row, (k for k in row if k != j))
            row = rows[start]
    return diag


def _kernel(rows: list, ncols: int, n: int, listing: bool):
    """(count, diag, v): the number of solutions mod n of the sparse rows,
    which are consumed, the nonzero d_j, and, when listing, the columns of
    V; otherwise None."""
    v = [{j: 1} for j in range(ncols)] if listing else None
    diag = _diagonalize(rows, n, v)
    count = n ** (ncols - len(diag)) * prod(gcd(d, n) for d in diag.values())
    return count, diag, v
