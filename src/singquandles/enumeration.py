"""Exhaustive enumeration of singquandle structures of small order.

The search fixes the star table first (an involutive quandle, built column
by column; each column is an involution fixing its own index), then picks
r1 row by row.  Two facts collapse the space:

- In any verified structure, r2 is determined by r1 and star:
  r2(a, b) = r1(b, a * b).
- The map y -> r1(x, y) composed with itself equals y -> y * x, so row x of
  r1 must be a permutation square root of column x of star.

Both are consequences of the axioms (the first from the move axiom relating
r1 and r2, the second from that plus the rotation axiom returning y), so
restricting the search this way loses nothing.  The roots of row k that
break the one axiom instance involving row k alone are dropped once per
star.

Before row k is tried, a forward check works out from rows 0..k-1 which
values each entry of row k may still take.  It uses the pair instances
(rotations and the move axiom rv-r2) whose only unknown is one entry of row
k: the pairs (k, y) and (x, k) with x, y < k, and the pairs x, y < k whose
r1 or r2 is k, which force an entry outright.  Each row's candidates are
indexed by bitmasks per (entry, value set), so dropping the rows that break
one of these takes a few integer ANDs.  A row that is kept still has every
axiom instance whose rows are now all placed checked, and every complete
candidate still runs the full checker.  The check only drops rows that
those steps would reject, so the structures and their order are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter

from .axioms import check_all
from .tables import OpTable, Singquandle, serialize_tables

MAX_ORDER = 5


def _involutions_fixing(n: int, fixed: int) -> list:
    out = []
    for p in permutations(range(n)):
        if p[fixed] == fixed and all(p[p[i]] == i for i in range(n)):
            out.append(p)
    return out


def involutive_quandles(n: int) -> list:
    """All involutive quandle tables of order n, in lexicographic row order."""
    if n < 1:
        raise ValueError("order must be >= 1")
    column_choices = [_involutions_fixing(n, y) for y in range(n)]
    cols = [None] * n
    found = []

    def distributive_so_far(c: int) -> bool:
        # (x*y)*z == (x*z)*(y*z) for instances decidable from columns 0..c
        for y in range(c + 1):
            for z in range(c + 1):
                w = cols[z][y]
                if w > c or max(y, z, w) != c:
                    continue
                col_y, col_z, col_w = cols[y], cols[z], cols[w]
                for x in range(n):
                    if col_z[col_y[x]] != col_w[col_z[x]]:
                        return False
        return True

    def place(c: int) -> None:
        if c == n:
            rows = tuple(tuple(cols[y][x] for y in range(n)) for x in range(n))
            found.append(OpTable(rows))
            return
        for col in column_choices[c]:
            cols[c] = col
            if distributive_so_far(c):
                place(c + 1)
        cols[c] = None

    place(0)
    return found


def _square_roots(target, perms) -> list:
    n = len(target)
    return [p for p in perms if all(p[p[i]] == target[i] for i in range(n))]


def derive_r2(star: OpTable, r1: OpTable) -> OpTable:
    """The unique r2 compatible with star and r1: r2(a,b) = r1(b, a*b)."""
    n = star.order
    return OpTable(tuple(
        tuple(r1.rows[b][star.rows[a][b]] for b in range(n)) for a in range(n)))


def _value_masks(domain, n: int) -> list:
    """masks[j][m]: bitmask of the candidates in ``domain`` whose entry j
    lies in the value set m (bit i stands for domain[i], bit c for value c)."""
    masks = []
    for j in range(n):
        by_value = [0] * n
        for i, g in enumerate(domain):
            by_value[g[j]] |= 1 << i
        table = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            table[m] = table[m ^ low] | by_value[low.bit_length() - 1]
        masks.append(table)
    return masks


def singquandles_for_star(star: OpTable) -> list:
    """All verified structures with the given star table."""
    n = star.order
    srows = star.rows
    perms = list(permutations(range(n)))
    domains = []
    for k in range(n):
        rho = tuple(srows[y][k] for y in range(n))
        # returning y, y = r2(r1(k, y), k), involves row k alone
        roots = [g for g in _square_roots(rho, perms)
                 if all(g[srows[g[y]][k]] == y for y in range(n))]
        if not roots:
            return []
        domains.append(roots)
    masks = [_value_masks(d, n) for d in domains]
    every_value = (1 << n) - 1
    # left[a][u]: the set of c with a*c == u; under[y][z]: the x with x*y == z
    left = [[sum(1 << c for c in range(n) if srows[a][c] == u) for u in range(n)]
            for a in range(n)]
    under = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            under[y][srows[x][y]] = x

    rows = [None] * n
    found = []

    def candidates(k: int) -> int:
        """The rows in domains[k], as a bitmask, that break none of the pair
        instances whose one unknown is an entry of row k; rows 0..k-1 are
        placed.  With v = r1(x,y) and u = r2(x,y), the instances are the
        rotations (a) x = r2(u, v), (b) y = r1(u, v), (c) v = r2(y, u) and
        (d) u = r1(v, x), and rv-r2, (e) u = r1(w, x) * r2(w, x), w = y*x.
        """
        allowed = [every_value] * n     # the values left for each entry of row k
        sk = srows[k]
        for j in range(k):
            rj = rows[j]
            p = srows[j][k]
            # pair (k, j): v is entry j; u = r1(j, k*j) is known
            u = rj[sk[j]]
            if u < k:
                # (b) and (c) each force v
                ru = rows[u]
                allowed[j] &= (1 << ru.index(j)) & (1 << ru[srows[j][u]])
            if p < k:
                # (e) with w = j*k: r2(w, k) is entry w*k
                allowed[srows[p][k]] &= left[rows[p][k]][u]
            # pair (j, k): v = r1(j, k) is known; u is entry j*k
            v = rj[k]
            if v < k:
                allowed[p] &= 1 << rows[v][j]                      # (d)
            w = sk[j]
            if w < k:
                allowed[p] &= 1 << srows[rows[w][j]][rj[srows[w][j]]]  # (e)
            # pair (j, z) with v = r1(j, z) = k: (a) forces entry u*k to j,
            # and (d) entry j to u
            z = rj.index(k)
            if z < k:
                u = rows[z][srows[j][z]]
                allowed[srows[u][k]] &= 1 << j
                allowed[j] &= 1 << u
            # pair (x, j) with u = r1(j, x*j) = k, so x*j = z: (b) forces
            # entry v to j, and (c) entry j*k to v
            x = under[j][z]
            if x < k:
                v = rows[x][j]
                allowed[v] &= 1 << j
                allowed[p] &= 1 << v
        todo = (1 << len(domains[k])) - 1
        for j, m in enumerate(allowed):
            if m != every_value:
                todo &= masks[k][j][m]
        return todo

    def consistent(k: int) -> bool:
        # check every axiom instance whose involved rows are placed, row k
        # among them; the rows placed are 0..k
        placed = range(k + 1)
        for x in placed:
            rx = rows[x]
            for y in placed:
                top = x == k or y == k
                v = rx[y]                      # r1(x, y)
                u = rows[y][srows[x][y]]       # r2(x, y)
                if v <= k and (top or v == k):
                    rv = rows[v]
                    # returning x via r2: x = r2(r2(x,y), r1(x,y))
                    # rotated outputs: r2(x,y) = r1(r1(x,y), x)
                    if rv[srows[u][v]] != x or rv[x] != u:
                        return False
                if u <= k and (top or u == k):
                    ru = rows[u]
                    # returning y via r1: y = r1(r2(x,y), r1(x,y))
                    # rotated outputs: r1(x,y) = r2(y, r2(x,y))
                    if ru[v] != y or ru[srows[y][u]] != v:
                        return False
                # relating r1, r2 across a classical pass:
                # r2(x,y) = r1(y*x, x) * r2(y*x, x)
                w = srows[y][x]
                if w <= k and (top or w == k):
                    if u != srows[rows[w][x]][rx[srows[w][x]]]:
                        return False
        # triple-instance families
        for x in placed:
            rx = rows[x]
            for z in placed:
                if x != k and z != k:
                    continue
                # (y*z) * r2(x,z) == (y*x) * r1(x,z) for all y
                r2xz = rows[z][srows[x][z]]
                r1xz = rx[z]
                for y in range(n):
                    if srows[srows[y][z]][r2xz] != srows[srows[y][x]][r1xz]:
                        return False
        for x in placed:
            rx = rows[x]
            for y in range(n):
                w = srows[x][y]
                if w > k or (x != k and w != k):
                    continue
                # r1(x*y, z) * y == r1(x, z*y) for all z
                rw = rows[w]
                for z in range(n):
                    if srows[rw[z]][y] != rx[srows[z][y]]:
                        return False
        for z in placed:
            rz = rows[z]
            for y in range(n):
                w = srows[z][y]
                if w > k or (z != k and w != k):
                    continue
                # r2(x*y, z) == r2(x, z*y) * y for all x
                rw = rows[w]
                for x in range(n):
                    if rz[srows[srows[x][y]][z]] != srows[rw[srows[x][w]]][y]:
                        return False
        return True

    def place(k: int) -> None:
        if k == n:
            r1 = OpTable(tuple(rows))
            candidate = Singquandle(star, r1, derive_r2(star, r1))
            if check_all(candidate).all_hold:
                found.append(candidate)
            return
        domain = domains[k]
        todo = candidates(k)
        while todo:
            low = todo & -todo
            todo ^= low
            rows[k] = domain[low.bit_length() - 1]
            if consistent(k):
                place(k + 1)
        rows[k] = None

    place(0)
    return found


@dataclass(frozen=True)
class Census:
    order: int
    count: int
    structures: tuple = None


def enumerate_singquandles(n: int, up_to_iso: bool = False) -> Census:
    """Complete census of order-n structures; hard order limit MAX_ORDER."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}")
    count = 0
    canonical = {}
    for star in involutive_quandles(n):
        for s in singquandles_for_star(star):
            count += 1
            if up_to_iso:
                perm, key = _least_relabelling(s)
                if key not in canonical:
                    canonical[key] = relabel(s, perm)
    structures = None
    if up_to_iso:
        structures = tuple(canonical[key] for key in sorted(canonical))
    return Census(n, count, structures)


def _flat_key(s: Singquandle) -> tuple:
    return (sum(s.star.rows, ()) + sum(s.r1.rows, ()) + sum(s.r2.rows, ()))


def relabel(s: Singquandle, perm) -> Singquandle:
    """Transport all three tables along the permutation of labels."""
    n = s.order
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the label set")

    def move(table: OpTable) -> OpTable:
        rows = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                rows[perm[x]][perm[y]] = perm[table.rows[x][y]]
        return OpTable(tuple(tuple(r) for r in rows))

    return Singquandle(move(s.star), move(s.r1), move(s.r2))


def _relabelled_keys(s: Singquandle):
    """(perm, _flat_key(relabel(s, perm))) for every permutation, in the
    order of permutations(); the keys are read off the tables of s, and no
    relabelled structure is built."""
    n = s.order
    tables = (s.star.rows, s.r1.rows, s.r2.rows)
    for perm in permutations(range(n)):
        # the relabelled table holds perm[T[x][y]] at (perm[x], perm[y]), so
        # its row i is row inv[i] of T read at the columns inv
        inv = sorted(range(n), key=perm.__getitem__)
        rows = [t[x] for t in tables for x in inv]
        yield perm, tuple([perm[r[y]] for r in rows for y in inv])


def _least_relabelling(s: Singquandle) -> tuple:
    """The first permutation whose relabelling has the least flat key, and
    that key."""
    return min(_relabelled_keys(s), key=itemgetter(1))


def canonical_form(s: Singquandle) -> Singquandle:
    """Lexicographically least relabeling of the structure."""
    return relabel(s, _least_relabelling(s)[0])


def is_isomorphic(s1: Singquandle, s2: Singquandle) -> bool:
    """True iff some relabeling carries all three tables of s1 onto s2."""
    if s1.order != s2.order:
        raise ValueError("orders differ")
    target = _flat_key(s2)
    return any(key == target for _, key in _relabelled_keys(s1))


def serialize_census(census: Census) -> str:
    lines = [f"order {census.order}", f"count {census.count}"]
    text = "\n".join(lines) + "\n"
    if census.structures is not None:
        for s in census.structures:
            text += "\n" + serialize_tables(s)
    return text
