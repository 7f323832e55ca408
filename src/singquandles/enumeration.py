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
restricting the search this way loses nothing.

For such tables the five rotation axioms reduce to one identity,
r2(x, y) = r1(r1(x, y), x).  Write R_x for row x of r1, S_x(z) = z*x,
v = r1(x, y) and u = r2(x, y): then R_x R_x = S_x, S_x S_x = id,
u = R_y S_y(x), and R_v commutes with S_v = R_v R_v.  So r1(y, u) = x,
r2(v, x) = R_x S_x R_x(y) = y and r2(y*x, x) = r1(x, y) always hold
(rotation-x-via-r1, rotation-y-via-r2, rv-r1).  rotation-x-via-r2,
x = R_v S_v(u) = R_v^3(u), holds iff u = R_v(x) (apply R_v): the identity.
rotation-y-via-r1, y = R_u(v), holds iff v = R_u^3(y) = r2(y, u), the
other half of rotation-outputs.  Where the identity holds at (x, y), it
reads y = R_u(v) at the pair (v, x), as r1(v, x) = u and r2(v, x) = y.

Before row k is tried, a forward check works out from rows 0..k-1 which
values each entry of row k may still take.  It uses the instances of the
identity and of the move axiom rv-r2 whose only unknown is one entry of
row k, and the move axiom rivb-r1, r1(x*y, z) * y = r1(x, z*y): with
x = k and w = k*y, it reads r1(k, c) = r1(w, c*y) * y, so a placed row w
forces all of row k.  Each row's candidates are indexed by bitmasks per
(entry, value set), so dropping the rows that break one of these takes a
few integer ANDs.  A row that is kept is then checked against the identity
at the pairs whose rows are now all placed.  Besides the orbit test below,
the search prunes with nothing else: the full checker alone decides riva,
rivb-r2 and the rest of rv-r2 and rivb-r1.  Each of these steps drops only
rows that the checker would reject.

The search meets r1 in lexicographic order, and builds tables only for a
candidate the checker judges and for what the public functions return.  It
is an orderly generation (R. C. Read, "Every one a winner", Ann. Discrete
Math. 2, 1978) over Aut(star), the relabellings fixing the star table: a
prefix test cuts every subtree with no least member of its orbit, so the
search reaches only the least r1 of each.  Such a relabelling keeps the
star, commutes with r2 = derive_r2(star, r1) and keeps every axiom (each a
universally quantified equation), so the checker runs once per orbit, and
a passing r1 is yielded with its orbit's size, read off the relabellings
that the prefix test leaves at the leaf.  A relabelling between two
structures with the same star lies in Aut(star), so each isomorphism class
meets the least star of its star's class in one such orbit, whose least
member is the class's canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import permutations

from .axioms import check_all
from .tables import OpTable, Singquandle, serialize_tables

MAX_ORDER = 5


@cache
def _square_roots(n: int) -> dict:
    """Each square permutation of range(n), mapped to its square roots in
    lexicographic order; the involutions are the roots of the identity."""
    roots = {}
    for p in permutations(range(n)):
        roots.setdefault(tuple([p[i] for i in p]), []).append(p)
    return roots


def involutive_quandles(n: int) -> list:
    """All involutive quandle tables of order n, sorted by their columns."""
    if n < 1:
        raise ValueError("order must be >= 1")
    involutions = _square_roots(n)[tuple(range(n))]
    column_choices = [[p for p in involutions if p[y] == y] for y in range(n)]
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
    del place  # place refers to itself; drop that cycle now
    return found


def derive_r2(star: OpTable, r1: OpTable) -> OpTable:
    """The unique r2 compatible with star and r1: r2(a,b) = r1(b, a*b)."""
    n = star.order
    return OpTable(tuple(
        tuple(r1.rows[b][star.rows[a][b]] for b in range(n)) for a in range(n)))


def _build(star: OpTable, r1: OpTable) -> Singquandle:
    return Singquandle(star, r1, derive_r2(star, r1))


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


@lru_cache(maxsize=1)
def _automorphisms(srows: tuple) -> list:
    """Aut(star) for the star with rows srows, each g with its inverse.  The
    last star's is kept, so orbits built after its search scan no
    relabelling again."""
    n = len(srows)
    return [(g, tuple(sorted(range(n), key=g.__getitem__)))
            for g in permutations(range(n)) if all(
                g[srows[x][y]] == srows[g[x]][g[y]]
                for x in range(n) for y in range(n))]


def _verified_r1(star: OpTable):
    """Yield (r1, size) per Aut(star) orbit of verified r1 with this star:
    r1 as rows, the least of its orbit, in lexicographic order, and the
    orbit's size.  At a leaf the relabellings left by the prefix test are
    those with g.R == R, the stabilizer of r1, so the size is
    |Aut(star)| / |stabilizer|."""
    n = star.order
    srows = star.rows
    domains = [_square_roots(n).get(column) for column in zip(*srows)]
    if not all(domains):
        return
    masks = [_value_masks(d, n) for d in domains]
    every_value = (1 << n) - 1
    # left[a][u]: the set of c with a*c == u
    left = [[sum(1 << c for c in range(n) if srows[a][c] == u) for u in range(n)]
            for a in range(n)]
    automorphisms = _automorphisms(srows)
    rows = [None] * n

    def candidates(k: int) -> int:
        """The rows in domains[k], as a bitmask, that break none of the
        instances whose unknowns are entries of row k; rows 0..k-1 are
        placed.  With v = r1(x,y) and u = r2(x,y), the instances are (d)
        u = r1(v, x), the forward form of the identity that consistent
        keeps, rv-r2 (e) u = r1(w, x) * r2(w, x) with w = y*x, and rivb-r1
        (f) r1(x*y, z) * y = r1(x, z*y)."""
        allowed = [every_value] * n     # the values left for each entry of row k
        sk = srows[k]
        for j in range(k):
            rj = rows[j]
            p = srows[j][k]
            if p < k:
                # (e) for the pair (k, j), u = r1(j, k*j), w = j*k: r2(w, k)
                # is entry w*k
                allowed[srows[p][k]] &= left[rows[p][k]][rj[sk[j]]]
            # pair (j, k): v = r1(j, k) is known; u is entry j*k
            v = rj[k]
            if v < k:
                allowed[p] &= 1 << rows[v][j]                      # (d)
            w = sk[j]
            if w < k:
                allowed[p] &= 1 << srows[rows[w][j]][rj[srows[w][j]]]  # (e)
        for y, w in enumerate(sk):
            if w < k:
                # (f) with x = k, z = c*y: r1(k, c) = r1(w, c*y) * y; the
                # x with x*y = k is w too, as column y is an involution
                rw = rows[w]
                for c in range(n):
                    allowed[c] &= 1 << srows[rw[srows[c][y]]][y]
        todo = (1 << len(domains[k])) - 1
        for j, m in enumerate(allowed):
            if m != every_value:
                todo &= masks[k][j][m]
        return todo

    def consistent(k: int) -> bool:
        # the identity at each pair whose rows x, y, r1(x,y) are in 0..k, k too
        placed = range(k + 1)
        for x in placed:
            rx = rows[x]
            for y in placed:
                v = rx[y]
                if v <= k and k in (x, y, v) and rows[v][x] != rows[y][srows[x][y]]:
                    return False
        return True

    def moved(g, inv, i: int) -> tuple:
        """Row i of g.R: row inv[i] of R at columns inv, relabelled by g."""
        row = rows[inv[i]]
        return tuple([g[row[y]] for y in inv])

    def least_so_far(k: int, live: list):
        """The g in ``live`` whose g.R is not yet larger than R, read from
        row 0 while rows i and inv[i] are placed (a larger row stays larger;
        the identity stays); none if some g.R is smaller at the first row
        that differs: no completion of rows 0..k is least in its orbit."""
        still = []
        for g, inv in live:
            i = 0
            while i <= k and inv[i] <= k and (row := moved(g, inv, i)) == rows[i]:
                i += 1
            if i > k or inv[i] > k:
                still.append((g, inv))
            elif row < rows[i]:
                return []
        return still

    def place(k: int, live: list):
        if k == n:
            if check_all(_build(star, OpTable(tuple(rows)))).all_hold:
                yield tuple(rows), len(automorphisms) // len(live)
            return
        domain = domains[k]
        todo = candidates(k)
        while todo:
            low = todo & -todo
            todo ^= low
            rows[k] = domain[low.bit_length() - 1]
            if consistent(k) and (still := least_so_far(k, live)):
                yield from place(k + 1, still)
        rows[k] = None

    try:
        yield from place(0, automorphisms)
    finally:
        del place  # place refers to itself; drop that cycle now


def _orbits(star: OpTable):
    """Yield (r1, orbit) per r1 that _verified_r1 yields, the orbit the set
    of its relabellings by Aut(star), whose equal rows share one tuple."""
    shared = {}
    for r1, _ in _verified_r1(star):
        yield r1, {tuple([shared.setdefault(row, row) for row in
                          (tuple([g[r1[i][y]] for y in inv]) for i in inv)])
                   for g, inv in _automorphisms(star.rows)}


def singquandles_for_star(star: OpTable) -> list:
    """All verified structures with the given star table."""
    return [_build(star, OpTable(r1)) for r1 in
            sorted(r1 for _, orbit in _orbits(star) for r1 in orbit)]


@dataclass(frozen=True)
class Census:
    order: int
    count: int
    structures: tuple = None


def enumerate_singquandles(n: int, up_to_iso: bool = False) -> Census:
    """Complete census of order-n structures; hard order limit MAX_ORDER.

    The labelled count sums the orbit sizes the search yields, and up to
    isomorphism the classes are read off it: a relabelling between
    structures with the same star lies in Aut(star), so each class meets the
    least star of its star's class in one orbit, yielded with its least
    member.  The stars are sorted by rows, so the classes come out sorted."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}")
    count = 0
    classes = []
    for star in sorted(involutive_quandles(n), key=lambda t: t.rows):
        # whether the star is least in its class, tested only once it yields
        least = None
        for r1, size in _verified_r1(star):
            count += size
            if up_to_iso:
                if least is None:
                    least = _least((star.rows,)) == sum(star.rows, ())
                if least:
                    classes.append(_build(star, OpTable(r1)))
    return Census(n, count, tuple(classes) if up_to_iso else None)


def _tables(key: tuple, n: int) -> list:
    """The order-n tables whose rows, one after another, make up ``key``."""
    rows = [key[i:i + n] for i in range(0, len(key), n)]
    return [OpTable(tuple(rows[i:i + n])) for i in range(0, len(rows), n)]


def _relabelled(tables, perm) -> tuple:
    """The row tables relabelled by perm, as one flat tuple of their rows.

    The relabelled table holds perm[T[x][y]] at (perm[x], perm[y]), so its
    row i is row inv[i] of T read at the columns inv."""
    inv = sorted(range(len(perm)), key=perm.__getitem__)
    rows = [t[x] for t in tables for x in inv]
    return tuple([perm[r[y]] for r in rows for y in inv])


def relabel(s: Singquandle, perm) -> Singquandle:
    """Transport all three tables along the permutation of labels."""
    if sorted(perm) != list(range(s.order)):
        raise ValueError("not a permutation of the label set")
    return Singquandle(*_tables(
        _relabelled((s.star.rows, s.r1.rows, s.r2.rows), perm), s.order))


def _least(tables) -> tuple:
    """The least relabelling of the row tables, as one flat tuple."""
    return min(_relabelled(tables, perm)
               for perm in permutations(range(len(tables[0]))))


def canonical_form(s: Singquandle) -> Singquandle:
    """Lexicographically least relabeling of the structure."""
    return Singquandle(*_tables(_least((s.star.rows, s.r1.rows, s.r2.rows)),
                                s.order))


def is_isomorphic(s1: Singquandle, s2: Singquandle) -> bool:
    """True iff some relabeling carries all three tables of s1 onto s2."""
    if s1.order != s2.order:
        raise ValueError("orders differ")
    return (_least((s1.star.rows, s1.r1.rows, s1.r2.rows))
            == _least((s2.star.rows, s2.r1.rows, s2.r2.rows)))


def serialize_census(census: Census) -> str:
    lines = [f"order {census.order}", f"count {census.count}"]
    text = "\n".join(lines) + "\n"
    if census.structures is not None:
        for s in census.structures:
            text += "\n" + serialize_tables(s)
    return text
