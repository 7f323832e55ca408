"""Independent oracles and small utilities shared by the test modules.

Nothing here reuses the library's search or counting logic: the coloring
oracle enumerates raw assignments, and the census oracles filter whole
operation tables.  Their only dependency on the package is the table types
and the axiom checker, which are themselves pinned by hand-computed values
in test_axioms.
"""

from __future__ import annotations

from itertools import product
from math import factorial, gcd

from singquandles import (
    KIND_SINGULAR,
    Classical,
    OpTable,
    Singquandle,
    SingularDiagram,
    TangleWord,
    check_all,
    check_table,
    sigma,
    tau,
)


def color_count_oracle(diagram, s) -> int:
    """Count colorings by trying every assignment of colors to semiarcs.

    Exponential in the arc count; keep diagrams small.
    """
    n = s.order
    star, r1, r2 = s.star.rows, s.r1.rows, s.r2.rows
    total = 0
    for colors in product(range(n), repeat=diagram.arcs):
        ok = True
        for cr in diagram.crossings:
            if isinstance(cr, Classical):
                if colors[cr.c] != star[colors[cr.a]][colors[cr.b]]:
                    ok = False
                    break
            else:
                if (colors[cr.sw] != r1[colors[cr.nw]][colors[cr.ne]]
                        or colors[cr.se] != r2[colors[cr.nw]][colors[cr.ne]]):
                    ok = False
                    break
        if ok:
            total += 1
    return total * n ** diagram.free


def color_set_oracle(diagram, s) -> list:
    """All colorings (arcs then free circles), lexicographically sorted."""
    n = s.order
    star, r1, r2 = s.star.rows, s.r1.rows, s.r2.rows
    out = []
    for colors in product(range(n), repeat=diagram.arcs):
        ok = True
        for cr in diagram.crossings:
            if isinstance(cr, Classical):
                if colors[cr.c] != star[colors[cr.a]][colors[cr.b]]:
                    ok = False
                    break
            else:
                if (colors[cr.sw] != r1[colors[cr.nw]][colors[cr.ne]]
                        or colors[cr.se] != r2[colors[cr.nw]][colors[cr.ne]]):
                    ok = False
                    break
        if ok:
            for free in product(range(n), repeat=diagram.free):
                out.append(colors + free)
    return sorted(out)


def all_op_tables(n: int) -> list:
    """Every function {0..n-1}^2 -> {0..n-1} as an OpTable."""
    tables = []
    for flat in product(range(n), repeat=n * n):
        tables.append(OpTable(tuple(flat[i * n:(i + 1) * n] for i in range(n))))
    return tables


def involutive_quandle_tables_oracle(n: int) -> list:
    """Filter every order-n table through the quandle + involutive checks."""
    return [t for t in all_op_tables(n)
            if check_table(t).all_hold]


def literal_census(n: int) -> list:
    """Filtration of every (star, r1, r2) triple through the full checker.

    n^(3n^2) candidates, so this is only usable for n <= 2.
    """
    if n > 2:
        raise ValueError("literal filtration is only tractable for n <= 2")
    tables = all_op_tables(n)
    return [s for star in involutive_quandle_tables_oracle(n)
            for r1 in tables for r2 in tables
            for s in (Singquandle(star, r1, r2),) if check_all(s).all_hold]


def joined_census(n: int) -> list:
    """Filtration of every (star, r1, r2) pair, reorganized but still exact.

    One of the move axioms says r1(x, y) == r2(y*x, x) for all x, y; since
    y -> y*x is a bijection for fixed x, that axiom alone pins every entry
    of r2 once star and r1 are chosen.  So among all n^(n^2) candidate r2
    tables exactly one can survive per r1, and filtering the full cross
    product equals checking that one candidate.  The acceptance suite
    confirms this equals the literal filtration where both are tractable.
    """
    tables = all_op_tables(n)
    found = []
    for star in involutive_quandle_tables_oracle(n):
        srows = star.rows
        for r1 in tables:
            r1rows = r1.rows
            r2 = OpTable(tuple(
                tuple(r1rows[b][srows[a][b]] for b in range(n))
                for a in range(n)))
            s = Singquandle(star, r1, r2)
            if check_all(s).all_hold:
                found.append(s)
    return found


# The 14 axioms, one instance at a time, written from their definitions:
# name -> (arity, predicate(star, r1, r2, args)), each table a function of
# two colors.  The order is the checker's report order.
AXIOM_INSTANCES = {
    "right-bijective": (3, lambda S, R1, R2, a:
                        (a[0] == a[1]) == (S(a[0], a[2]) == S(a[1], a[2]))),
    "self-distributive": (3, lambda S, R1, R2, a:
                          S(S(a[0], a[1]), a[2])
                          == S(S(a[0], a[2]), S(a[1], a[2]))),
    "idempotent": (1, lambda S, R1, R2, a: S(a[0], a[0]) == a[0]),
    "involutive": (2, lambda S, R1, R2, a: S(S(a[0], a[1]), a[1]) == a[0]),
    "rotation-x-via-r1": (2, lambda S, R1, R2, a:
                          R1(a[1], R2(a[0], a[1])) == a[0]),
    "rotation-x-via-r2": (2, lambda S, R1, R2, a:
                          R2(R2(a[0], a[1]), R1(a[0], a[1])) == a[0]),
    "rotation-y-via-r2": (2, lambda S, R1, R2, a:
                          R2(R1(a[0], a[1]), a[0]) == a[1]),
    "rotation-y-via-r1": (2, lambda S, R1, R2, a:
                          R1(R2(a[0], a[1]), R1(a[0], a[1])) == a[1]),
    "rotation-outputs": (2, lambda S, R1, R2, a:
                         R1(a[0], a[1]) == R2(a[1], R2(a[0], a[1]))
                         and R2(a[0], a[1]) == R1(R1(a[0], a[1]), a[0])),
    "riva": (3, lambda S, R1, R2, a:
             S(S(a[1], a[2]), R2(a[0], a[2]))
             == S(S(a[1], a[0]), R1(a[0], a[2]))),
    "rv-r1": (2, lambda S, R1, R2, a:
              R1(a[0], a[1]) == R2(S(a[1], a[0]), a[0])),
    "rv-r2": (2, lambda S, R1, R2, a:
              R2(a[0], a[1]) == S(R1(S(a[1], a[0]), a[0]),
                                  R2(S(a[1], a[0]), a[0]))),
    "rivb-r1": (3, lambda S, R1, R2, a:
                S(R1(S(a[0], a[1]), a[2]), a[1])
                == R1(a[0], S(a[2], a[1]))),
    "rivb-r2": (3, lambda S, R1, R2, a:
                R2(S(a[0], a[1]), a[2])
                == S(R2(a[0], S(a[2], a[1])), a[1])),
}


def first_failing_instance(s, name):
    """The lexicographically first tuple where the axiom fails, or None."""
    arity, holds = AXIOM_INSTANCES[name]
    S, R1, R2 = (t.apply for t in (s.star, s.r1, s.r2))
    return next((args for args in product(range(s.order), repeat=arity)
                 if not holds(S, R1, R2, args)), None)


def rank_mod_p(matrix, ncols, p):
    """Rank of the matrix over the field Z_p, p prime, by plain Gaussian
    elimination."""
    rows = [[x % p for x in row] for row in matrix]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def kernel_count_over_z(matrix, ncols, n):
    """Number of c in Z_n^ncols with matrix @ c == 0 (mod n), from a
    diagonal form of the dense matrix over the integers, with no reduction
    mod n.

    Each pass reduces the other rows and columns by the entry of least
    absolute value, by operations invertible over Z; a remainder left in
    its row or column is smaller, and the next pass pivots on the least
    entry again.  Once the pivot d is alone in its row and its column, both
    are taken out, and d allows gcd(d, n) values of its column's
    coordinate; a column that never holds a pivot allows n.
    """
    a = [list(row) for row in matrix if any(row)]
    count, pivots = 1, 0
    while a:
        r, c = min(((r, c) for r, row in enumerate(a)
                    for c, x in enumerate(row) if x),
                   key=lambda rc: abs(a[rc[0]][rc[1]]))
        p = a[r][c]
        for i, row in enumerate(a):
            if i != r and row[c]:
                q = row[c] // p
                a[i] = [x - q * y for x, y in zip(row, a[r])]
        for j, x in enumerate(a[r]):
            if j != c and x:
                q = x // p
                for row in a:
                    row[j] -= q * row[c]
        rest = a[:r] + a[r + 1:]
        if not any(row[c] for row in rest) and sum(map(bool, a[r])) == 1:
            count *= gcd(p, n)
            pivots += 1
            a = [row[:c] + row[c + 1:] for row in rest if any(row)]
    return count * n ** (ncols - pivots)


def renumber(diagram, perm):
    """The same diagram with arc x called perm[x]."""
    return SingularDiagram(diagram.arcs, tuple(
        type(cr)(*(perm[x] for x in cr.labels)) for cr in diagram.crossings),
        diagram.free)


def reordered(diagram, rng):
    """The same diagram with its crossings listed in a random order."""
    return SingularDiagram(diagram.arcs, rng.sample(diagram.crossings,
                                                    len(diagram.crossings)),
                           diagram.free)


def random_word(rng, strands: int, length: int) -> TangleWord:
    """A word of length letters on strands strands, about 30 % of them
    singular and half the classical ones mirrored."""
    letters = []
    for _ in range(length):
        i = rng.randint(1, strands - 1)
        if rng.random() < 0.3:
            letters.append(tau(i))
        else:
            letters.append(sigma(i, mirrored=rng.random() < 0.5))
    return TangleWord(tuple(letters), strands)


def word_matrix(word, p):
    """The word's k x k matrix over Z_n under the linear structure p, built
    letter by letter from the coefficient pairs, last letter leftmost.

    A letter on strands i and i + 1 acts on those two colors alone, so it
    replaces rows i and i + 1 of the product by its 2 x 2 block times them.
    """
    (sx, sy), r1, r2 = p.coefficients
    k = word.strands
    acc = [[int(r == c) for c in range(k)] for r in range(k)]
    for letter in word.letters:
        if letter.kind == KIND_SINGULAR:
            block = (r1, r2)
        elif letter.mirrored:
            block = ((sy, sx), (1, 0))
        else:
            block = ((0, 1), (sx, sy))
        i = letter.index - 1
        top, bottom = acc[i], acc[i + 1]
        acc[i:i + 2] = [[(a * x + b * y) % p.n for x, y in zip(top, bottom)]
                        for a, b in block]
    return acc


def trivial_star_count(n: int, g=None) -> int:
    """How many r1 tables make a structure with the trivial star x * y = x,
    counted with no code from the census or the axiom checker; with a
    permutation g, only the r1 that g fixes (g.R = R, that is
    R(g(x), g(y)) = g(R(x, y))), which is Fix(g) in Burnside's lemma.

    Write R for r1 and R_x for its row x.  Under x * y = x such an r1 is
    exactly a table with
      (I) every row R_x an involution, and
      (C) R_x(y) = R_{R_y(x)}(y) for all x, y: column y is constant on the
          orbits of R_y.

    Proof.  The move axiom rv-r1, r1(x, y) = r2(y * x, x) = r2(y, x), fixes
    r2(x, y) = R(y, x).  With r2 so, and every product a * b replaced by a,
    each move axiom reads t = t: riva y = y, rv-r2 R(y, x) = R(y, x),
    rivb-r1 R(x, z) = R(x, z), rivb-r2 R(z, x) = R(z, x); and the trivial
    star is an involutive quandle.  The rotation axioms read
      x-via-r1  R(y, R(y, x)) = x,            y-via-r2  R(x, R(x, y)) = y,
      outputs   R(x, y) = R(R(y, x), y)  and  R(y, x) = R(R(x, y), x),
      x-via-r2  R(R(x, y), R(y, x)) = x,      y-via-r1  R(R(y, x), R(x, y)) = y.
    The first pair is (I), and each half of outputs is (C) for (x, y) or
    for (y, x).  Given (I) and (C), put v = R(x, y) and u = R(y, x); (C) at
    (y, x) gives R_v(x) = u, and as R_v is an involution R_v(u) = x, which
    is x-via-r2; y-via-r1 is x-via-r2 with x and y swapped.  So the axioms
    hold if and only if (I) and (C) do.

    The rows are placed one at a time among the involutions of range(n),
    and each row is kept only if (C), and g.R = R, hold on every instance
    whose rows are all placed.
    """
    g = tuple(range(n)) if g is None else tuple(g)
    involutions = [p for p in product(range(n), repeat=n)
                   if all(p[p[i]] == i for i in range(n))]
    rows = [None] * n

    def fits(k: int) -> bool:
        for x in range(k + 1):
            gx = g[x]
            # row g(x) of R is g R_x g^-1
            if gx <= k and k in (x, gx) and any(
                    rows[gx][g[y]] != g[rows[x][y]] for y in range(n)):
                return False
            for y in range(k + 1):
                w = rows[y][x]
                if w <= k and k in (x, y, w) and rows[x][y] != rows[w][y]:
                    return False
        return True

    def place(k: int) -> int:
        if k == n:
            return 1
        total = 0
        for row in involutions:
            rows[k] = row
            if fits(k):
                total += place(k + 1)
        rows[k] = None
        return total

    return place(0)


def cycle_types(n: int) -> list:
    """(g, size) for each cycle type of S_n, the identity first: g has its
    cycles on consecutive labels from 0, longest first, and size is the
    number of permutations of that type, n! / (L^m m!) over each cycle
    length L met m times."""
    def partitions(rest: int, most: int):
        if rest == 0:
            yield ()
        for length in range(1, min(rest, most) + 1):
            for tail in partitions(rest - length, length):
                yield (length,) + tail

    types = []
    for lengths in partitions(n, n):
        g, size = [], factorial(n)
        for length in lengths:
            start = len(g)
            g += [start + (i + 1) % length for i in range(length)]
        for length in set(lengths):
            m = lengths.count(length)
            size //= length ** m * factorial(m)
        types.append((tuple(g), size))
    return types
