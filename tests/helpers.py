"""Independent oracles and small utilities shared by the test modules.

Nothing here reuses the library's search or counting logic: the coloring
oracle enumerates raw assignments, and the census oracles filter whole
operation tables.  Their only dependency on the package is the table types
and the axiom checker, which are themselves pinned by hand-computed values
in test_axioms.
"""

from __future__ import annotations

from itertools import product

from singquandles import (
    Classical,
    OpTable,
    Singquandle,
    check_all,
    check_table,
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
