"""Reference computations for the benchmark's checks, written apart from singquandles.

Nothing here imports the package.  The inputs are plain data:

* tables are row tuples, ``S[x][y]`` being x * y; a structure is a triple
  ``(S, R1, R2)`` of such tables over colors 0..n-1;
* a diagram is ``(arcs, crossings, free)``, each crossing a label tuple:
  three labels (a, b, c) for a classical crossing, where a passes under b
  and leaves as c = a * b, and four labels (nw, ne, sw, se) for a singular
  crossing with inputs nw, ne and outputs sw = R1(nw, ne), se = R2(nw, ne);
* a braid word is a list of letters ``(kind, i)`` with kind ``"s"``
  ((x, y) -> (y, x * y)), ``"s'"`` ((x, y) -> (y * x, x)) or ``"t"``
  ((x, y) -> (R1(x, y), R2(x, y))) acting on strands i and i + 1, 1-based.

Run this file to self-test the oracles against the hand-computed values of
the project README.
"""

from __future__ import annotations

from functools import partial
from itertools import permutations, product, starmap
from math import factorial

# --- the 14 axioms ---------------------------------------------------------
#
# Each evaluator maps (S, R1, R2, *args) to (lhs, rhs); the axiom holds at
# args when the two sides are equal.  The star axioms say S is an involutive
# quandle.  The rotation axioms say that the set of singular crossings
# (x, y -> c, d), c = R1(x, y), d = R2(x, y), is closed under a quarter
# turn, which reads the crossing as (y, d -> x, c); turning again gives
# (d, c -> y, x) and (c, x -> d, y).  The move axioms are the coloring
# conditions of the singular Reidemeister moves RIVa, RV and RIVb.

AXIOMS = {
    # S[. ][z] is injective: x * z == y * z only when x == y
    "right-bijective": (3, lambda S, R1, R2, x, y, z:
                        (x == y, S[x][z] == S[y][z])),
    "self-distributive": (3, lambda S, R1, R2, x, y, z:
                          (S[S[x][y]][z], S[S[x][z]][S[y][z]])),
    "idempotent": (1, lambda S, R1, R2, x: (S[x][x], x)),
    "involutive": (2, lambda S, R1, R2, x, y: (S[S[x][y]][y], x)),
    # (y, d -> x, c): first output
    "rotation-x-via-r1": (2, lambda S, R1, R2, x, y: (R1[y][R2[x][y]], x)),
    # (d, c -> y, x): second output
    "rotation-x-via-r2": (2, lambda S, R1, R2, x, y:
                          (R2[R2[x][y]][R1[x][y]], x)),
    # (c, x -> d, y): second output
    "rotation-y-via-r2": (2, lambda S, R1, R2, x, y: (R2[R1[x][y]][x], y)),
    # (d, c -> y, x): first output
    "rotation-y-via-r1": (2, lambda S, R1, R2, x, y:
                          (R1[R2[x][y]][R1[x][y]], y)),
    # (y, d -> x, c) and (c, x -> d, y): the other outputs
    "rotation-outputs": (2, lambda S, R1, R2, x, y:
                         ((R1[x][y], R2[x][y]),
                          (R2[y][R2[x][y]], R1[R1[x][y]][x]))),
    # (y * z) * R2(x, z) == (y * x) * R1(x, z)
    "riva": (3, lambda S, R1, R2, x, y, z:
             (S[S[y][z]][R2[x][z]], S[S[y][x]][R1[x][z]])),
    # R1(x, y) == R2(y * x, x)
    "rv-r1": (2, lambda S, R1, R2, x, y: (R1[x][y], R2[S[y][x]][x])),
    # R2(x, y) == R1(y * x, x) * R2(y * x, x)
    "rv-r2": (2, lambda S, R1, R2, x, y:
              (R2[x][y], S[R1[S[y][x]][x]][R2[S[y][x]][x]])),
    # R1(x * y, z) * y == R1(x, z * y)
    "rivb-r1": (3, lambda S, R1, R2, x, y, z:
                (S[R1[S[x][y]][z]][y], R1[x][S[z][y]])),
    # R2(x * y, z) == R2(x, z * y) * y
    "rivb-r2": (3, lambda S, R1, R2, x, y, z:
                (R2[S[x][y]][z], S[R2[x][S[z][y]]][y])),
}

STAR_AXIOMS = ("right-bijective", "self-distributive", "idempotent",
               "involutive")


def evaluate(structure, name, args):
    """(lhs, rhs) of one axiom at one tuple of colors."""
    return AXIOMS[name][1](*structure, *args)


def first_failure(structure, name):
    """Lexicographically first tuple (first coordinate outermost) where the
    axiom fails, or None when it holds everywhere."""
    arity, fn = AXIOMS[name]
    n = len(structure[0])
    for args in product(range(n), repeat=arity):
        lhs, rhs = fn(*structure, *args)
        if lhs != rhs:
            return args
    return None


def _holds(structure, name) -> bool:
    arity, fn = AXIOMS[name]
    n = len(structure[0])
    return all(lhs == rhs for lhs, rhs in
               starmap(partial(fn, *structure), product(range(n), repeat=arity)))


def holds_all(structure, names=tuple(AXIOMS)) -> bool:
    return all(_holds(structure, name) for name in names)


def failures(structure) -> dict:
    """Axiom name -> first failing tuple, for every axiom that fails."""
    out = {}
    for name in AXIOMS:
        witness = first_failure(structure, name)
        if witness is not None:
            out[name] = witness
    return out


# --- structures ------------------------------------------------------------


def linear_structure(n, t, b):
    """x * y = t x + (1 - t) y, R1 = (1 - t - b) x + (t + b) y,
    R2 = (1 - b) x + b y, all mod n."""
    def table(cx, cy):
        return tuple(tuple((cx * x + cy * y) % n for y in range(n))
                     for x in range(n))
    return (table(t, 1 - t), table(1 - t - b, t + b), table(1 - b, b))


def relabel(structure, perm):
    """Carry every table along the bijection x -> perm[x]."""
    n = len(perm)
    inverse = [0] * n
    for x, px in enumerate(perm):
        inverse[px] = x
    return tuple(
        tuple(tuple(perm[T[inverse[u]][inverse[v]]] for v in range(n))
              for u in range(n))
        for T in structure)


def flat(structure) -> tuple:
    return tuple(v for T in structure for row in T for v in row)


def automorphisms(structure) -> int:
    """Number of relabellings that fix all three tables."""
    n = len(structure[0])
    return sum(1 for perm in permutations(range(n))
               if relabel(structure, perm) == structure)


def orbit_sum(classes) -> int:
    """Sum of n!/|Aut(s)| over representatives: the labelled count they cover."""
    return sum(factorial(len(s[0])) // automorphisms(s) for s in classes)


def least_relabelling(structure) -> tuple:
    """Flat key of the lexicographically least relabelling."""
    n = len(structure[0])
    return min(flat(relabel(structure, perm)) for perm in permutations(range(n)))


def _flat_relabeller(n, perm):
    """Function mapping flat(s) to flat(relabel(s, perm)) for order n."""
    inverse = [0] * n
    for x, px in enumerate(perm):
        inverse[px] = x
    source = [t * n * n + inverse[u] * n + inverse[v]
              for t in range(3) for u in range(n) for v in range(n)]
    return lambda key: tuple([perm[key[i]] for i in source])


def relabelling_orbits(structures):
    """The orbits under relabelling, each a list of structures sorted by
    flat(), when the list (all of one order) is closed under relabelling
    and has no repeats; None otherwise.

    Closure is tested under the adjacent transpositions of labels, which
    generate every relabelling.
    """
    by_key = {flat(s): s for s in structures}
    if not structures or len(by_key) != len(structures):
        return None
    n = len(structures[0][0])
    movers = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = i + 1, i
        movers.append(_flat_relabeller(n, perm))
    seen = set()
    orbits = []
    for key in by_key:
        if key in seen:
            continue
        seen.add(key)
        orbit = [key]
        for current in orbit:
            for move in movers:
                image = move(current)
                if image not in by_key:
                    return None
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        orbits.append([by_key[k] for k in sorted(orbit)])
    return sorted(orbits)


def labelled_count(n: int) -> int:
    """Structures of order n, by filtering whole tables through the axioms.

    R2 is not searched: RV's first equation R1(x, y) == R2(y * x, x), with
    y -> y * x a bijection, fixes R2(u, x) = R1(x, u * x).  Tractable for
    n <= 3 only (n^(n^2) tables per operation).
    """
    tables = [tuple(cells[i * n:(i + 1) * n] for i in range(n))
              for cells in product(range(n), repeat=n * n)]
    stars = [S for S in tables if holds_all((S, S, S), STAR_AXIOMS)]
    others = [name for name in AXIOMS if name not in STAR_AXIOMS]
    total = 0
    for S in stars:
        for R1 in tables:
            R2 = tuple(tuple(R1[x][S[u][x]] for x in range(n)) for u in range(n))
            if holds_all((S, R1, R2), others):
                total += 1
    return total


# --- colorings -------------------------------------------------------------


def _satisfies(colors, crossings, S, R1, R2) -> bool:
    for cr in crossings:
        if len(cr) == 3:
            a, b, c = cr
            if colors[c] != S[colors[a]][colors[b]]:
                return False
        else:
            nw, ne, sw, se = cr
            x, y = colors[nw], colors[ne]
            if colors[sw] != R1[x][y] or colors[se] != R2[x][y]:
                return False
    return True


def colorings(diagram, structure) -> list:
    """Every coloring (arc colors, then free-circle colors), sorted, found
    by trying every assignment.  Exponential in the arc count."""
    arcs, crossings, free = diagram
    n = len(structure[0])
    out = [colors + extra
           for colors in product(range(n), repeat=arcs)
           if _satisfies(colors, crossings, *structure)
           for extra in product(range(n), repeat=free)]
    out.sort()
    return out


def is_coloring(colors, diagram, structure) -> bool:
    arcs, crossings, free = diagram
    return (len(colors) == arcs + free
            and all(0 <= c < len(structure[0]) for c in colors)
            and _satisfies(colors, crossings, *structure))


def braid_map(word, strands, structure) -> tuple:
    """Bottom colors for every top coloring, tops in lexicographic order."""
    S, R1, R2 = structure
    n = len(S)
    out = []
    for top in product(range(n), repeat=strands):
        c = list(top)
        for kind, i in word:
            x, y = c[i - 1], c[i]
            if kind == "t":
                c[i - 1], c[i] = R1[x][y], R2[x][y]
            elif kind == "s":
                c[i - 1], c[i] = y, S[x][y]
            else:
                c[i - 1], c[i] = S[y][x], x
        out.append(tuple(c))
    return tuple(out)


def closure_count(word, strands, structure) -> int:
    """Colorings of the braid closure: the top colorings the braid's map
    fixes, since every arc's color follows from the top colors."""
    n = len(structure[0])
    tops = product(range(n), repeat=strands)
    return sum(1 for top, bottom in zip(tops, braid_map(word, strands, structure))
               if top == bottom)


def _prime_powers(n):
    out = []
    p = 2
    while n > 1:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    return out


def linear_closure_count(word, strands, n, t, b) -> int:
    """closure_count for the linear structure (n, t, b).

    The braid's map is linear over Z_n, so its fixed points form the kernel
    of (map - identity), and the kernel's size mod n is the product of its
    sizes mod each prime-power factor q of n (Chinese remainder theorem).
    """
    total = 1
    for q in _prime_powers(n):
        total *= closure_count(word, strands, linear_structure(q, t % q, b % q))
    return total


def twist_system_count(k, side, n, t, b) -> int:
    """Solutions (x, y) of the printed two-strand twist-region system."""
    if side == "left":
        coeffs = ((1 - b) ** 2, -k * t + b + k)
    else:
        coeffs = (-k + k * t + b, -1 + k + t - k + b)
    return sum(1 for x in range(n) for y in range(n)
               if all(c * (x - y) % n == 0 for c in coeffs))


# --- self-test -------------------------------------------------------------

FIG9_LEFT = (4, ((0, 1, 2, 3), (2, 3, 0, 1)), 0)
FIG9_RIGHT = (4, ((0, 1, 2, 3), (2, 3, 1, 0)), 0)


def self_test() -> list:
    """Hand values from the project README; returns the mismatches."""
    bad = []

    def expect(what, got, want):
        if got != want:
            bad.append(f"{what}: got {got!r}, want {want!r}")

    s1094 = linear_structure(10, 9, 4)
    expect("fig9-left under (10, 9, 4)", len(colorings(FIG9_LEFT, s1094)), 20)
    expect("fig9-right under (10, 9, 4)", len(colorings(FIG9_RIGHT, s1094)), 10)
    # fig9-left is the closure of t1 t1 on two strands
    expect("closure of t1 t1 under (10, 9, 4)",
           closure_count([("t", 1), ("t", 1)], 2, s1094), 20)
    expect("same, by prime-power factors",
           linear_closure_count([("t", 1), ("t", 1)], 2, 10, 9, 4), 20)
    expect("twist system left k=1 under (5, 4, 3)",
           twist_system_count(1, "left", 5, 4, 3), 5)
    expect("twist system right k=1 under (4, 1, 2)",
           twist_system_count(1, "right", 4, 1, 2), 8)
    expect("(10, 9, 4) passes every axiom", failures(s1094), {})

    # the bundled candidate: x * y = 2y - x, R1 = R2 = 3x + 3y over Z_5
    star = tuple(tuple((2 * y - x) % 5 for y in range(5)) for x in range(5))
    r = tuple(tuple((3 * x + 3 * y) % 5 for y in range(5)) for x in range(5))
    candidate = (star, r, r)
    expect("candidate riva witness", first_failure(candidate, "riva"), (0, 0, 1))
    expect("candidate riva sides", evaluate(candidate, "riva", (0, 0, 1)), (4, 1))
    expect("candidate holds exactly the star and rivb axioms",
           sorted(set(AXIOMS) - set(failures(candidate))),
           sorted(STAR_AXIOMS + ("rivb-r1", "rivb-r2")))
    return bad


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print(line)
    print("oracle self-test:", "FAIL" if problems else "ok")
    raise SystemExit(1 if problems else 0)
