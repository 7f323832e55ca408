"""Coloring counts of singular diagrams by finite singquandles.

Both backends run on one quotient of the diagram, the arcs that a table
passes straight through merged: a search over a static plan, for
arbitrary tables, and exact linear algebra modulo n for the linear
family, where the arcs that the crossings define are substituted out and
only the equations left over are diagonalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice, product
from math import gcd
from operator import itemgetter, mul, sub

from .alexander import AlexanderParams
from .diagrams import Singular, SingularDiagram
from .smith import _kernel, _sparse_row
from .tables import Singquandle

BACKEND_BRUTE = "brute-force"
BACKEND_LINEAR = "linear"

DEFAULT_LIST_CAP = 10 ** 6


@dataclass(frozen=True)
class ColoringReport:
    """Coloring count plus an optional explicit list of colorings.

    A listed coloring is one tuple of arcs + free values, lexicographically
    sorted.  When the full list would exceed the cap, truncated is set and
    colorings holds the lexicographic prefix that fit (or None).
    """

    count: int
    backend: str
    colorings: tuple | None = None
    truncated: bool = False


def serialize_report(report: ColoringReport) -> str:
    lines = [f"count {report.count}"]
    if report.colorings is not None:
        for coloring in report.colorings:
            lines.append(" ".join(str(c) for c in coloring))
    return "\n".join(lines) + "\n"


# The legs a crossing is solved from: each pair but the inputs, for
# classical (a, b, c) and singular (nw, ne, sw, se) crossings.  Under an
# involutive quandle a lone classical leg fixes another only where
# x * y == x, and then c == a and the quotient has merged the crossing
# away.  A lone singular leg seldom fixes another, and a pair with it does
# so one step later.
_PAIRS = (((0, 2), (1, 2)), tuple(combinations(range(4), 2))[1:])

# the tables kept, one entry per crossing kind of a structure (the star's
# shared by the structures with that star), and the diagrams whose plans
# are kept; a caller counts one structure on a few diagrams before the next
_TABLES_KEPT = 8
_DIAGRAMS_KEPT = 64


def _slot(kind: int, pair: int, p: int) -> int:
    """Where the tables of a crossing kind hold the inverse table of leg p
    for the pair _PAIRS[kind][pair]; the slots before hold the kind's
    forward tables, star alone, or r1 and r2."""
    return kind + 1 + (kind + 3) * pair + p


@lru_cache(maxsize=_TABLES_KEPT)
def _tables(forward: tuple):
    """The signature of a crossing kind whose outputs are read off the
    forward tables (star alone, or r1 and r2), the bitmask of the slots
    whose table is None, the tables' pass-through pattern (_quotient), and
    a function that gives the table in any other slot, built on demand.

    The table in the slot of (q, r, p) gives leg p of a crossing of the
    kind as a function of legs q and r.  It is None if two inputs give legs
    q and r the same colors and leg p different ones.  It holds None where
    no inputs give legs q and r those colors, so with p == q it is a
    filter, which adds nothing if it passes them all, and is then None too.
    The signature comes from counts of the distinct colors of legs (q, r)
    and, where those do not settle it, of legs (q, r, p), so no table is
    built for it.
    """
    n = len(forward[0])
    kind = len(forward) - 1
    first, second = zip(*product(range(n), repeat=2))
    legs = (first, second, *(tuple(chain.from_iterable(rows)) for rows in forward))
    built = dict(enumerate(forward))
    # the legs (q, r, p) that each slot's table reads, as columns over the
    # pairs of inputs
    columns = [None] * len(forward)
    unset = 0
    for q, r in _PAIRS[kind]:
        cq, cr = legs[q], legs[r]
        met = len(set(zip(cq, cr)))
        for p, cp in enumerate(legs):
            if p == q:
                vain = met == n * n
            elif p == r or met == n * n:
                # with n * n colors, legs q and r fix the inputs, and so
                # every leg
                vain = False
            elif {q, r, p} >= {0, 1}:
                # legs q, r and p hold both inputs, so take n * n colors,
                # more than legs q and r take
                vain = True
            else:
                vain = len(set(zip(cq, cr, cp))) > met
            unset |= vain << len(columns)
            columns.append((cq, cr, cp))

    def table(slot):
        t = built.get(slot)
        if t is None:
            rows = [[None] * n for _ in range(n)]
            for x, y, z in zip(*columns[slot]):
                rows[x][y] = z
            t = built[slot] = tuple(map(tuple, rows))
        return t

    passes = tuple((0 if cp == first else 1 if cp == second else None,
                    cp[::n + 1] == first[::n + 1]) for cp in legs[2:])
    return unset, passes, table


def _quotient(diagram: SingularDiagram, passes: tuple) -> tuple:
    """(roots, left): the quotient that both backends' plans run on.

    passes gives, per star, r1 and r2, the input its table passes through
    on all pairs (0, 1 or None) and whether it passes x through at (x, x),
    the one pair a crossing with one arc for both inputs reads.  Each
    output so passed through is merged with that input by union-find, the
    least arc of a class its root, and roots maps the other merged arcs to
    their roots.  left holds each crossing with an output not merged as its
    inputs and its (output, 0, 1 or 2 for star, r1 or r2), by label.
    """
    parent = {}

    def find(x):
        while x in parent:
            up = parent[x]
            if up in parent:
                up = parent[x] = parent[up]
            x = up
        return x

    left = []
    for cr in diagram.crossings:
        if isinstance(cr, Singular):
            a, b, outs = cr.nw, cr.ne, ((cr.sw, 1), (cr.se, 2))
        else:
            a, b, outs = cr.a, cr.b, ((cr.c, 0),)
        kept = False
        for out, which in outs:
            side, diagonal = passes[which]
            if side is None and not (diagonal and a == b):
                kept = True
                continue
            x, y = find(out), find(b if side else a)
            if x < y:
                parent[y] = x
            elif y < x:
                parent[x] = y
        if kept:
            left.append((a, b, outs))
    return {x: find(x) for x in parent}, left


@lru_cache(maxsize=_DIAGRAMS_KEPT)
def _skeleton(diagram: SingularDiagram, unset: tuple, passes: tuple):
    """The static search plan on the quotient (_quotient) for every
    structure whose signatures, per crossing kind, are unset and whose
    pattern is passes: one step (seed, ops) per seed arc, the unread arcs
    and the roots.  An op names its table by kind and slot.

    After each seed, every crossing whose two input legs are known fires:
    its outputs are looked up in the tables (star for classical crossings,
    r1 and r2 for singular ones).  A crossing that cannot fire is solved
    from its known legs (_PAIRS): a filter rejects colors that no inputs
    give those legs, and a leg that they determine under these tables is
    read from an inverse table (_tables).  An op (kind, slot, x, y, out,
    check) assigns table[x][y] to out when check is False, and otherwise
    rejects the seed's value unless out already holds it.

    The first seed is the lowest-index arc; each later one is the unknown
    input, of a crossing with one input known, that lets the most arcs be
    learned.  So the seeds, and the cost, hardly hang on how the arcs are
    numbered.  A root that no crossing left touches is unread and gets no
    step, and a merged arc is neither.  Which inverse tables a plan reads
    hangs on the tables only through which of them are None, so one plan
    serves every structure with the same signature and pattern.
    """
    roots, left = _quotient(diagram, passes)
    crossings = []
    touching = [[] for _ in range(diagram.arcs)]
    for a, b, outs in left:
        legs = tuple(roots.get(x, x) for x in (a, b, *(out for out, _ in outs)))
        for x in set(legs):
            touching[x].append(len(crossings))
        crossings.append((legs, len(outs) - 1))
    known = [not t for t in touching]
    unread = [x for x, t in enumerate(touching) if not t and x not in roots]
    fired = [False] * len(crossings)
    solved = set()

    def table(kind, pair, p):
        slot = _slot(kind, pair, p)
        return None if unset[kind] >> slot & 1 else slot

    def solve(i, known, solved, ops):
        legs, kind = crossings[i]
        new = []
        for pair, (q, r) in enumerate(_PAIRS[kind]):
            x, y = legs[q], legs[r]
            if not (known[x] and known[y]) or (i, q, r) in solved:
                continue
            solved.add((i, q, r))
            feasible = table(kind, pair, q)
            if feasible is not None:
                ops.append((kind, feasible, x, y, x, True))
            for p, z in enumerate(legs):
                inverse = None if known[z] else table(kind, pair, p)
                if inverse is not None:
                    known[z] = True
                    ops.append((kind, inverse, x, y, z, False))
                    new.append(z)
        return new

    def spread(seed, known, fired, solved):
        """The ops that learn seed and every arc it determines."""
        known[seed] = True
        ops = []
        learned = [seed]
        while learned:
            waiting = set()
            for x in learned:
                for i in touching[x]:
                    if fired[i]:
                        continue
                    legs, kind = crossings[i]
                    a, b = legs[0], legs[1]
                    if not (known[a] and known[b]):
                        waiting.add(i)
                        continue
                    fired[i] = True
                    for slot, out in enumerate(legs[2:]):
                        ops.append((kind, slot, a, b, out, known[out]))
                        if not known[out]:
                            known[out] = True
                            learned.append(out)
            learned = []
            for i in sorted(waiting):
                if not fired[i]:
                    learned += solve(i, known, solved, ops)
        # crossings that hold the same arcs as the same legs give one check
        return list(dict.fromkeys(ops))

    def unlearned(x):
        """How many arcs stay unknown if x is the next seed."""
        trial = known[:]
        spread(x, trial, fired[:], set(solved))
        return trial.count(False)

    plan = []
    low = 0
    while True:
        while low < diagram.arcs and known[low]:
            low += 1
        if low == diagram.arcs:
            return tuple(plan), tuple(unread), roots
        ready = sorted({x for legs, _ in crossings
                        if known[legs[0]] != known[legs[1]]
                        for x in legs[:2] if not known[x]})
        if len(ready) > 1:
            seed = min(ready, key=unlearned)
        else:
            seed = ready[0] if ready else low
        plan.append((seed, tuple(spread(seed, known, fired, solved))))


def _compile(diagram: SingularDiagram, s: Singquandle):
    """The plan, unread arcs and roots of _skeleton, the plan's slots bound
    to s's tables.  The tables are built once per crossing kind of a
    structure (the classical ones once per star) and the skeleton once per
    diagram, signatures and pattern, so a call mostly binds slots.
    """
    unset, passes, table = zip(_tables((s.star.rows,)), _tables((s.r1.rows, s.r2.rows)))
    plan, unread, roots = _skeleton(diagram, unset, passes[0] + passes[1])
    return [(seed, tuple([(table[kind](slot), a, b, out, check)
                          for kind, slot, a, b, out, check in ops]))
            for seed, ops in plan], unread, roots


def count_colorings_bruteforce(diagram: SingularDiagram, s: Singquandle,
                               list_colorings: bool = False,
                               cap: int = DEFAULT_LIST_CAP) -> ColoringReport:
    """Exact coloring count by a depth-first search over the seeds' values.

    The plan's inverse tables are read off the given tables, so this works
    for any tables.  A listing keeps the least cap colorings the search
    meets, so it costs about what the count does, whatever the numbering.
    The search keeps its own stack, so any number of seeds is fine.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    n = s.order
    # an unread arc takes any color: each leaf of the search stands for n
    # colorings per unread arc and per free circle
    plan, unread, roots = _compile(diagram, s)
    color = [None] * diagram.arcs
    # with no seeds, the search's one leaf is the empty coloring
    leaves = 0 if plan else 1
    kept = [] if plan else [tuple(color)]

    # the stack holds the (seed, ops, value, next step's entries) still to
    # try, the least value on top: the walk is depth first, and meets the
    # leaves in lexicographic order of the seeds' values in plan order
    entries = None
    for seed, ops in reversed(plan):
        entries = [(seed, ops, v, entries) for v in reversed(range(n))]
    stack = list(entries or ())
    while stack:
        seed, ops, v, after = stack.pop()
        color[seed] = v
        for table, a, b, out, check in ops:
            w = table[color[a]][color[b]]
            if not check:
                color[out] = w
            elif color[out] != w:
                break
        else:
            if after is not None:
                stack += after
                continue
            leaves += 1
            if list_colorings:
                kept.append(tuple(color))
                if len(kept) > 2 * cap:
                    kept.sort()
                    del kept[cap:]

    count = leaves * n ** (len(unread) + diagram.free)
    if not list_colorings:
        return ColoringReport(count, BACKEND_BRUTE)

    # a leaf ranked cap or later only widens past the first cap colorings
    heads = sorted(kept)[:cap]
    if unread and heads:
        heads = _widen(heads, unread, n)
    if roots:
        # a merged arc takes the color of its root, an arc before it
        heads = map(itemgetter(*[roots.get(x, x) for x in range(diagram.arcs)]), heads)
    listed = _with_tails(heads, n, diagram.free, cap)
    return ColoringReport(count, BACKEND_BRUTE, listed, len(listed) < count)


def _widen(heads: list, unread: list, n: int):
    """The sorted heads, which hold None at the unread arcs, each with
    every coloring of those arcs, in lexicographic order.

    One frame per unread arc holds the group of heads that agree on the
    arcs before it, the end of the group one level up, and the arc's color.
    So memory does not grow with the heads, and any number of unread arcs
    is fine.
    """
    depth = len(unread)
    frames = []
    values = [0] * depth
    start, stop = 0, len(heads)
    while True:
        level = len(frames)
        if level < depth:
            # the group of heads[start:stop] that agree with the first on
            # the arcs before the next unread arc, which takes color 0
            u = unread[level]
            key = heads[start][:u]
            end = start + 1
            while end < stop and heads[end][:u] == key:
                end += 1
            frames.append((start, end, stop))
            values[level] = 0
            stop = end
            continue
        for i in range(start, stop):
            coloring = list(heads[i])
            for x, v in zip(unread, values):
                coloring[x] = v
            yield tuple(coloring)
        # the next color of the deepest arc that has one left, else the
        # next group at its level
        while frames:
            level = len(frames) - 1
            start, end, stop = frames[level]
            if values[level] + 1 < n:
                values[level] += 1
                stop = end
                break
            frames.pop()
            if end < stop:
                start = end
                break
        else:
            return


def _with_tails(heads, n: int, free: int, cap: int) -> tuple:
    """The first cap colorings, in order, of the sorted arc colorings heads
    each followed by the colors of the free circles."""
    # only the first cap tails can reach the listing
    tails = list(islice(product(range(n), repeat=free), cap))
    return tuple(islice((c + t for c in heads for t in tails), cap))


def _passes(coefficients: tuple, n: int) -> tuple:
    """For each of star, r1 and r2, the input its output equals (0 or 1:
    its coefficient pair is (1, 0) or (0, 1) mod n), or None."""
    one = 1 % n
    return tuple(0 if pair == (one, 0) else 1 if pair == (0, one) else None
                 for pair in coefficients)


@lru_cache(maxsize=_DIAGRAMS_KEPT)
def _linear_plan(diagram: SingularDiagram, passes: tuple) -> tuple:
    """(classes, columns, template, steps, roots, index): the substitution
    plan of every linear structure whose pass-through pattern (_passes) is
    passes.

    The colorings are those of the quotient (_quotient), each class of
    arcs taking one color; classes counts the classes, an arc that no
    crossing touches being one of its own, and roots maps each merged arc
    that is not a root to its root.  The output equations of the crossings
    left that are not merged are walked in crossing order, on the classes.
    An input class met for the first time is free and takes the next of
    the columns.  An output class met for the first time, and not among
    its own crossing's inputs, is defined by its equation, out = x * in1 +
    y * in2 with (x, y) the coefficients of star, r1 or r2.  Every other
    equation, its classes substituted, leaves one residual row.  Each
    defined class has just the one equation that defines it, and a class
    the walk never meets takes any color.  On a braid closure only the
    strands whose bottom arc is a crossing output leave a residual row.

    index numbers the walked classes by root, in the order the walk meets
    them.  template holds, at each walked class, its column's unit vector
    if it is free, and None if it is defined.  A step (out, which, a, b,
    defines) is one equation on those numbers, which naming star, r1 or r2.
    """
    # each coefficient pair sums to 1 mod n, so x * x == x for every table
    roots, left = _quotient(diagram, tuple((side, True) for side in passes))
    index = {}
    # each walked class's column, None for a defined one
    column = []
    columns = 0
    steps = []
    for a, b, outs in left:
        a, b = roots.get(a, a), roots.get(b, b)
        for out, which in outs:
            if passes[which] is not None:
                continue
            out = roots.get(out, out)
            for x in (a, b):
                if x not in index:
                    index[x] = len(column)
                    column.append(columns)
                    columns += 1
            defines = out not in index
            if defines:
                index[out] = len(column)
                column.append(None)
            steps.append((index[out], which, index[a], index[b], defines))
    template = tuple(None if k is None
                     else tuple(int(i == k) for i in range(columns))
                     for k in column)
    return (diagram.arcs - len(roots), columns, template, tuple(steps),
            roots, index)


def _substitute(template: tuple, steps: tuple, coefficients: tuple,
                n: int) -> tuple:
    """(combos, residual): the color of each walked class of a plan as a
    dense combination of the free columns' colors, its coefficients reduced
    mod n, and the residual rows over the columns, in the form _kernel
    takes."""
    combos = list(template)
    residual = []
    for out, which, a, b, defines in steps:
        x, y = coefficients[which]
        image = [(x * u + y * v) % n for u, v in zip(combos[a], combos[b])]
        if defines:
            combos[out] = image
        else:
            residual.append(_sparse_row(map(sub, combos[out], image), n))
    return combos, residual


def count_colorings_linear(diagram: SingularDiagram, p: AlexanderParams,
                           list_colorings: bool = False,
                           cap: int = DEFAULT_LIST_CAP) -> ColoringReport:
    """Coloring count for a linear structure: the size of the kernel mod n
    of its congruence system.

    The plan (_linear_plan) is kept per diagram and pass-through pattern,
    and walks the equations left on the quotient (_quotient).  The valid
    members have three patterns: no table passes an input through; only
    star does (t = 1, b != 0); or all three do ((n, 1, 0), and every
    member with n = 1), and then the plan has no steps and the count is n
    to the number of classes and free circles.  Per member only the
    arithmetic is left: the combinations, on dense lists over the free
    columns (_substitute), and the diagonalization mod n of the residual
    rows.  A listing expands each generator of the kernel once into colors
    of the arcs, and sums their multiples.

    A listed coloring is held as one int, the arcs' colors its digits of w
    bytes, arc 0 the most significant, with w the least width such that
    2n <= 2 ** (8w - 1): one byte for n <= 64, two for n <= 16384.  So
    sorting the ints sorts the colorings, and two colorings add as ints:
    no digit of the sum passes 2n - 2, so none carries into the next, and
    each digit is reduced mod n at once, by taking n from every digit
    whose top bit adding 2 ** (8w - 1) - n sets.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    n = p.n
    coefficients = p.coefficients
    classes, columns, template, steps, roots, index = _linear_plan(
        diagram, _passes(coefficients, n))
    combos, residual = _substitute(template, steps, coefficients, n)
    base, diag, v = _kernel(residual, columns, n, list_colorings)
    # the classes the walk never meets take any color
    walked = len(combos)
    base *= n ** (classes - walked)
    count = base * n ** diagram.free

    colorings = None
    if list_colorings and base <= cap:
        # each arc's class, the classes not walked numbered after the rest
        number = dict(index)
        of = [number.setdefault(roots.get(x, x), len(number))
              for x in range(diagram.arcs)]
        # the kernel's generators as colors of the arcs, each with the step
        # of its multiples: each column j of V with gcd(d_j, n) > 1,
        # expanded through the walked classes, and each class not walked
        generators = []
        for j, vj in enumerate(v):
            g = gcd(diag.get(j, 0), n)
            if g > 1:
                y = [vj.get(i, 0) for i in range(columns)]
                values = [sum(map(mul, combo, y)) % n for combo in combos]
                generators.append(
                    ([values[c] if c < walked else 0 for c in of], n // g))
        if n > 1:
            generators += [([int(c == k) for c in of], 1)
                           for k in range(walked, classes)]
        # each coloring as one int of w-byte digits (above): lift holds
        # 2 ** top - n in every digit and high each digit's top bit
        w = (2 * n - 1).bit_length() // 8 + 1
        size = diagram.arcs * w
        top = 8 * w - 1
        lift = int.from_bytes(((1 << top) - n).to_bytes(w, "big") * diagram.arcs,
                              "big")
        high = int.from_bytes((1 << top).to_bytes(w, "big") * diagram.arcs,
                              "big")
        vectors = [0]
        for generator, step in generators:
            packed = int.from_bytes(b"".join([(step * x % n).to_bytes(w, "big")
                                              for x in generator]), "big")
            multiples = [0]
            for _ in range(n // step - 1):
                t = multiples[-1] + packed
                multiples.append(t - (((t + lift) & high) >> top) * n)
            vectors = [t - (((t + lift) & high) >> top) * n
                       for c in vectors for m in multiples for t in (c + m,)]
        vectors.sort()
        if w == 1:
            heads = [tuple(c.to_bytes(size, "big")) for c in vectors]
        else:
            heads = [tuple(int.from_bytes(b[i:i + w], "big")
                           for i in range(0, size, w))
                     for b in (c.to_bytes(size, "big") for c in vectors)]
        colorings = _with_tails(heads, n, diagram.free, cap)
    truncated = list_colorings and (colorings is None or len(colorings) < count)
    return ColoringReport(count, BACKEND_LINEAR, colorings, truncated)


def fig8_system_count(k: int, side: str, p: AlexanderParams,
                      list_colorings: bool = False) -> ColoringReport:
    """Count pairs (x, y) in Z_n x Z_n satisfying one side's two congruences.

    These are the displayed colorability conditions for the two closed
    2-strand diagrams with one singular crossing and a 2k-twist region;
    both conditions constrain the single difference x - y.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    n, t, b = p.n, p.t, p.b
    if side == "left":
        coeffs = ((1 - b) ** 2, -k * t + b + k)
    else:
        coeffs = (-k + k * t + b, -1 + k + t - k + b)
    # c * (x - y) == 0 mod n for both c exactly when x - y is a multiple
    # of n / g, so n * g pairs satisfy the system
    g = gcd(*coeffs, n)
    pairs = None
    if list_colorings:
        diffs = range(0, n, n // g)
        pairs = tuple((x, y) for x in range(n)
                      for y in sorted((x - d) % n for d in diffs))
    return ColoringReport(n * g, BACKEND_LINEAR, pairs, False)


@dataclass(frozen=True)
class Verdict:
    """Outcome of scanning a family of structures against two diagrams."""

    separated: bool
    structure: object = None
    index: int = None
    counts: tuple = None

    def __str__(self):
        if not self.separated:
            return "not separated"
        return f"separated at index {self.index}: counts {self.counts[0]} vs {self.counts[1]}"


def _count_for(member, diagram: SingularDiagram) -> int:
    # count_colorings_linear is read as a module global on each call, so a
    # wrapper put in its place (perfbench traces this way) is the one called
    if isinstance(member, AlexanderParams):
        return count_colorings_linear(diagram, member).count
    return count_colorings_bruteforce(diagram, member).count


def distinguish(d1: SingularDiagram, d2: SingularDiagram, family) -> Verdict:
    """Scan the family in order; report the first member with differing counts.

    Members are AlexanderParams, counted by the linear backend, or
    Singquandle tables, counted by brute force.
    """
    for index, member in enumerate(family):
        c1 = _count_for(member, d1)
        c2 = _count_for(member, d2)
        if c1 != c2:
            return Verdict(True, member, index, (c1, c2))
    return Verdict(False)
