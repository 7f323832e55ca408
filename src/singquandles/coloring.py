"""Coloring counts of singular diagrams by finite singquandles.

Two backends: a search over a static plan compiled from the diagram, for
arbitrary tables, and exact linear algebra modulo n (one diagonalization
of the congruence system) for the linear family, where every crossing
constraint is a linear congruence.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, islice, product
from math import gcd

from .alexander import AlexanderParams
from .diagrams import Classical, Singular, SingularDiagram
from .smith import kernel_count_mod, kernel_vectors_mod
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
# classical (a, b, c) and singular (nw, ne, sw, se) crossings, and each
# classical leg alone (under a trivial star, c == a).  A lone singular leg
# seldom fixes another, and a pair with it does so one step later.
_PAIRS = (((0, 0), (0, 2), (1, 1), (1, 2), (2, 2)),
          tuple(combinations(range(4), 2))[1:])


def _inverse(legs: list, q: int, r: int, p: int, n: int):
    """The table of leg p as a function of legs q and r, or None if it
    adds nothing to a plan.

    legs lists the leg tuples of one crossing kind, one per pair of inputs.
    The table is None where no inputs give legs q and r those colors, so
    with p == q it is a filter, which adds nothing if it passes them all.
    q == r asks about one leg alone, and the table is read on its diagonal.
    """
    table = [[None] * n for _ in range(n)]
    for t in legs:
        row = table[t[q]]
        w = row[t[r]]
        if w is None:
            row[t[r]] = t[p]
        elif w != t[p]:
            return None
    unmet = sum(row.count(None) for row in table) if p == q else -1
    return None if unmet == (n * n - n if q == r else 0) else table


def _vacuous(cr, s: Singquandle) -> bool:
    """Whether crossing cr holds under every coloring of its arcs.

    Only a crossing whose outputs are among its inputs can, such as a kink
    under an idempotent star.  It constrains nothing, so its arcs may be
    left to count n each, like arcs no crossing touches.
    """
    labels = cr.labels
    a, b = labels[:2]
    if not {a, b}.issuperset(labels[2:]):
        return False
    n = s.order
    pairs = [(x, x) for x in range(n)] if a == b else product(range(n), repeat=2)
    tables = (s.r1.rows, s.r2.rows) if isinstance(cr, Singular) else (s.star.rows,)
    return all(rows[x][y] == {a: x, b: y}[out]
               for x, y in pairs for rows, out in zip(tables, labels[2:]))


def _compile(diagram: SingularDiagram, s: Singquandle):
    """The static search plan, one step (seed, ops) per seed arc, and the
    unread arcs, which no crossing constrains.

    After each seed, every crossing whose two input legs are known fires:
    its outputs are looked up in the tables (star for classical crossings,
    r1 and r2 for singular ones).  A crossing that cannot fire is solved
    from its known legs (_PAIRS): a filter rejects colors that no inputs
    give those legs, and a leg that they determine under these tables is
    read from an inverse table (_inverse).  An op (table, x, y, out, check)
    assigns table[x][y] to out when check is False, and otherwise rejects
    the seed's value unless out already holds it.

    The first seed is the lowest-index arc; each later one is the unknown
    input, of a crossing with one input known, that lets the most arcs be
    learned.  So the seeds, and the cost, hardly hang on how the arcs are
    numbered.  Vacuous crossings are left out, so an arc that no other
    crossing touches is unread and gets no step.
    """
    n = s.order
    kinds = ((s.star.rows,), (s.r1.rows, s.r2.rows))
    crossings = []
    touching = [[] for _ in range(diagram.arcs)]
    for cr in diagram.crossings:
        if not _vacuous(cr, s):
            for x in set(cr.labels):
                touching[x].append(len(crossings))
            crossings.append((cr.labels, isinstance(cr, Singular)))
    known = [not t for t in touching]
    unread = [x for x, t in enumerate(touching) if not t]
    fired = [False] * len(crossings)
    solved = set()

    @cache
    def legs_of(kind):
        """The leg tuples of a crossing kind, one per pair of inputs."""
        inputs = zip(*product(range(n), repeat=2))
        flat = (chain.from_iterable(rows) for rows in kinds[kind])
        return list(zip(*inputs, *flat))

    @cache
    def table(kind, q, r, p):
        return _inverse(legs_of(kind), q, r, p, n)

    def solve(i, known, solved, ops):
        legs, kind = crossings[i]
        new = []
        for q, r in _PAIRS[kind]:
            x, y = legs[q], legs[r]
            if not (known[x] and known[y]) or (i, q, r) in solved:
                continue
            solved.add((i, q, r))
            feasible = table(kind, q, r, q)
            if feasible is not None:
                ops.append((feasible, x, y, x, True))
            for p, z in enumerate(legs):
                inverse = None if known[z] else table(kind, q, r, p)
                if inverse is not None:
                    known[z] = True
                    ops.append((inverse, x, y, z, False))
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
                    for rows, out in zip(kinds[kind], legs[2:]):
                        ops.append((rows, a, b, out, known[out]))
                        if not known[out]:
                            known[out] = True
                            learned.append(out)
            learned = []
            for i in sorted(waiting):
                if not fired[i]:
                    learned += solve(i, known, solved, ops)
        return ops

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
            return plan, unread
        ready = sorted({x for legs, _ in crossings
                        if known[legs[0]] != known[legs[1]]
                        for x in legs[:2] if not known[x]})
        if len(ready) > 1:
            seed = min(ready, key=unlearned)
        else:
            seed = ready[0] if ready else low
        plan.append((seed, tuple(spread(seed, known, fired, solved))))


def count_colorings_bruteforce(diagram: SingularDiagram, s: Singquandle,
                               list_colorings: bool = False,
                               cap: int = DEFAULT_LIST_CAP) -> ColoringReport:
    """Exact coloring count by a depth-first search over the seeds' values.

    The plan's inverse tables are read off the given tables, so this works
    for any tables.  A listing keeps the least cap colorings the search
    meets, so it costs about what the count does, whatever the numbering.
    The search keeps its own stack, so any number of seeds is fine.
    """
    n = s.order
    # an unread arc takes any color: each leaf of the search stands for n
    # colorings per unread arc and per free circle
    plan, unread = _compile(diagram, s)
    color = [None] * diagram.arcs
    kept = []

    def gather():
        kept.append(tuple(color))
        if len(kept) > 2 * cap:
            kept.sort()
            del kept[cap:]
        return 1

    leaf = gather if list_colorings else (lambda: 1)

    # the stack holds the (seed, ops, value, next step's entries) still to
    # try, the least value on top: the walk is depth first, and meets the
    # leaves in lexicographic order of the seeds' values in plan order
    entries = None
    for seed, ops in reversed(plan):
        entries = [(seed, ops, v, entries) for v in reversed(range(n))]
    leaves = 0 if plan else leaf()
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
            if after is None:
                leaves += leaf()
            else:
                stack += after

    count = leaves * n ** (len(unread) + diagram.free)
    if not list_colorings:
        return ColoringReport(count, BACKEND_BRUTE)

    def widen(head):
        coloring = list(head)
        for values in product(range(n), repeat=len(unread)):
            for x, v in zip(unread, values):
                coloring[x] = v
            yield tuple(coloring)

    # a leaf ranked cap or later only widens past the first cap colorings
    heads = sorted(kept)[:cap]
    if unread:
        heads = heapq.merge(*map(widen, heads))
    tails = list(product(range(n), repeat=diagram.free))
    listed = tuple(islice((c + t for c in heads for t in tails), cap))
    return ColoringReport(count, BACKEND_BRUTE, listed, len(listed) < count)


def _congruence_rows(diagram: SingularDiagram, p: AlexanderParams) -> tuple:
    """The rows of the homogeneous system A c == 0 (mod n), one column per
    arc: one row per classical crossing, and one per output of a singular
    crossing."""
    star, r1, r2 = p.coefficients
    rows = []
    for cr in diagram.crossings:
        if isinstance(cr, Classical):
            rows.append(_constraint_row(diagram.arcs, p.n, cr.c, cr.a, cr.b, star))
        else:
            rows.append(_constraint_row(diagram.arcs, p.n, cr.sw, cr.nw, cr.ne, r1))
            rows.append(_constraint_row(diagram.arcs, p.n, cr.se, cr.nw, cr.ne, r2))
    return tuple(rows)


def _constraint_row(arcs, n, out, in1, in2, coeffs):
    row = [0] * arcs
    row[out] += 1
    row[in1] -= coeffs[0]
    row[in2] -= coeffs[1]
    return tuple(x % n for x in row)


def count_colorings_linear(diagram: SingularDiagram, p: AlexanderParams,
                           list_colorings: bool = False,
                           cap: int = DEFAULT_LIST_CAP) -> ColoringReport:
    """Coloring count for a linear structure: the size of the kernel mod n
    of its congruence system, which is diagonalized modulo n."""
    n = p.n
    rows = _congruence_rows(diagram, p)
    base = kernel_count_mod(rows, diagram.arcs, n)
    count = base * n ** diagram.free

    colorings = None
    if list_colorings and base <= cap:
        vectors = sorted(kernel_vectors_mod(rows, diagram.arcs, n))
        tails = list(product(range(n), repeat=diagram.free))
        colorings = tuple(islice((v + t for v in vectors for t in tails), cap))
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
