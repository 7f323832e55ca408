"""Axiom checking for quandle tables and singquandle triples.

Every axiom is an equation evaluated over tuples of colors; an axiom holds
when lhs == rhs at every tuple.  Each axiom is written once, as a generator
of (lhs, rhs) over one range per coordinate, first coordinate outermost.
The checker runs it once over the full ranges under all(starmap(eq, ...));
only an axiom that fails is walked again beside the tuples, to report the
lexicographically first failing tuple together with the two sides evaluated
there.  :func:`evaluate_axiom` runs the same generator on one-point ranges,
so a failure can be reproduced with it.

:func:`check_table` reports the four star-table axioms of one table, and
:func:`check_all` the full VERIFIED predicate for a triple (star, r1, r2),
all 14 axioms in this order:

* star is a quandle (right translations bijective, right self-distributive,
  idempotent) and involutive;
* the five rotation axioms hold (a singular crossing reads the same after a
  quarter turn);
* the five move axioms hold ("riva", "rv-r1", "rv-r2", "rivb-r1", "rivb-r2",
  the coloring conditions of the singular Reidemeister moves).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product, starmap
from operator import eq

from .tables import OpTable, Singquandle


@dataclass(frozen=True)
class AxiomResult:
    axiom: str
    holds: bool
    witness: tuple[int, ...] | None = None
    lhs: object = None
    rhs: object = None


@dataclass(frozen=True)
class AxiomReport:
    results: tuple[AxiomResult, ...]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.results)

    def failures(self) -> tuple[AxiomResult, ...]:
        return tuple(r for r in self.results if not r.holds)

    def result(self, axiom: str) -> AxiomResult:
        for r in self.results:
            if r.axiom == axiom:
                return r
        raise KeyError(axiom)

    def __iter__(self):
        return iter(self.results)


# --- evaluators: each takes one range per coordinate and yields (lhs, rhs)
# at every tuple of those ranges, first coordinate outermost; the axiom holds
# at a tuple iff lhs == rhs there


def _idempotent(t, xs):
    return ((t[x][x], x) for x in xs)


def _right_bijective(t, xs, ys, zs):
    # injectivity of each right translation, as a biconditional
    return ((x == y, t[x][z] == t[y][z]) for x in xs for y in ys for z in zs)


def _self_distributive(t, xs, ys, zs):
    return ((t[t[x][y]][z], t[t[x][z]][t[y][z]])
            for x in xs for y in ys for z in zs)


def _involutive(t, xs, ys):
    return ((t[t[x][y]][y], x) for x in xs for y in ys)


TABLE_AXIOMS = {
    "right-bijective": (3, _right_bijective),
    "self-distributive": (3, _self_distributive),
    "idempotent": (1, _idempotent),
    "involutive": (2, _involutive),
}


def _rot_x_via_r1(s, xs, ys):
    r1, r2 = s.r1.rows, s.r2.rows
    return ((r1[y][r2[x][y]], x) for x in xs for y in ys)


def _rot_x_via_r2(s, xs, ys):
    r1, r2 = s.r1.rows, s.r2.rows
    return ((r2[r2[x][y]][r1[x][y]], x) for x in xs for y in ys)


def _rot_y_via_r2(s, xs, ys):
    r1, r2 = s.r1.rows, s.r2.rows
    return ((r2[r1[x][y]][x], y) for x in xs for y in ys)


def _rot_y_via_r1(s, xs, ys):
    r1, r2 = s.r1.rows, s.r2.rows
    return ((r1[r2[x][y]][r1[x][y]], y) for x in xs for y in ys)


def _rot_outputs(s, xs, ys):
    r1, r2 = s.r1.rows, s.r2.rows
    return (((r1[x][y], r2[x][y]), (r2[y][r2[x][y]], r1[r1[x][y]][x]))
            for x in xs for y in ys)


def _riva(s, xs, ys, zs):
    star, r1, r2 = s.star.rows, s.r1.rows, s.r2.rows
    return ((star[star[y][z]][r2[x][z]], star[star[y][x]][r1[x][z]])
            for x in xs for y in ys for z in zs)


def _rv_r1(s, xs, ys):
    star, r1, r2 = s.star.rows, s.r1.rows, s.r2.rows
    return ((r1[x][y], r2[star[y][x]][x]) for x in xs for y in ys)


def _rv_r2(s, xs, ys):
    star, r1, r2 = s.star.rows, s.r1.rows, s.r2.rows
    return ((r2[x][y], star[r1[star[y][x]][x]][r2[star[y][x]][x]])
            for x in xs for y in ys)


def _rivb_r1(s, xs, ys, zs):
    star, r1 = s.star.rows, s.r1.rows
    return ((star[r1[star[x][y]][z]][y], r1[x][star[z][y]])
            for x in xs for y in ys for z in zs)


def _rivb_r2(s, xs, ys, zs):
    star, r2 = s.star.rows, s.r2.rows
    return ((r2[star[x][y]][z], star[r2[x][star[z][y]]][y])
            for x in xs for y in ys for z in zs)


ROTATION_AXIOMS = {
    "rotation-x-via-r1": (2, _rot_x_via_r1),
    "rotation-x-via-r2": (2, _rot_x_via_r2),
    "rotation-y-via-r2": (2, _rot_y_via_r2),
    "rotation-y-via-r1": (2, _rot_y_via_r1),
    "rotation-outputs": (2, _rot_outputs),
}

MOVE_AXIOMS = {
    "riva": (3, _riva),
    "rv-r1": (2, _rv_r1),
    "rv-r2": (2, _rv_r2),
    "rivb-r1": (3, _rivb_r1),
    "rivb-r2": (3, _rivb_r2),
}


def _scan(name: str, arity: int, evaluate, target, n: int) -> AxiomResult:
    ranges = (range(n),) * arity
    if all(starmap(eq, evaluate(target, *ranges))):
        return AxiomResult(name, True)
    # only a failing axiom is walked again, to find its first witness
    for args, (lhs, rhs) in zip(product(*ranges), evaluate(target, *ranges)):
        if lhs != rhs:
            return AxiomResult(name, False, args, lhs, rhs)


def evaluate_axiom(target, name: str, args: tuple[int, ...]):
    """Re-evaluate one axiom at a tuple; returns (lhs, rhs)."""
    if name in TABLE_AXIOMS:
        arity, evaluate = TABLE_AXIOMS[name]
        target = (target.star if isinstance(target, Singquandle) else target).rows
    elif name in ROTATION_AXIOMS or name in MOVE_AXIOMS:
        if not isinstance(target, Singquandle):
            raise ValueError(f"axiom {name!r} needs a full singquandle")
        arity, evaluate = ROTATION_AXIOMS.get(name) or MOVE_AXIOMS[name]
    else:
        raise KeyError(name)
    if len(args) != arity:
        raise ValueError(f"axiom {name!r} takes {arity} coordinates, got {len(args)}")
    return next(evaluate(target, *((a,) for a in args)))


def check_table(table: OpTable) -> AxiomReport:
    """The four star-table axioms (quandle and involutive), in report order."""
    rows, n = table.rows, table.order
    return AxiomReport(tuple(_scan(nm, arity, fn, rows, n)
                             for nm, (arity, fn) in TABLE_AXIOMS.items()))


def check_all(s: Singquandle) -> AxiomReport:
    """All 14 axioms of the VERIFIED predicate, in report order."""
    n = s.order
    return AxiomReport(check_table(s.star).results + tuple(
        _scan(nm, arity, fn, s, n)
        for nm, (arity, fn) in chain(ROTATION_AXIOMS.items(), MOVE_AXIOMS.items())))
