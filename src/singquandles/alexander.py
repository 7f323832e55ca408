"""The linear (Alexander-style) singquandle family over Z_n.

Parameters (n, t, b) with

    t^2 - 1 == 0,  b*(1 + t) == 0,  t - (1 - b)^2 == 0   (mod n)

define the tables

    star(x, y) = t*x + (1 - t)*y
    r1(x, y)   = (1 - t - b)*x + (t + b)*y
    r2(x, y)   = (1 - b)*x + b*y

which pass the full checker for every valid parameter triple.  Residues are
normalized into [0, n); t = -1 is stored as n - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axioms import AxiomReport, check_all
from .tables import OpTable, Singquandle

_CONGRUENCES = (
    ("t^2 - 1", lambda n, t, b: (t * t - 1) % n),
    ("b*(1 + t)", lambda n, t, b: (b * (1 + t)) % n),
    ("t - (1 - b)^2", lambda n, t, b: (t - (1 - b) ** 2) % n),
)


@dataclass(frozen=True)
class AlexanderParams:
    """Validated parameter triple; construction rejects invalid residues."""

    n: int
    t: int
    b: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("modulus n must be >= 1")
        object.__setattr__(self, "t", self.t % self.n)
        object.__setattr__(self, "b", self.b % self.n)
        for name, residue in _CONGRUENCES:
            v = residue(self.n, self.t, self.b)
            if v != 0:
                raise ValueError(f"{name} = {v} != 0 (mod {self.n}) for t={self.t}, b={self.b}")


@dataclass(frozen=True)
class LinearOps:
    """Coefficient pairs (on x, on y) of the three operations, mod n."""

    n: int
    star: tuple[int, int]
    r1: tuple[int, int]
    r2: tuple[int, int]

    @staticmethod
    def from_params(p: AlexanderParams) -> "LinearOps":
        n, t, b = p.n, p.t, p.b
        return LinearOps(n,
                         (t % n, (1 - t) % n),
                         ((1 - t - b) % n, (t + b) % n),
                         ((1 - b) % n, b % n))

    def table(self, op: str) -> OpTable:
        cx, cy = getattr(self, op)
        n = self.n
        return OpTable(tuple(
            tuple((cx * x + cy * y) % n for y in range(n)) for x in range(n)))


def find_params(n: int) -> list[AlexanderParams]:
    """All valid (t, b) residue pairs mod n, ascending by (t, b)."""
    if n < 1:
        raise ValueError("modulus n must be >= 1")
    found = []
    for b in range(n):
        t = (1 - b) ** 2 % n        # the third congruence fixes t given b
        if all(residue(n, t, b) == 0 for _, residue in _CONGRUENCES):
            found.append((t, b))
    return [AlexanderParams(n, t, b) for t, b in sorted(found)]


def build_tables(p: AlexanderParams) -> Singquandle:
    ops = LinearOps.from_params(p)
    return Singquandle(ops.table("star"), ops.table("r1"), ops.table("r2"))


def verify_proposition(p: AlexanderParams) -> AxiomReport:
    """Full axiom report for the tables built from p (expected all-pass)."""
    return check_all(build_tables(p))
