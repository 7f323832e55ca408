"""The linear (Alexander-style) singquandle family over Z_n.

Parameters (n, t, b) with

    t^2 - 1 == 0,  b*(1 + t) == 0,  t - (1 - b)^2 == 0   (mod n)

define the tables

    star(x, y) = t*x + (1 - t)*y
    r1(x, y)   = (1 - t - b)*x + (t + b)*y
    r2(x, y)   = (1 - b)*x + b*y

which pass the full checker for every valid parameter triple.  Residues are
normalized into [0, n); t = -1 is stored as n - 1.  The three coefficient
pairs are read from :attr:`AlexanderParams.coefficients`, both by
:func:`build_tables` and by the linear coloring counter.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def coefficients(self) -> tuple:
        """Coefficient pairs (on x, on y) of star, r1 and r2, mod n."""
        n, t, b = self.n, self.t, self.b
        return ((t, (1 - t) % n), ((1 - t - b) % n, (t + b) % n), ((1 - b) % n, b))


def find_params(n: int) -> list[AlexanderParams]:
    """All valid (t, b) residue pairs mod n, ascending by (t, b)."""
    if n < 1:
        raise ValueError("modulus n must be >= 1")
    (_, square), (_, product) = _CONGRUENCES[:2]
    found = []
    for b in range(n):
        t = (1 - b) ** 2 % n        # so the third congruence holds
        if square(n, t, b) == 0 and product(n, t, b) == 0:
            found.append((t, b))
    return [AlexanderParams(n, t, b) for t, b in sorted(found)]


def build_tables(p: AlexanderParams) -> Singquandle:
    n = p.n
    return Singquandle(*(
        OpTable(tuple(tuple((cx * x + cy * y) % n for y in range(n))
                      for x in range(n)))
        for cx, cy in p.coefficients))
