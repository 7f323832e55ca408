"""Finite binary-operation tables and the singquandle triple.

A singquandle here is a triple of order-n tables (star, r1, r2) over colors
0..n-1.  ``star`` is the quandle operation; ``r1`` and ``r2`` are the two
output maps of a singular crossing.  Whether a triple actually satisfies the
axioms is decided in :mod:`singquandles.axioms`; these types only enforce
shape (square tables, entries in range, equal orders).

Table file format::

    n 3
    star
    0 0 0
    1 1 1
    2 2 2
    r1        # optional, but r1 and r2 come together
    ...
    r2
    ...

``#`` starts a comment; blank lines are ignored; entries are 0-indexed unless
parsed with one_indexed=True.  A file with only the star block denotes a bare
quandle and parses to an OpTable.
"""

from __future__ import annotations

from dataclasses import dataclass


class ParseError(ValueError):
    """Malformed input file; ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class TableParseError(ParseError):
    """Malformed table file."""


def _content_lines(text: str):
    """Yield (1-based line number, content) for each line of text that is
    not empty once its ``#`` comment is cut and it is stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield lineno, content


@dataclass(frozen=True)
class OpTable:
    """Square operation table; ``rows[x][y]`` is the result of x op y."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0:
            raise ValueError("operation table must have order >= 1")
        for row in self.rows:
            if len(row) != n:
                raise ValueError("operation table must be square")
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise ValueError(f"table entry {v!r} out of range [0, {n})")

    @staticmethod
    def from_rows(rows) -> "OpTable":
        return OpTable(tuple(tuple(int(v) for v in row) for row in rows))

    @property
    def order(self) -> int:
        return len(self.rows)

    def apply(self, x: int, y: int) -> int:
        n = len(self.rows)
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"colors ({x}, {y}) out of range [0, {n})")
        return self.rows[x][y]


def make_trivial_quandle(n: int) -> OpTable:
    """x op y = x."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return OpTable(tuple(tuple(x for _ in range(n)) for x in range(n)))


def make_dihedral_quandle(n: int) -> OpTable:
    """x op y = 2y - x mod n (involutive for every n)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return OpTable(tuple(tuple((2 * y - x) % n for y in range(n)) for x in range(n)))


@dataclass(frozen=True)
class Singquandle:
    """Candidate structure: quandle table plus the two singular-output tables."""

    star: OpTable
    r1: OpTable
    r2: OpTable

    def __post_init__(self):
        if not (self.star.order == self.r1.order == self.r2.order):
            raise ValueError("star, r1 and r2 must have the same order")

    @property
    def order(self) -> int:
        return self.star.order


_BLOCKS = ("star", "r1", "r2")


def parse_tables(text: str, one_indexed: bool = False):
    """Parse a table file.  Returns OpTable (bare quandle) or Singquandle.

    With one_indexed=True entries are expected in 1..n and shifted down.
    """
    lines = _content_lines(text)
    first = next(lines, None)
    if first is None:
        raise TableParseError("empty table file")
    lineno, content = first
    parts = content.split()
    if parts[0] != "n" or len(parts) != 2:
        raise TableParseError("expected 'n <order>' header", lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise TableParseError(f"bad order {parts[1]!r}", lineno) from None
    if n < 1:
        raise TableParseError("order must be >= 1", lineno)

    lo, hi = (1, n) if one_indexed else (0, n - 1)
    blocks: dict[str, OpTable] = {}
    for lineno, name in lines:
        if name not in _BLOCKS:
            raise TableParseError(f"expected block header (one of {', '.join(_BLOCKS)}), got {name!r}", lineno)
        if name in blocks:
            raise TableParseError(f"duplicate block {name!r}", lineno)
        rows = []
        for _ in range(n):
            entry = next(lines, None)
            if entry is None:
                raise TableParseError(f"block {name!r} ended after {len(rows)} of {n} rows")
            lineno, content = entry
            cells = content.split()
            if len(cells) != n:
                raise TableParseError(f"expected {n} entries, got {len(cells)}", lineno)
            row = []
            for cell in cells:
                try:
                    v = int(cell)
                except ValueError:
                    raise TableParseError(f"bad entry {cell!r}", lineno) from None
                if not lo <= v <= hi:
                    raise TableParseError(f"entry {v} out of range [{lo}, {hi}]", lineno)
                row.append(v - 1 if one_indexed else v)
            rows.append(tuple(row))
        blocks[name] = OpTable(tuple(rows))

    if "star" not in blocks:
        raise TableParseError("missing star block")
    if ("r1" in blocks) != ("r2" in blocks):
        raise TableParseError("r1 and r2 blocks must come together")
    if "r1" in blocks:
        return Singquandle(blocks["star"], blocks["r1"], blocks["r2"])
    return blocks["star"]


def serialize_tables(obj) -> str:
    """Canonical table-file text for an OpTable or Singquandle."""
    if isinstance(obj, OpTable):
        named = [("star", obj)]
        n = obj.order
    else:
        named = [("star", obj.star), ("r1", obj.r1), ("r2", obj.r2)]
        n = obj.order
    out = [f"n {n}"]
    for name, table in named:
        out.append(name)
        out.extend(" ".join(str(v) for v in row) for row in table.rows)
    return "\n".join(out) + "\n"
