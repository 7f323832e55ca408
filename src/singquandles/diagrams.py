"""Singular link diagrams as labeled semiarcs plus crossing constraints.

A diagram with m semiarcs labels them 0..m-1.  Each classical crossing
records (under-in, over, under-out); each singular crossing records its four
semiarc ends (nw, ne, sw, se), read as inputs (nw, ne) and outputs (sw, se).

Text format, one item per line, # starts a comment:

    arcs <m>
    free <f>          optional, number of crossing-free circles
    X a b c           classical crossing
    S a b c d         singular crossing
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .tables import ParseError, _content_lines


class DiagramParseError(ParseError):
    """Malformed diagram file."""


@dataclass(frozen=True)
class Classical:
    """Classical crossing: under-in a passes under b and exits as c."""

    a: int
    b: int
    c: int

    @property
    def labels(self):
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class Singular:
    """Singular crossing with ends nw, ne, sw, se; inputs on top."""

    nw: int
    ne: int
    sw: int
    se: int

    @property
    def labels(self):
        return (self.nw, self.ne, self.sw, self.se)


@dataclass(frozen=True)
class SingularDiagram:
    arcs: int
    crossings: tuple = ()
    free: int = 0

    def __post_init__(self):
        if self.arcs < 0:
            raise ValueError("arc count must be >= 0")
        if self.free < 0:
            raise ValueError("free circle count must be >= 0")
        object.__setattr__(self, "crossings", tuple(self.crossings))
        for cr in self.crossings:
            if not isinstance(cr, (Classical, Singular)):
                raise TypeError(f"not a crossing: {cr!r}")
            for x in cr.labels:
                if not 0 <= x < self.arcs:
                    raise ValueError(
                        f"semiarc label {x} out of range for {self.arcs} arcs"
                    )

    def __hash__(self):
        # a diagram keys the coloring plans' caches on every count, so its
        # hash, a walk over every crossing, is taken once
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.arcs, self.crossings, self.free))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def singular_count(self):
        return sum(1 for c in self.crossings if isinstance(c, Singular))


def parse_diagram(text: str) -> SingularDiagram:
    arcs = free = None
    crossings = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "arcs":
            if arcs is not None:
                raise DiagramParseError("duplicate arcs line", lineno)
            arcs = _int_args(args, 1, lineno)[0]
        elif kind == "free":
            if free is not None:
                raise DiagramParseError("duplicate free line", lineno)
            free = _int_args(args, 1, lineno)[0]
        elif kind == "X":
            crossings.append(Classical(*_int_args(args, 3, lineno)))
        elif kind == "S":
            crossings.append(Singular(*_int_args(args, 4, lineno)))
        else:
            raise DiagramParseError(f"unknown directive {kind!r}", lineno)
    if arcs is None:
        raise DiagramParseError("missing arcs line")
    try:
        return SingularDiagram(arcs, tuple(crossings), free or 0)
    except ValueError as exc:
        raise DiagramParseError(str(exc)) from exc


def _int_args(args, want, lineno):
    if len(args) != want:
        raise DiagramParseError(f"expected {want} integers, got {len(args)}", lineno)
    try:
        values = tuple(int(a) for a in args)
    except ValueError:
        raise DiagramParseError(f"bad integer in {args!r}", lineno) from None
    for v in values:
        if v < 0:
            raise DiagramParseError(f"negative label {v}", lineno)
    return values


def serialize_diagram(diagram: SingularDiagram) -> str:
    lines = [f"arcs {diagram.arcs}"]
    if diagram.free:
        lines.append(f"free {diagram.free}")
    for cr in diagram.crossings:
        tag = "X" if isinstance(cr, Classical) else "S"
        lines.append(tag + " " + " ".join(str(x) for x in cr.labels))
    return "\n".join(lines) + "\n"


def gen_fig9_left() -> SingularDiagram:
    """Two singular crossings closed up so each output feeds the other's input."""
    return SingularDiagram(4, (Singular(0, 1, 2, 3), Singular(2, 3, 0, 1)))


def gen_fig9_right() -> SingularDiagram:
    """Same two crossings but with the second closure strand-swapped."""
    return SingularDiagram(4, (Singular(0, 1, 2, 3), Singular(2, 3, 1, 0)))


def rotate_singular(diagram: SingularDiagram, index: int) -> SingularDiagram:
    """Rotate the singular crossing at position index a quarter turn.

    (nw, ne, sw, se) becomes (ne, se, nw, sw): the old right input and output
    move to the top.  Four rotations return the original diagram.
    """
    if not 0 <= index < len(diagram.crossings):
        raise IndexError(f"no crossing at index {index}")
    cr = diagram.crossings[index]
    if not isinstance(cr, Singular):
        raise ValueError(f"crossing at index {index} is not singular")
    rotated = Singular(cr.ne, cr.se, cr.nw, cr.sw)
    crossings = list(diagram.crossings)
    crossings[index] = rotated
    return replace(diagram, crossings=tuple(crossings))
