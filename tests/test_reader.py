"""The line reader that both text formats share, checked on each format.

A table file and a diagram file read the same way: ``#`` starts a comment,
lines left blank are skipped, and an error names its 1-based line in the
file as written.  The padding test pads serialized objects with comment-only
and blank lines, and trailing comments, at seeded places, then parses them
back, whole and with one content line corrupted.
"""

from __future__ import annotations

import random

import pytest

from singquandles import (Classical, DiagramParseError, Singular,
                          SingularDiagram, TableParseError,
                          involutive_quandles, parse_diagram, parse_tables,
                          serialize_diagram, serialize_tables,
                          singquandles_for_star)
from singquandles.tables import ParseError

FILLER = ("", "   ", "\t", "#", "# a comment", "   # X 0 1 2", "#n 2")


def padded(text: str, rng: random.Random) -> tuple[list, list]:
    """The lines of text with filler lines between them and comments after
    some, and the 1-based line number of each original line in them."""
    out, numbers = [], []
    for line in text.splitlines():
        out.extend(rng.choice(FILLER) for _ in range(rng.randint(0, 2)))
        out.append(line + (rng.choice(("  # note", "#", "\t# 0 0"))
                           if rng.random() < 0.3 else ""))
        numbers.append(len(out))
    out.extend(rng.choice(FILLER) for _ in range(rng.randint(0, 2)))
    return out, numbers


def corrupted(lines: list, number: int, rng: random.Random) -> str:
    """The padded text with the content of one line made wrong in either
    format: replaced by a stray token, or given one number too many."""
    lines = list(lines)
    content, hash_, comment = lines[number - 1].partition("#")
    content = "?" if rng.random() < 0.5 else content.rstrip() + " 0"
    lines[number - 1] = content + hash_ + comment
    return "\n".join(lines) + "\n"


def census_objects():
    """Every structure of order <= 4 and each bare star of those orders."""
    for n in range(1, 5):
        for star in involutive_quandles(n):
            yield star
            yield from singquandles_for_star(star)


def random_diagram(rng: random.Random) -> SingularDiagram:
    arcs = rng.randint(1, 8)
    crossings = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.choice((Classical, Singular))
        width = 3 if kind is Classical else 4
        crossings.append(kind(*(rng.randrange(arcs) for _ in range(width))))
    return SingularDiagram(arcs, tuple(crossings), rng.randint(0, 3))


def test_both_errors_are_parse_errors():
    assert issubclass(TableParseError, ParseError)
    assert issubclass(DiagramParseError, ParseError)
    assert issubclass(ParseError, ValueError)


@pytest.mark.parametrize("parse, serialize, error, objects", [
    (parse_tables, serialize_tables, TableParseError, census_objects),
    (parse_diagram, serialize_diagram, DiagramParseError,
     lambda: (random_diagram(random.Random(seed)) for seed in range(300))),
], ids=["tables", "diagrams"])
def test_padding_is_read_past_and_errors_name_the_padded_line(
        parse, serialize, error, objects):
    rng = random.Random(19)
    seen = 0
    for obj in objects():
        lines, numbers = padded(serialize(obj), rng)
        assert parse("\n".join(lines) + "\n") == obj
        number = rng.choice(numbers)
        with pytest.raises(error) as exc:
            parse(corrupted(lines, number, rng))
        assert exc.value.line == number
        assert str(exc.value).startswith(f"line {number}: ")
        seen += 1
    assert seen >= 100
