"""The text parsers on token soup: every rejection is the parser's own error.

The soup is drawn from the formats' own keywords, letters and numbers, so
that most inputs get past the first line and reach the later checks.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from singquandles import (DiagramParseError, TableParseError, parse_diagram,
                          parse_tables, parse_word)

TOKENS = ("n", "star", "r1", "r2", "arcs", "free", "X", "S", "#", "s1",
          "t2", "s1'", "t1'", "s", "s0", "x1", "'", "-1", "0", "1", "2",
          "3", "5", "12", "99999", "9" * 5000, "1.5", "1e3", "", " ")
# a valid first line or two, more than half the time, so later lines get read
PREFIXES = ("", "", "", "n 2\n", "n 2\nstar\n", "arcs 3\n", "arcs 3\nfree 1\n")
LINES = st.tuples(
    st.sampled_from(PREFIXES),
    st.lists(st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join),
             max_size=12).map("\n".join)).map("".join)
SETTINGS = settings(max_examples=400, deadline=None, database=None)


@SETTINGS
@given(LINES, st.booleans())
def test_table_parser_raises_only_its_error(text, one_indexed):
    try:
        parse_tables(text, one_indexed=one_indexed)
    except TableParseError:
        pass


@SETTINGS
@given(LINES)
def test_diagram_parser_raises_only_its_error(text):
    try:
        parse_diagram(text)
    except DiagramParseError:
        pass


@SETTINGS
@given(LINES, st.none() | st.integers(-1, 6))
def test_word_parser_raises_only_value_error(text, strands):
    try:
        parse_word(text, strands)
    except ValueError as exc:
        assert type(exc) is ValueError
