from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singquandles import (
    OpTable,
    Singquandle,
    TableParseError,
    make_dihedral_quandle,
    make_trivial_quandle,
    parse_tables,
    serialize_tables,
)


def test_op_table_shape_checks():
    with pytest.raises(ValueError):
        OpTable(())
    with pytest.raises(ValueError):
        OpTable(((0, 1), (1,)))
    with pytest.raises(ValueError):
        OpTable(((0, 2), (1, 0)))
    with pytest.raises(ValueError):
        OpTable(((0, -1), (1, 0)))


def test_op_table_accessors():
    t = OpTable(((0, 1), (1, 0)))
    assert t.order == 2
    assert t.apply(0, 1) == 1
    assert OpTable.from_rows([[0, 1], [1, 0]]) == t
    for x, y in ((-1, 0), (0, -1), (2, 0), (0, 2)):
        with pytest.raises(ValueError):
            t.apply(x, y)


def test_trivial_quandle():
    t = make_trivial_quandle(3)
    assert all(t.apply(x, y) == x for x in range(3) for y in range(3))
    with pytest.raises(ValueError):
        make_trivial_quandle(0)


def test_dihedral_quandle():
    t = make_dihedral_quandle(5)
    assert t.apply(1, 4) == (2 * 4 - 1) % 5
    # reflecting twice in the same mirror is the identity
    assert all(t.apply(t.apply(x, y), y) == x for x in range(5) for y in range(5))


def test_singquandle_requires_equal_orders():
    with pytest.raises(ValueError):
        Singquandle(make_trivial_quandle(2), make_trivial_quandle(2),
                    make_trivial_quandle(3))
    s = Singquandle(make_trivial_quandle(2), make_trivial_quandle(2),
                    make_trivial_quandle(2))
    assert s.order == 2


def test_parse_bare_quandle_roundtrip():
    text = "n 3\nstar\n0 0 0\n1 1 1\n2 2 2\n"
    obj = parse_tables(text)
    assert isinstance(obj, OpTable)
    assert obj == make_trivial_quandle(3)
    assert serialize_tables(obj) == text


def test_parse_full_triple_roundtrip():
    t = make_dihedral_quandle(3)
    s = Singquandle(t, t, t)
    text = serialize_tables(s)
    assert parse_tables(text) == s


@st.composite
def tables(draw):
    """A bare table or a full triple, of order 1-6, with any entries."""
    n = draw(st.integers(1, 6))
    count = draw(st.sampled_from((1, 3)))
    made = [OpTable(tuple(tuple(draw(st.lists(st.integers(0, n - 1),
                                              min_size=n, max_size=n)))
                          for _ in range(n)))
            for _ in range(count)]
    return made[0] if count == 1 else Singquandle(*made)


@settings(max_examples=200, deadline=None, database=None)
@given(tables())
def test_parse_serialize_roundtrip_property(obj):
    text = serialize_tables(obj)
    assert parse_tables(text) == obj
    # the same file with its entries written 1..n, header line kept
    header, *lines = text.splitlines()
    shifted = [" ".join(str(int(v) + 1) for v in line.split())
               if line[0].isdigit() else line for line in lines]
    one_indexed = "\n".join([header, *shifted]) + "\n"
    assert parse_tables(one_indexed, one_indexed=True) == obj


def test_parse_comments_and_blanks():
    text = "# header\n\nn 2   # order\nstar\n0 0\n\n1 1  # row\n"
    assert parse_tables(text) == make_trivial_quandle(2)


def test_parse_one_indexed():
    text = "n 2\nstar\n1 1\n2 2\n"
    assert parse_tables(text, one_indexed=True) == make_trivial_quandle(2)
    # the same entries are out of range when read 0-indexed
    with pytest.raises(TableParseError):
        parse_tables(text)


@pytest.mark.parametrize("text, line", [
    ("", None),
    ("m 2\nstar\n0 0\n1 1\n", 1),
    ("n x\n", 1),
    ("n 0\n", 1),
    ("n 2\nblah\n0 0\n1 1\n", 2),
    ("n 2\nstar\n0 0\n1 1\nstar\n0 0\n1 1\n", 5),
    ("n 2\nstar\n0 0 0\n1 1\n", 3),
    ("n 2\nstar\n0 q\n1 1\n", 3),
    ("n 2\nstar\n0 2\n1 1\n", 3),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(TableParseError) as exc:
        parse_tables(text)
    assert exc.value.line == line


def test_parse_incomplete_block():
    with pytest.raises(TableParseError, match="ended after 1 of 2"):
        parse_tables("n 2\nstar\n0 0\n")


def test_parse_requires_star():
    text = "n 2\nr1\n0 0\n1 1\nr2\n0 0\n1 1\n"
    with pytest.raises(TableParseError, match="star"):
        parse_tables(text)


def test_parse_r1_r2_come_together():
    text = "n 2\nstar\n0 0\n1 1\nr1\n0 0\n1 1\n"
    with pytest.raises(TableParseError, match="together"):
        parse_tables(text)
