from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singquandles import (
    Classical,
    DiagramParseError,
    Singular,
    SingularDiagram,
    gen_fig9_left,
    gen_fig9_right,
    parse_diagram,
    rotate_singular,
    serialize_diagram,
)


def test_crossing_labels():
    assert Classical(0, 1, 2).labels == (0, 1, 2)
    assert Singular(3, 2, 1, 0).labels == (3, 2, 1, 0)


def test_diagram_validation():
    SingularDiagram(0)
    with pytest.raises(ValueError):
        SingularDiagram(-1)
    with pytest.raises(ValueError):
        SingularDiagram(2, free=-1)
    with pytest.raises(ValueError):
        SingularDiagram(2, (Classical(0, 1, 2),))
    with pytest.raises(TypeError):
        SingularDiagram(2, ("X 0 1 1",))
    d = SingularDiagram(3, (Classical(0, 1, 2), Singular(0, 1, 2, 0)))
    assert d.singular_count == 1


def test_parse_serialize_roundtrip():
    text = "arcs 5\nfree 2\nX 0 1 2\nS 2 3 4 0\n"
    d = parse_diagram(text)
    assert d.arcs == 5
    assert d.free == 2
    assert d.crossings == (Classical(0, 1, 2), Singular(2, 3, 4, 0))
    assert serialize_diagram(d) == text


@st.composite
def diagrams(draw):
    """0-8 arcs, up to 6 crossings of either kind, and 0-3 free circles or
    none at all."""
    arcs = draw(st.integers(0, 8))
    crossings = []
    if arcs:
        label = st.integers(0, arcs - 1)
        for kind in draw(st.lists(st.sampled_from((Classical, Singular)),
                                  max_size=6)):
            width = 3 if kind is Classical else 4
            crossings.append(kind(*draw(st.tuples(*[label] * width))))
    return SingularDiagram(arcs, tuple(crossings), draw(st.integers(0, 3)))


@settings(max_examples=200, deadline=None, database=None)
@given(diagrams())
def test_parse_serialize_roundtrip_property(d):
    text = serialize_diagram(d)
    assert ("free" in text) == bool(d.free)
    assert parse_diagram(text) == d


def test_parse_comments_and_order():
    text = "# a diagram\nX 0 0 0  # kink\narcs 1\n"
    d = parse_diagram(text)
    assert d == SingularDiagram(1, (Classical(0, 0, 0),))
    assert serialize_diagram(d) == "arcs 1\nX 0 0 0\n"


@pytest.mark.parametrize("text, line", [
    ("arcs 2\narcs 2\n", 2),
    ("arcs 2\nfree 1\nfree 1\n", 3),
    ("arcs 2\nX 0 1\n", 2),
    ("arcs 2\nS 0 1 0 1 0\n", 2),
    ("arcs 2\nX 0 one 1\n", 2),
    ("arcs 2\nX 0 -1 1\n", 2),
    ("arcs 2\nY 0 1 1\n", 2),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(DiagramParseError) as exc:
        parse_diagram(text)
    assert exc.value.line == line


def test_parse_missing_arcs_and_range():
    with pytest.raises(DiagramParseError, match="missing arcs"):
        parse_diagram("X 0 1 1\n")
    with pytest.raises(DiagramParseError, match="out of range"):
        parse_diagram("arcs 2\nX 0 1 2\n")


def test_fig9_generators():
    left = gen_fig9_left()
    right = gen_fig9_right()
    assert left == SingularDiagram(4, (Singular(0, 1, 2, 3), Singular(2, 3, 0, 1)))
    assert right == SingularDiagram(4, (Singular(0, 1, 2, 3), Singular(2, 3, 1, 0)))
    assert serialize_diagram(left) == "arcs 4\nS 0 1 2 3\nS 2 3 0 1\n"


def test_rotate_singular():
    d = gen_fig9_left()
    r = rotate_singular(d, 0)
    assert r.crossings[0] == Singular(1, 3, 0, 2)
    assert r.crossings[1] == d.crossings[1]
    # four quarter turns come back around
    back = d
    for _ in range(4):
        back = rotate_singular(back, 0)
    assert back == d


def test_rotate_singular_errors():
    d = SingularDiagram(1, (Classical(0, 0, 0),))
    with pytest.raises(ValueError):
        rotate_singular(d, 0)
    with pytest.raises(IndexError):
        rotate_singular(d, 1)
