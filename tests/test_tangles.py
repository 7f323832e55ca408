from __future__ import annotations

import random
from itertools import product

import pytest

from singquandles import (
    KIND_SINGULAR,
    AlexanderParams,
    Classical,
    Letter,
    Singular,
    SingularDiagram,
    TangleWord,
    braid_closure,
    build_tables,
    move_word_pairs,
    parse_word,
    sigma,
    tangle_relation,
    tau,
)


def test_letter_basics():
    assert str(sigma(1)) == "s1"
    assert str(sigma(2, mirrored=True)) == "s2'"
    assert str(tau(3)) == "t3"
    with pytest.raises(ValueError):
        sigma(0)
    with pytest.raises(ValueError):
        Letter(KIND_SINGULAR, 1, mirrored=True)
    with pytest.raises(ValueError):
        Letter("cross", 1)


def test_parse_word():
    w = parse_word("s1 t2 s1'")
    assert [str(letter) for letter in w.letters] == ["s1", "t2", "s1'"]
    assert w.strands == 3
    assert str(w) == "s1 t2 s1'"
    assert parse_word("").strands == 1
    assert parse_word("", strands=4).strands == 4
    with pytest.raises(ValueError):
        parse_word("x1")
    with pytest.raises(ValueError):
        parse_word("s")
    with pytest.raises(ValueError):
        parse_word("t1'")
    with pytest.raises(ValueError):
        parse_word("s3", strands=2)
    with pytest.raises(ValueError):
        TangleWord((sigma(1),), 0)


def test_tau_relation_values(alex543):
    rel = tangle_relation(TangleWord((tau(1),), 2), alex543)
    # r1 = 4x + 2y, r2 = 3x + 3y mod 5
    assert rel.apply((0, 1)) == (2, 3)
    assert rel.apply((1, 0)) == (4, 3)
    # star = 4x + 2y: (x, y) -> (y, x * y), and the mirror (y * x, x)
    rel = tangle_relation(TangleWord((sigma(1),), 2), alex543)
    assert rel.apply((0, 1)) == (1, 2)
    rel = tangle_relation(TangleWord((sigma(1, mirrored=True),), 2), alex543)
    assert rel.apply((0, 1)) == (4, 0)


def word_matrix(word, p):
    """The word's k x k matrix over Z_n under the linear structure p, built
    letter by letter from the coefficient pairs, last letter leftmost."""
    (sx, sy), r1, r2 = p.coefficients
    k = word.strands
    acc = [[int(r == c) for c in range(k)] for r in range(k)]
    for letter in word.letters:
        if letter.kind == KIND_SINGULAR:
            block = (r1, r2)
        elif letter.mirrored:
            block = ((sy, sx), (1, 0))
        else:
            block = ((0, 1), (sx, sy))
        m = [[int(r == c) for c in range(k)] for r in range(k)]
        i = letter.index - 1
        for dr in range(2):
            m[i + dr][i:i + 2] = block[dr]
        acc = [[sum(m[r][j] * acc[j][c] for j in range(k)) % p.n
                for c in range(k)] for r in range(k)]
    return acc


def test_word_matrix_agrees_with_relation():
    word = parse_word("t1 s1 s1 s1")
    assert word_matrix(word, AlexanderParams(5, 4, 3)) == [[1, 0], [0, 1]]
    p = AlexanderParams(10, 9, 4)
    s = build_tables(p)
    rng = random.Random(90210)
    letters = [sigma(1), sigma(2), sigma(1, mirrored=True), tau(1), tau(2)]
    for _ in range(20):
        word = TangleWord(tuple(rng.choice(letters) for _ in range(rng.randint(0, 5))), 3)
        m = word_matrix(word, p)
        rel = tangle_relation(word, s)
        for colors in product(range(10), repeat=3):
            expect = tuple(sum(m[i][j] * colors[j] for j in range(3)) % 10
                           for i in range(3))
            assert rel.apply(colors) == expect


def test_braid_closure_single_crossing():
    d = braid_closure(TangleWord((sigma(1),), 2))
    assert d == SingularDiagram(1, (Classical(0, 0, 0),))


def test_braid_closure_mixed_word():
    d = braid_closure(parse_word("t1 s1 s1 s1"))
    assert d.arcs == 5
    assert d.crossings == (
        Singular(0, 1, 2, 3),
        Classical(2, 3, 4),
        Classical(3, 4, 0),
        Classical(4, 0, 1),
    )


def test_braid_closure_three_strands():
    d = braid_closure(parse_word("t1 s2"))
    assert d.arcs == 3
    assert d.crossings == (Singular(0, 1, 0, 2), Classical(2, 1, 1))


def test_braid_closure_empty_word():
    d = braid_closure(parse_word("", strands=3))
    assert d == SingularDiagram(3)


def test_braid_closure_mirrored():
    d = braid_closure(TangleWord((sigma(1, mirrored=True),), 2))
    # the mirror image of the 1-crossing closure is again a 1-arc kink
    assert d.arcs == 1
    assert d.crossings == (Classical(0, 0, 0),)


def test_move_word_pairs_shape():
    pairs = move_word_pairs()
    assert set(pairs) == {"RII", "RIII", "RV", "RIVa", "RIVb"}
    for a, b in pairs.values():
        assert a.strands == b.strands
    assert str(pairs["RV"][0]) == "s1 t1 s1'"
    assert str(pairs["RIVa"][0]) == "s1' t2 s1"
    assert str(pairs["RIVb"][1]) == "s2' t1 s2"


def test_move_pairs_hold_for_linear_structures():
    for args in ((5, 4, 3), (10, 9, 4), (4, 1, 2), (2, 1, 0)):
        s = build_tables(AlexanderParams(*args))
        for a, b in move_word_pairs().values():
            assert tangle_relation(a, s) == tangle_relation(b, s)
