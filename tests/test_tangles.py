from __future__ import annotations

import random
import tracemalloc
from itertools import product

import pytest

from singquandles import (
    KIND_SINGULAR,
    AlexanderParams,
    Classical,
    Letter,
    OpTable,
    Singquandle,
    Singular,
    SingularDiagram,
    TangleRelation,
    TangleWord,
    braid_closure,
    build_tables,
    enumerate_singquandles,
    make_trivial_quandle,
    move_word_pairs,
    parse_word,
    sigma,
    tangle_relation,
    tau,
)
from helpers import word_matrix


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
    # '²' is a digit to str.isdigit but not to int()
    with pytest.raises(ValueError, match="bad letter token 's²'"):
        parse_word("s²")
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


def test_relation_apply_rejects_bad_colors(alex543):
    rel = tangle_relation(TangleWord((tau(1),), 2), alex543)
    for colors in ((0,), (0, 1, 2), (0, 7), (0, 5), (1, -1), (-1, 0)):
        with pytest.raises(ValueError):
            rel.apply(colors)
    assert rel.apply([0, 1]) == (2, 3)


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


def test_braid_closure_memory_is_flat_per_label():
    # one crossing on 50,000 strands: 50,001 labels in 49,999 classes.  Flat
    # arrays take 8 bytes per label each; a list and two dicts per label
    # took about 275 bytes per label here.
    strands = 50_000
    word = parse_word("s1", strands=strands)
    tracemalloc.start()
    try:
        d = braid_closure(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == SingularDiagram(strands - 1, (Classical(0, 0, 0),))
    assert peak < 60 * (strands + 1)


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


def relation_oracle(word, s) -> tuple:
    """The bottom colors of each top coloring, walked letter by letter."""
    star, r1, r2 = s.star.rows, s.r1.rows, s.r2.rows
    outputs = []
    for colors in product(range(s.order), repeat=word.strands):
        cur = list(colors)
        for letter in word.letters:
            i = letter.index - 1
            x, y = cur[i], cur[i + 1]
            if letter.kind == KIND_SINGULAR:
                cur[i], cur[i + 1] = r1[x][y], r2[x][y]
            elif letter.mirrored:
                cur[i], cur[i + 1] = star[y][x], x
            else:
                cur[i], cur[i + 1] = y, star[x][y]
        outputs.append(tuple(cur))
    return tuple(outputs)


def test_relation_matches_walk_under_arbitrary_tables():
    # tables that satisfy no axiom; two structures per order, taken in
    # turn, so a letter map kept from the other one would show
    rng = random.Random(3317)
    for n in range(1, 6):
        structures = [Singquandle(*(OpTable(tuple(
            tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)))
            for _ in range(3))) for _ in range(2)]
        for k in range(1, 5):
            identity = tuple(product(range(n), repeat=k))
            for length in range(9 if k > 1 else 1):
                # letter j sits on strands (j mod (k-1)) + 1 and + 2, so
                # the longer words put a letter at every position
                word = TangleWord(tuple(
                    rng.choice((sigma(i), sigma(i, mirrored=True), tau(i)))
                    for i in (j % (k - 1) + 1 for j in range(length))), k)
                for s in structures + structures:
                    want = relation_oracle(word, s)
                    rel = tangle_relation(word, s)
                    assert rel.outputs == want
                    assert rel == TangleRelation(n, k, want)
                    assert all(rel.apply(c) == w for c, w in zip(identity, want))
                    if not length:
                        assert want == identity


def test_trivial_star_classes_cannot_see_crossing_switches():
    # under x * y = x both s_i and s_i' carry (x, y) to (y, x), so a class
    # with the trivial star sees the double points and how they sit along
    # the strands, and nothing of which strand passes over
    rng = random.Random(6121)
    classes = [s for n in range(1, 6)
               for s in enumerate_singquandles(n, up_to_iso=True).structures
               if s.star == make_trivial_quandle(n)]
    assert len(classes) == 1 + 2 + 4 + 19 + 200
    for s in classes:
        k = rng.randint(2, 3)
        letters = [rng.choice((sigma, tau))(rng.randint(1, k - 1))
                   for _ in range(rng.randint(1, 7))]
        classical = [j for j, letter in enumerate(letters)
                     if letter.kind != KIND_SINGULAR]
        want = tangle_relation(TangleWord(tuple(letters), k), s)
        for m in range(1 << len(classical)):
            switched = list(letters)
            for bit, j in enumerate(classical):
                if m >> bit & 1:
                    switched[j] = sigma(letters[j].index, mirrored=True)
            assert tangle_relation(TangleWord(tuple(switched), k), s) == want
