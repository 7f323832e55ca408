from __future__ import annotations

import pytest

from singquandles import (
    AlexanderParams,
    OpTable,
    Singquandle,
    build_tables,
    check_all,
    find_params,
)


def linear_table(n: int, cx: int, cy: int) -> OpTable:
    return OpTable(tuple(tuple((cx * x + cy * y) % n for y in range(n))
                         for x in range(n)))


def test_params_validate_residues():
    AlexanderParams(5, 4, 3)
    AlexanderParams(5, 1, 0)
    with pytest.raises(ValueError, match=r"t\^2 - 1"):
        AlexanderParams(5, 2, 1)
    with pytest.raises(ValueError, match=r"b\*\(1 \+ t\)"):
        AlexanderParams(4, 1, 1)
    with pytest.raises(ValueError, match=r"t - \(1 - b\)\^2"):
        AlexanderParams(8, 3, 0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        AlexanderParams(0, 0, 0)


def test_params_normalize_residues():
    p = AlexanderParams(5, -1, -2)
    assert (p.t, p.b) == (4, 3)


def test_find_params_frozen_values():
    assert {(p.t, p.b) for p in find_params(5)} == {(1, 0), (4, 3), (4, 4)}
    assert [(p.t, p.b) for p in find_params(1)] == [(0, 0)]
    for n in (2, 3, 6, 7):
        assert {(p.t, p.b) for p in find_params(n)} == {(1, 0)}
    assert {(p.t, p.b) for p in find_params(4)} == {(1, 0), (1, 2)}
    assert {(p.t, p.b) for p in find_params(8)} == {(1, 0), (1, 4)}
    assert {(p.t, p.b) for p in find_params(12)} == {(1, 0), (1, 6)}
    assert (9, 4) in {(p.t, p.b) for p in find_params(10)}
    with pytest.raises(ValueError):
        find_params(0)


def test_find_params_sorted_and_valid():
    for n in range(1, 13):
        params = find_params(n)
        pairs = [(p.t, p.b) for p in params]
        assert pairs == sorted(pairs)
        assert len(set(pairs)) == len(pairs)


def test_find_params_matches_pair_loop():
    # the loop find_params ran before it fixed t from b: every (t, b),
    # ascending, tested against all three congruences
    def pair_loop(n):
        return [(t, b) for t in range(n) for b in range(n)
                if (t * t - 1) % n == 0 and b * (1 + t) % n == 0
                and (t - (1 - b) ** 2) % n == 0]

    for n in range(1, 200):
        assert [(p.t, p.b) for p in find_params(n)] == pair_loop(n), n


def test_find_params_oracle_n5():
    # independent check of the n=5 set: build tables for all 25 residue
    # pairs directly from the formulas and run the full axiom checker
    valid = set()
    for t in range(5):
        for b in range(5):
            s = Singquandle(linear_table(5, t, 1 - t),
                            linear_table(5, 1 - t - b, t + b),
                            linear_table(5, 1 - b, b))
            if check_all(s).all_hold:
                valid.add((t, b))
    assert valid == {(p.t, p.b) for p in find_params(5)}


def test_build_tables_rows():
    s = build_tables(AlexanderParams(5, 4, 3))
    assert s.star.rows[0] == (0, 2, 4, 1, 3)
    assert s.star.rows[1] == (4, 1, 3, 0, 2)
    # r1 = (1-t-b)x + (t+b)y = 4x + 2y, r2 = (1-b)x + by = 3x + 3y
    assert s.r1.rows[1] == (4, 1, 3, 0, 2)
    assert s.r2.rows[1] == (3, 1, 4, 2, 0)


def test_linear_ops_coefficients():
    p = AlexanderParams(5, 4, 3)
    assert p.coefficients == ((4, 2), (4, 2), (3, 3))
    assert AlexanderParams(10, -1, 4).coefficients == ((9, 2), (8, 3), (7, 4))
    s = build_tables(p)
    for (cx, cy), table in zip(p.coefficients, (s.star, s.r1, s.r2)):
        assert table == linear_table(5, cx, cy)


def test_verify_proposition_passes_for_all_params():
    for n in range(1, 13):
        for p in find_params(n):
            assert check_all(build_tables(p)).all_hold


def test_ten_nine_four_is_valid():
    p = AlexanderParams(10, 9, 4)
    s = build_tables(p)
    assert check_all(s).all_hold
    assert s.order == 10
    assert s.star.apply(0, 1) == 2  # t*0 + (1-t)*1 = -8 = 2 mod 10
