from __future__ import annotations

import hashlib
from itertools import permutations

import pytest

from singquandles import (
    AlexanderParams,
    Census,
    OpTable,
    Singquandle,
    build_tables,
    canonical_form,
    check_all,
    derive_r2,
    enumerate_singquandles,
    find_params,
    involutive_quandles,
    is_isomorphic,
    make_dihedral_quandle,
    make_trivial_quandle,
    relabel,
    serialize_census,
    singquandles_for_star,
)
from helpers import involutive_quandle_tables_oracle


def flat(s: Singquandle) -> tuple:
    return sum(s.star.rows, ()) + sum(s.r1.rows, ()) + sum(s.r2.rows, ())


def test_involutive_quandles_small_orders():
    assert involutive_quandles(1) == [make_trivial_quandle(1)]
    assert involutive_quandles(2) == [make_trivial_quandle(2)]
    found3 = involutive_quandles(3)
    assert len(found3) == 5
    assert make_trivial_quandle(3) in found3
    assert make_dihedral_quandle(3) in found3
    with pytest.raises(ValueError):
        involutive_quandles(0)


def test_involutive_quandles_match_table_filtration():
    # backtracking over columns vs filtering every table through the checks
    for n in (1, 2, 3):
        assert (sorted(t.rows for t in involutive_quandles(n))
                == sorted(t.rows for t in involutive_quandle_tables_oracle(n)))


def test_every_enumerated_structure_verifies():
    for n in (1, 2, 3, 4):
        for star in involutive_quandles(n):
            for s in singquandles_for_star(star):
                assert check_all(s).all_hold


# sha256 over the stars of one order, in the order involutive_quandles lists
# them: each star's rows, then every structure singquandles_for_star lists
# for it, in its order.  Taken from the search as it was before it checked
# forward; a faster search must list the same structures in the same order.
CENSUS_DIGESTS = {
    4: "143986b86ff4f37499a137ad58b47b5c9c54d301364b48a967d00e289c100f58",
    5: "d82904787264433825b2496475e45e236f1ea6c8489612a7a6f7934c6c031697",
}


def census_digest(n: int) -> str:
    h = hashlib.sha256()
    for star in involutive_quandles(n):
        h.update(repr(star.rows).encode())
        for s in singquandles_for_star(star):
            h.update(repr((s.star.rows, s.r1.rows, s.r2.rows)).encode())
    return h.hexdigest()


def test_census_lists_are_pinned():
    for n, digest in CENSUS_DIGESTS.items():
        assert census_digest(n) == digest, n


def test_derive_r2():
    s = build_tables(AlexanderParams(5, 4, 3))
    assert derive_r2(s.star, s.r1) == s.r2


def test_census_counts():
    # n <= 3 is adjudicated against the naive filtration oracle in the
    # acceptance suite; 198 and 16392 are regression pins from this search
    assert enumerate_singquandles(1).count == 1
    assert enumerate_singquandles(2).count == 2
    assert enumerate_singquandles(3).count == 10
    assert enumerate_singquandles(4).count == 198
    with pytest.raises(ValueError):
        enumerate_singquandles(0)
    with pytest.raises(ValueError):
        enumerate_singquandles(6)


def test_census_structure_field():
    census = enumerate_singquandles(3)
    assert isinstance(census, Census)
    assert census.structures is None
    with_reps = enumerate_singquandles(3, up_to_iso=True)
    assert with_reps.count == 10
    assert with_reps.structures is not None
    reps = with_reps.structures
    # canonical forms: lex-minimal, sorted output, pairwise non-isomorphic
    assert [flat(s) for s in reps] == sorted(flat(s) for s in reps)
    for s in reps:
        assert canonical_form(s) == s
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert not is_isomorphic(a, b)


def test_alexander_structures_appear_in_census():
    for n in (2, 3, 4, 5):
        for p in find_params(n):
            target = build_tables(p)
            keys = {flat(s) for s in singquandles_for_star(target.star)}
            assert flat(target) in keys


def test_relabel_and_isomorphism():
    s = build_tables(AlexanderParams(5, 4, 3))
    assert relabel(s, (0, 1, 2, 3, 4)) == s
    moved = relabel(s, (1, 0, 2, 3, 4))
    assert moved != s
    assert is_isomorphic(s, moved)
    assert canonical_form(s) == canonical_form(moved)
    with pytest.raises(ValueError):
        relabel(s, (0, 0, 1, 2, 3))
    with pytest.raises(ValueError):
        is_isomorphic(s, build_tables(AlexanderParams(4, 1, 2)))


def test_relabel_transports_operations():
    s = build_tables(AlexanderParams(5, 4, 3))
    perm = (2, 0, 4, 1, 3)
    moved = relabel(s, perm)
    for x in range(5):
        for y in range(5):
            assert moved.star.apply(perm[x], perm[y]) == perm[s.star.apply(x, y)]
            assert moved.r1.apply(perm[x], perm[y]) == perm[s.r1.apply(x, y)]


def test_canonical_form_is_the_least_relabelling():
    # the definition, relabelling by every permutation, as the reference
    structures = [s for n in (2, 3, 4) for star in involutive_quandles(n)
                  for s in singquandles_for_star(star)]
    structures += [relabel(build_tables(p), (3, 1, 4, 0, 2)) for p in find_params(5)]
    for s in structures:
        moved = [relabel(s, perm) for perm in permutations(range(s.order))]
        least = min(moved, key=flat)
        assert canonical_form(s) == least
        assert is_isomorphic(s, moved[-1]) and is_isomorphic(moved[-1], s)
    reps = enumerate_singquandles(4, up_to_iso=True).structures
    assert [is_isomorphic(reps[0], r) for r in reps] == [True] + [False] * (len(reps) - 1)


def test_is_isomorphic_decided_by_permutation_oracle():
    # the outcomes for the two order-5 linear structures with t=4 are not
    # assumed; both sides are computed and compared
    a = build_tables(AlexanderParams(5, 4, 3))
    b = build_tables(AlexanderParams(5, 4, 4))
    oracle = any(relabel(a, perm) == b for perm in permutations(range(5)))
    assert is_isomorphic(a, b) == oracle
    assert is_isomorphic(a, a)
    assert is_isomorphic(a, relabel(a, (4, 3, 2, 1, 0)))


def test_order_one_census_is_forced():
    census = enumerate_singquandles(1, up_to_iso=True)
    only = OpTable(((0,),))
    assert census.structures == (Singquandle(only, only, only),)


def test_serialize_census():
    census = enumerate_singquandles(2)
    assert serialize_census(census) == "order 2\ncount 2\n"
    text = serialize_census(enumerate_singquandles(2, up_to_iso=True))
    assert text.startswith("order 2\ncount 2\n\nn 2\nstar\n")
    assert text.count("\nr2\n") == 2
