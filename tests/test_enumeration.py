from __future__ import annotations

import gc
import hashlib
import random
import sys
import tracemalloc
from itertools import permutations, product
from math import factorial

import pytest

from singquandles import (
    AlexanderParams,
    Census,
    OpTable,
    ROTATION_AXIOMS,
    Singquandle,
    build_tables,
    canonical_form,
    check_all,
    derive_r2,
    enumerate_singquandles,
    evaluate_axiom,
    find_params,
    involutive_quandles,
    is_isomorphic,
    make_dihedral_quandle,
    make_trivial_quandle,
    relabel,
    serialize_census,
    singquandles_for_star,
)
import singquandles.enumeration as enumeration
from helpers import (cycle_types, involutive_quandle_tables_oracle,
                     trivial_star_count)


def flat(s: Singquandle) -> tuple:
    return sum(s.star.rows, ()) + sum(s.r1.rows, ()) + sum(s.r2.rows, ())


def star_automorphisms(star: OpTable) -> list:
    """The permutations g with g(x * y) = g(x) * g(y)."""
    n = star.order
    T = star.rows
    return [g for g in permutations(range(n))
            if all(g[T[x][y]] == T[g[x]][g[y]]
                   for x in range(n) for y in range(n))]


def moved_key(s: Singquandle, g) -> tuple:
    """flat() of s relabelled by g: g(T[x][y]) stands at (g(x), g(y))."""
    n = s.order
    out = []
    for T in (s.star.rows, s.r1.rows, s.r2.rows):
        m = [[None] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                m[g[x]][g[y]] = g[T[x][y]]
        out.append(tuple(map(tuple, m)))
    return sum(out[0], ()) + sum(out[1], ()) + sum(out[2], ())


@pytest.fixture(scope="module")
def classes5():
    return enumerate_singquandles(5, up_to_iso=True)


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


def test_every_enumerated_structure_verifies(classes5):
    for n in (1, 2, 3, 4):
        for star in involutive_quandles(n):
            for s in singquandles_for_star(star):
                assert check_all(s).all_hold
    # order 5: the search checks one leaf per orbit of its star's
    # automorphisms, so check a seeded sample of what it lists, and one
    # member of every class
    labelled = [s for star in involutive_quandles(5)
                for s in singquandles_for_star(star)]
    sample = random.Random(505).sample(labelled, 300)
    assert len(classes5.structures) == 202
    for s in sample + list(classes5.structures):
        assert check_all(s).all_hold


def test_census_is_closed_under_star_automorphisms():
    for n in (1, 2, 3, 4):
        for star in involutive_quandles(n):
            got = singquandles_for_star(star)
            keys = {flat(s) for s in got}
            assert len(keys) == len(got)
            for g in star_automorphisms(star):
                assert all(moved_key(s, g) in keys for s in got)


def test_search_yields_each_orbit_once_by_its_least_member():
    # each yield is (r1, size): r1 the least member of its Aut(star) orbit,
    # met in increasing order, and size that orbit's size; _orbits builds
    # the orbits, and no structure is in two of them
    for n in (1, 2, 3, 4):
        for star in involutive_quandles(n):
            aut = star_automorphisms(star)
            got = list(enumeration._verified_r1(star))
            orbits = list(enumeration._orbits(star))
            assert [r1 for r1, _ in orbits] == [r1 for r1, _ in got]
            assert [r1 for r1, _ in got] == sorted(min(o) for _, o in orbits)
            met = set()
            for (r1, size), (_, orbit) in zip(got, orbits):
                s = enumeration._build(star, OpTable(r1))
                assert r1 == min(orbit)
                assert size == len(orbit)
                assert ({moved_key(s, g) for g in aut} == {
                    flat(enumeration._build(star, OpTable(r))) for r in orbit})
                assert met.isdisjoint(orbit)
                met |= orbit
            # the orbits reuse the search's Aut(star)
            enumeration._automorphisms.cache_clear()
            singquandles_for_star(star)
            assert enumeration._automorphisms.cache_info().misses <= 1


def test_search_memory_does_not_grow_with_the_labelled_count():
    # the order-5 trivial star has 16,380 structures in 200 orbits; a set
    # of the relabellings of the structures met took 1,762 KiB
    tracemalloc.start()
    try:
        for _ in enumeration._verified_r1(make_trivial_quandle(5)):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 2**10, peak


def test_trivial_star_matches_an_independent_count(classes5):
    # trivial_star_count reads the axioms under x * y = x as two conditions
    # on r1 (its docstring has the proof), and shares no code with the
    # census; Burnside's lemma turns its counts of the r1 each permutation
    # fixes into the number of classes
    for n, labelled, classes in zip(range(1, 6), (1, 2, 10, 198, 16380),
                                    (1, 2, 4, 19, 200)):
        trivial = make_trivial_quandle(n)
        fixed = [size * trivial_star_count(n, g) for g, size in cycle_types(n)]
        assert sum(size for _, size in cycle_types(n)) == factorial(n)
        assert fixed[0] == len(singquandles_for_star(trivial)) == labelled, n
        census = (classes5 if n == 5
                  else enumerate_singquandles(n, up_to_iso=True))
        assert sum(s.star == trivial for s in census.structures) == classes, n
        assert sum(fixed) == classes * factorial(n), n


def test_check_all_runs_once_per_orbit(monkeypatch):
    checked = []

    def counting(s):
        checked.append(flat(s))
        return check_all(s)

    monkeypatch.setattr(enumeration, "check_all", counting)
    totals = []
    for n in (1, 2, 3, 4):
        total = 0
        for star in involutive_quandles(n):
            checked.clear()
            got = singquandles_for_star(star)
            aut = star_automorphisms(star)
            orbit_of = {}
            for s in got:
                if flat(s) not in orbit_of:
                    for g in aut:
                        orbit_of[moved_key(s, g)] = flat(s)
            orbits = set(orbit_of.values())
            # one check per orbit, and every structure listed is a
            # relabelling of a checked one
            assert len(checked) == len(orbits)
            assert {orbit_of[key] for key in checked} == orbits
            total += len(checked)
        totals.append(total)
    assert totals == [1, 2, 4, 19]


def test_labelled_census_builds_only_what_check_all_judges(monkeypatch):
    # a labelled count builds a structure only for a candidate check_all
    # must judge, one per orbit (test_check_all_runs_once_per_orbit)
    built = []

    def counting(star, r1):
        built.append(r1)
        return derive_r2(star, r1)

    monkeypatch.setattr(enumeration, "derive_r2", counting)
    totals = []
    for n in (1, 2, 3, 4):
        built.clear()
        enumerate_singquandles(n)
        totals.append(len(built))
    assert totals == [1, 2, 4, 19]


def star_moving_column_5(column) -> OpTable:
    """The order-6 star whose columns are the identity but column 5."""
    return OpTable(tuple(tuple(column[x] if y == 5 else x for y in range(6))
                         for x in range(6)))


# Order-6 stars that yield no structure, with the search nodes per depth 0-5
# (search_nodes) that singquandles_for_star makes on them.  A change to the
# pruning may update these counts, but keeps them under NODE_BOUND.  Before
# the rivb-r1 forcing, star (0 2)(1 3) took 1, 76, 3996, 94992, 748348,
# 2187910; before the orbit test, 1, 76, 3996, 1920, 1108, 7192, and star
# (0 1)(2 3) took 1, 76, 76, 1856, 1216, 7840.
NODES_6 = {
    (1, 0, 3, 2, 4, 5): [1, 48, 48, 609, 433, 1921],
    (2, 3, 0, 1, 4, 5): [1, 48, 1127, 573, 377, 1720],
}
NODE_BOUND = 10_000

# Order-6 stars that yield a few structures, with their counts
YIELDS_6 = [
    (((0, 0, 0, 1, 0, 1), (1, 1, 1, 0, 1, 0), (2, 2, 2, 4, 2, 4),
      (3, 3, 3, 3, 3, 3), (4, 4, 4, 2, 4, 2), (5, 5, 5, 5, 5, 5)), 88),
    (((0, 0, 0, 0, 0, 0), (1, 1, 4, 5, 3, 2), (2, 3, 2, 4, 5, 1),
      (3, 2, 5, 3, 1, 4), (4, 5, 1, 2, 4, 3), (5, 4, 3, 1, 2, 5)), 2),
    (((0, 0, 3, 2, 2, 3), (1, 1, 4, 5, 5, 4), (3, 3, 2, 0, 0, 2),
      (2, 2, 0, 3, 3, 0), (5, 5, 1, 4, 4, 1), (4, 4, 5, 1, 1, 5)), 4),
]

# Search nodes per depth at orders 1-5, summed over every star
NODES_1_TO_5 = [[1, 1], [1, 2, 2], [1, 3, 6, 4], [1, 4, 12, 25, 19],
                [32, 266, 964, 578, 431, 212]]


def search_nodes(stars, monkeypatch) -> tuple:
    """The search's nodes per depth summed over ``stars`` of one order n,
    and the number of structures listed.  The nodes at depth k < n are the
    calls of its inner candidates(k), those at depth n the check_all calls.
    Raises AssertionError as soon as one depth passes NODE_BOUND."""
    candidates = next(c for c in enumeration._verified_r1.__code__.co_consts
                      if getattr(c, "co_name", None) == "candidates")
    nodes = [0] * (stars[0].order + 1)

    def leaf(s):
        nodes[-1] += 1
        return check_all(s)

    def hook(frame, event, arg):
        if frame.f_code is candidates:
            k = frame.f_locals["k"]
            nodes[k] += 1
            if nodes[k] > NODE_BOUND:
                raise AssertionError(f"over {NODE_BOUND} nodes at depth {k}: {nodes}")

    monkeypatch.setattr(enumeration, "check_all", leaf)
    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        listed = sum(len(singquandles_for_star(star)) for star in stars)
    finally:
        sys.settrace(previous)
    return nodes, listed


def test_order_6_search_nodes_are_bounded(monkeypatch):
    # a count of search nodes does not depend on the machine's speed
    for column, nodes in NODES_6.items():
        got, listed = search_nodes([star_moving_column_5(column)], monkeypatch)
        assert (got[:6], listed) == (nodes, 0), column
    for rows, count in YIELDS_6:
        assert len(singquandles_for_star(OpTable(rows))) == count


def test_search_nodes_per_depth_are_pinned(monkeypatch):
    # the search tree at orders 1-5, also where a star yields
    for n, nodes in enumerate(NODES_1_TO_5, 1):
        assert search_nodes(involutive_quandles(n), monkeypatch)[0] == nodes, n


def holds_at(s: Singquandle, name: str, *args) -> bool:
    lhs, rhs = evaluate_axiom(s, name, args)
    return lhs == rhs


def test_rotation_axioms_reduce_to_one_identity():
    # rows of r1 that are square roots of the star's columns, with
    # r2 = derive_r2: the module docstring of enumeration proves that the
    # rotation axioms then reduce to r2(x, y) = r1(r1(x, y), x)
    rng = random.Random(1978)
    tables = everywhere = 0
    for n in range(1, 6):
        roots = enumeration._square_roots(n)
        for star in involutive_quandles(n):
            domains = [roots.get(column) for column in zip(*star.rows)]
            if not all(domains):
                continue
            for _ in range(20):
                r1 = OpTable(tuple(rng.choice(d) for d in domains))
                s = Singquandle(star, r1, derive_r2(star, r1))
                report = check_all(s)
                for name in ("rotation-x-via-r1", "rotation-y-via-r2", "rv-r1"):
                    assert report.result(name).holds, (s, name)

                identity = {}
                for x, y in product(range(n), repeat=2):
                    # the r2 half of rotation-outputs is the identity
                    (v, u), (r1_side, r2_side) = evaluate_axiom(
                        s, "rotation-outputs", (x, y))
                    identity[x, y] = u == r2_side
                    assert holds_at(s, "rotation-x-via-r2", x, y) == identity[x, y]
                    assert holds_at(s, "rotation-y-via-r1", x, y) == (v == r1_side)
                for (x, y), held in identity.items():
                    if held:
                        assert (holds_at(s, "rotation-y-via-r1", x, y)
                                == identity[r1.rows[x][y], x]), (s, x, y)
                if all(identity.values()):
                    everywhere += 1
                    for name in ROTATION_AXIOMS:
                        assert report.result(name).holds, (s, name)
                tables += 1
    assert (tables, everywhere) == (720, 39)


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


def test_census_structure_field(classes5):
    census = enumerate_singquandles(3)
    assert isinstance(census, Census)
    assert census.structures is None
    with_reps = enumerate_singquandles(3, up_to_iso=True)
    assert with_reps.count == 10
    assert with_reps.structures is not None
    # each class is listed by its canonical form, and the forms strictly
    # increase, so no two listed classes are isomorphic
    for reps in (with_reps.structures,
                 enumerate_singquandles(4, up_to_iso=True).structures,
                 classes5.structures):
        for s in reps:
            assert canonical_form(s) == s
        keys = [flat(s) for s in reps]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_census_search_leaves_no_garbage_cycles():
    # each search's state is freed when it ends, not at the next collection
    # of cyclic garbage
    stars = involutive_quandles(4)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for star in stars:
            singquandles_for_star(star)
        assert gc.collect() == 0
        involutive_quandles(4)
        assert gc.collect() == 0
        enumerate_singquandles(3, up_to_iso=True)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_census_up_to_isomorphism_memory_is_small():
    # the classes are read off the search, with no set of relabelled keys;
    # such a set peaked at 8.6 MiB here
    tracemalloc.start()
    try:
        enumerate_singquandles(5, up_to_iso=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


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
    # relabel(s, perm) holds perm[T[x][y]] at (perm[x], perm[y]), for every
    # table and every permutation
    structures = [s for n in (1, 2, 3, 4) for star in involutive_quandles(n)
                  for s in singquandles_for_star(star)]
    structures += [build_tables(p) for p in find_params(5)]
    for s in structures:
        n = s.order
        tables = (s.star.rows, s.r1.rows, s.r2.rows)
        for perm in permutations(range(n)):
            moved = relabel(s, perm)
            for t, m in zip(tables, (moved.star.rows, moved.r1.rows,
                                     moved.r2.rows)):
                for x in range(n):
                    for y in range(n):
                        assert m[perm[x]][perm[y]] == perm[t[x][y]]


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


def test_orbit_stabilizer_sums_give_the_labelled_counts(classes5):
    # each class of s holds n!/|Aut(s)| labelled structures
    for n, labelled in zip(range(1, 6), (1, 2, 10, 198, 16392)):
        census = (classes5 if n == 5
                  else enumerate_singquandles(n, up_to_iso=True))
        perms = list(permutations(range(n)))
        total = 0
        for s in census.structures:
            aut = sum(1 for perm in perms if relabel(s, perm) == s)
            assert len(perms) % aut == 0
            total += len(perms) // aut
        assert total == census.count == labelled, n


def test_census_up_to_isomorphism_is_pinned(classes5):
    # the output of `singquandles enumerate 5 --up-to-iso`
    text = serialize_census(classes5)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "bad5baee8647bf4c645ce49b2f881c96b252919eea7800e74022fe6f3fb30ea6")


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
