from __future__ import annotations

import gc
import random
import time
import tracemalloc
from dataclasses import replace
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singquandles import (
    BACKEND_BRUTE,
    BACKEND_LINEAR,
    AlexanderParams,
    Classical,
    ColoringReport,
    Letter,
    Singular,
    SingularDiagram,
    Verdict,
    build_tables,
    count_colorings_bruteforce,
    count_colorings_linear,
    distinguish,
    enumerate_singquandles,
    fig8_system_count,
    find_params,
    gen_fig9_left,
    gen_fig9_right,
    make_dihedral_quandle,
    make_trivial_quandle,
    parse_diagram,
    parse_word,
    rotate_singular,
    serialize_diagram,
    serialize_report,
    OpTable,
    Singquandle,
    TangleWord,
    braid_closure,
    involutive_quandles,
    move_word_pairs,
    sigma,
    singquandles_for_star,
    tangle_relation,
    tau,
)
from singquandles.coloring import (_compile, _linear_plan, _passes, _quotient,
                                   _skeleton, _substitute, _tables)
from singquandles.cli import main
from helpers import color_count_oracle, color_set_oracle, random_word, renumber


@pytest.fixture(scope="module")
def small_census():
    """Every structure of order <= 4, in the order the search lists them."""
    return [s for n in range(1, 5) for star in involutive_quandles(n)
            for s in singquandles_for_star(star)]


def random_table(rng: random.Random, n: int) -> OpTable:
    return OpTable(tuple(tuple(rng.randrange(n) for _ in range(n))
                         for _ in range(n)))


def fixed_points(word: TangleWord, s: Singquandle) -> int:
    relation = tangle_relation(word, s)
    return sum(1 for colors in product(range(s.order), repeat=word.strands)
               if relation.apply(colors) == colors)


def random_diagram(rng: random.Random) -> SingularDiagram:
    arcs = rng.randint(1, 5)
    crossings = []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            crossings.append(Classical(*(rng.randrange(arcs) for _ in range(3))))
        else:
            crossings.append(Singular(*(rng.randrange(arcs) for _ in range(4))))
    return SingularDiagram(arcs, tuple(crossings), free=rng.randint(0, 2))


def linear_system(diagram: SingularDiagram, p: AlexanderParams) -> tuple:
    """The linear counter's plan for p's pass-through pattern, and p's
    combinations and residual rows on it."""
    plan = _linear_plan(diagram, _passes(p.coefficients, p.n))
    _, _, template, steps, _, _ = plan
    return plan, _substitute(template, steps, p.coefficients, p.n)


def assert_brute_matches_oracle(diagram, s):
    want = color_set_oracle(diagram, s)
    assert count_colorings_bruteforce(diagram, s).count == len(want)
    assert len(want) == color_count_oracle(diagram, s)
    full = count_colorings_bruteforce(diagram, s, list_colorings=True)
    assert full.count == len(want)
    assert list(full.colorings) == want
    assert not full.truncated
    for cap in (0, 1, 2, 7):
        cut = count_colorings_bruteforce(diagram, s, list_colorings=True,
                                         cap=cap)
        assert cut.count == len(want)
        assert list(cut.colorings) == want[:cap]
        assert cut.truncated == (cap < len(want))


def test_report_serialization():
    r = ColoringReport(3, BACKEND_BRUTE, ((0, 0), (1, 2), (2, 1)), False)
    assert serialize_report(r) == "count 3\n0 0\n1 2\n2 1\n"
    assert serialize_report(ColoringReport(4, BACKEND_LINEAR)) == "count 4\n"


def test_fig9_counts_both_backends(alex1094):
    p = AlexanderParams(10, 9, 4)
    left, right = gen_fig9_left(), gen_fig9_right()
    rb = count_colorings_bruteforce(left, alex1094, list_colorings=True)
    rl = count_colorings_linear(left, p, list_colorings=True)
    assert rb.count == rl.count == 20
    assert rb.backend == BACKEND_BRUTE
    assert rl.backend == BACKEND_LINEAR
    assert rb.colorings == rl.colorings
    # the solution set is exactly the pairs with c0 == c1 mod 5
    assert {(c[0], c[1]) for c in rb.colorings} == {
        (x, y) for x in range(10) for y in range(10) if (x - y) % 5 == 0}
    assert count_colorings_bruteforce(right, alex1094).count == 10
    assert count_colorings_linear(right, p).count == 10


def test_colorings_listed_in_lexicographic_order(alex543):
    report = count_colorings_bruteforce(gen_fig9_left(), alex543,
                                        list_colorings=True)
    assert report.colorings == tuple(sorted(report.colorings))
    assert len(report.colorings) == report.count
    assert not report.truncated


def test_truncation(alex1094):
    p = AlexanderParams(10, 9, 4)
    full = count_colorings_bruteforce(gen_fig9_left(), alex1094,
                                      list_colorings=True)
    cut = count_colorings_bruteforce(gen_fig9_left(), alex1094,
                                     list_colorings=True, cap=7)
    assert cut.truncated
    assert cut.count == 20
    assert cut.colorings == full.colorings[:7]
    linear_cut = count_colorings_linear(gen_fig9_left(), p,
                                        list_colorings=True, cap=7)
    assert linear_cut.truncated
    assert linear_cut.count == 20


def test_brute_matches_oracle_on_random_diagrams(alex543, small_census):
    rng = random.Random(1789)
    structures = [alex543, build_tables(AlexanderParams(4, 1, 2))]
    d3 = make_dihedral_quandle(3)
    structures.append(Singquandle(d3, d3, d3))
    assert len(small_census) == 211
    structures.extend(small_census)
    for _ in range(200):
        assert_brute_matches_oracle(random_diagram(rng), rng.choice(structures))


def test_linear_matches_oracle_on_random_diagrams():
    rng = random.Random(2741)
    params = [AlexanderParams(5, 4, 3), AlexanderParams(4, 1, 2),
              AlexanderParams(6, 1, 0)]
    for _ in range(40):
        diagram = random_diagram(rng)
        p = rng.choice(params)
        report = count_colorings_linear(diagram, p, list_colorings=True)
        assert report.count == color_count_oracle(diagram, build_tables(p))
        assert list(report.colorings) == color_set_oracle(diagram, build_tables(p))


def holds(coloring, diagram: SingularDiagram, p: AlexanderParams) -> bool:
    """Whether coloring satisfies every crossing's congruence mod p.n."""
    (sx, sy), (ax, ay), (bx, by) = p.coefficients
    n, c = p.n, coloring
    for cr in diagram.crossings:
        if isinstance(cr, Classical):
            if c[cr.c] != (sx * c[cr.a] + sy * c[cr.b]) % n:
                return False
        elif (c[cr.sw] != (ax * c[cr.nw] + ay * c[cr.ne]) % n
              or c[cr.se] != (bx * c[cr.nw] + by * c[cr.ne]) % n):
            return False
    return True


# a listed coloring is an int with digits of 1, 2, 2, 3 and 3 bytes: (64, 1,
# 32) and (16384, 1, 8192) are the largest n of their widths, and only their
# star passes its input through; (65, 14, 13), (16385, 1016, 7105) and
# (16390, 3279, 3278) are the least n of theirs, or near it, and no table
# passes its input through
@pytest.mark.parametrize("n, t, b", [(64, 1, 32), (16384, 1, 8192),
                                     (65, 14, 13), (16385, 1016, 7105),
                                     (16390, 3279, 3278)])
def test_linear_listings_at_every_digit_width(n, t, b):
    p = AlexanderParams(n, t, b)
    diagrams = [gen_fig9_left(), gen_fig9_right(),
                SingularDiagram(1, (Classical(0, 0, 0),)),
                SingularDiagram(2, (Classical(0, 1, 0),)),
                SingularDiagram(2, (Singular(0, 1, 1, 0),)),
                SingularDiagram(2, (Singular(0, 1, 0, 1), Classical(1, 0, 0)))]
    diagrams += [braid_closure(parse_word(w)) for w in (
        "s1 s2 t1 t2 t1", "s1' t2 s2 s2 s1' t1 s1", "s2 t2 s1' s1' t1 t2",
        "s1' s1' s1' s1' s1'")]
    counts = []
    for diagram in diagrams:
        count = count_colorings_linear(diagram, p).count
        if count > 10 ** 5:
            continue
        counts.append(count)
        full = count_colorings_linear(diagram, p, list_colorings=True)
        listed = full.colorings
        assert full.count == len(listed) == count and not full.truncated
        assert all(a < b for a, b in zip(listed, listed[1:]))
        assert all(len(c) == diagram.arcs and holds(c, diagram, p)
                   for c in listed)
        if n ** diagram.arcs <= 5000:
            assert list(listed) == color_set_oracle(diagram, build_tables(p))
        # a cap below the count of arc colorings lists none; with a free
        # circle a cap above it lists a prefix of the full listing
        cut = count_colorings_linear(diagram, p, list_colorings=True,
                                     cap=count - 1)
        assert cut.colorings is None and cut.truncated
        circle = replace(diagram, free=1)
        cut = count_colorings_linear(circle, p, list_colorings=True,
                                     cap=count + 3)
        assert cut.truncated
        assert cut.colorings == tuple(islice(
            (c + (x,) for c in listed for x in range(n)), count + 3))
    # under (16384, 1, 8192) and (16385, 1016, 7105) these diagrams have
    # only constant colorings or more than 10^5; the others list more, and
    # (16390, 3279, 3278) a kernel generator whose multiples step by more
    # than 1
    assert max(counts) > n or n in (16384, 16385)
    assert n != 16390 or 81950 in counts


def test_three_counts_agree_on_random_diagrams():
    # diagrams that are not braid closures, under every valid linear
    # structure of order <= 8: brute force, linear and the oracle
    rng = random.Random(3187)
    params = [p for n in range(1, 9) for p in find_params(n)]
    assert len(params) == 12
    for p in params:
        s = build_tables(p)
        for _ in range(25):
            diagram = random_diagram(rng)
            # the substitution walks the crossings in order: reversed, it
            # defines other arcs and leaves other rows, but the same count
            reversed_ = replace(diagram, crossings=diagram.crossings[::-1])
            want = color_count_oracle(diagram, s)
            for d in (diagram, reversed_):
                assert (count_colorings_bruteforce(d, s).count
                        == count_colorings_linear(d, p).count
                        == want), (p, d)


def test_substitution_leaves_at_most_one_row_per_strand():
    # in a closure walked in word order each defined arc is a new strand
    # segment, and only a strand whose bottom arc is a crossing output,
    # which closes onto its top arc, leaves a residual row; the linear
    # counter's cost rests on this
    rng = random.Random(4241)
    params = [p for n in range(2, 13) for p in find_params(n)]
    for _ in range(300):
        strands = rng.randint(2, 8)
        closure = braid_closure(random_word(rng, strands, rng.randint(0, 40)))
        p = rng.choice(params)
        (_, columns, _, steps, _, _), (_, residual) = linear_system(closure, p)
        assert len(residual) <= strands, (closure, p)
        assert len(residual) == sum(not defines for *_, defines in steps)
        # every free class holds a strand's top arc
        assert columns <= strands


def test_closures_under_pass_through_members_count_n_per_component():
    # under (n, 1, 0), x*y = x, r1 = y and r2 = x: every strand passes
    # straight through each crossing, so a closure takes one color per
    # component, n ** (cycles of the word's permutation), in which s_i and
    # t_i both swap i and i + 1.  Brute force visits every coloring, so it
    # runs only where n ** strands is at most 10 ** 4
    rng = random.Random(2207)
    for _ in range(120):
        strands = rng.randint(2, 8)
        word = random_word(rng, strands, rng.randint(0, 16))
        perm = list(range(strands))
        for letter in word.letters:
            i = letter.index - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        cycles, seen = 0, set()
        for start in range(strands):
            if start not in seen:
                cycles += 1
                x = start
                while x not in seen:
                    seen.add(x)
                    x = perm[x]
        closure = braid_closure(word)
        for n in (2, 3, 5, 12):
            p = AlexanderParams(n, 1, 0)
            want = n ** cycles
            assert count_colorings_linear(closure, p).count == want, (word, n)
            if n ** strands <= 10 ** 4:
                assert (count_colorings_bruteforce(closure, build_tables(p)).count
                        == want), (word, n)


def test_count_invariance_under_arc_relabeling(alex543):
    # swapping two semiarc labels everywhere cannot change the count
    d = gen_fig9_right()
    swapped = SingularDiagram(4, tuple(
        type(cr)(*(({0: 3, 3: 0}.get(x, x)) for x in cr.labels))
        for cr in d.crossings))
    assert (count_colorings_bruteforce(d, alex543).count
            == count_colorings_bruteforce(swapped, alex543).count)


def test_unreferenced_arcs_and_free_circles(alex543):
    kink = parse_diagram("arcs 3\nfree 2\nX 0 0 0\n")
    # arcs 1 and 2 are never referenced: factor 5 each, plus 5^2 free
    assert count_colorings_bruteforce(kink, alex543).count == 5 * 25 * 25
    p = AlexanderParams(5, 4, 3)
    assert count_colorings_linear(kink, p).count == 5 * 25 * 25
    report = count_colorings_bruteforce(kink, alex543, list_colorings=True,
                                        cap=10 ** 5)
    assert len(report.colorings) == 5 * 25 * 25
    assert report.colorings == tuple(sorted(report.colorings))


def test_listing_widens_unread_arcs_in_order(small_census):
    # crossings on some arcs only, so the others, and the arcs of kinks a
    # structure makes vacuous, are unread; the listing must still be the
    # sorted product of every arc's colors, filtered
    rng = random.Random(2503)
    widened = 0
    for _ in range(150):
        s = rng.choice(small_census)
        arcs = rng.randint(2, 6)
        while s.order ** arcs > 4096:
            arcs -= 1
        read = rng.sample(range(arcs), rng.randint(1, arcs))
        crossings = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                crossings.append(Classical(*(rng.choice(read) for _ in range(3))))
            else:
                crossings.append(Singular(*(rng.choice(read) for _ in range(4))))
        diagram = SingularDiagram(arcs, tuple(crossings), rng.randint(0, 1))
        widened += bool(_compile(diagram, s)[1])
        want = color_set_oracle(diagram, s)
        for cap in (0, 1, 5, 10 ** 6):
            report = count_colorings_bruteforce(diagram, s,
                                                list_colorings=True, cap=cap)
            assert report.count == len(want)
            assert list(report.colorings) == want[:cap]
    assert widened > 100


def test_listing_memory_does_not_grow_with_the_heads():
    # the trivial star copies each crossing's first input to its output, so
    # 4 crossings on 12 arcs leave 4^8 colorings; shifted up one arc, arc 0
    # is unread and each of the 5,000 kept heads is widened by its colors
    star = make_trivial_quandle(4)
    s = Singquandle(star, star, star)
    listings, peaks = [], []
    for shift in (0, 1):
        diagram = SingularDiagram(12 + shift, tuple(
            Classical(3 * i + shift, 3 * i + 1 + shift, 3 * i + 2 + shift)
            for i in range(4)))
        gc.collect()
        tracemalloc.start()
        try:
            report = count_colorings_bruteforce(diagram, s,
                                                list_colorings=True, cap=5000)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.count == 4 ** (8 + shift)
        listings.append(report.colorings)
    assert listings[1] == tuple((0,) + c for c in listings[0])
    # with a generator per kept head the shifted listing peaked at 4.4
    # times the unshifted one
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_listing_of_many_free_circles_stops_at_the_cap():
    # 2^64 tails: a listing that built them all would never finish
    circles = SingularDiagram(1, free=64)
    p = AlexanderParams(2, 1, 0)
    start = time.perf_counter()
    reports = [count_colorings_bruteforce(circles, build_tables(p),
                                          list_colorings=True, cap=3),
               count_colorings_linear(circles, p, list_colorings=True, cap=3)]
    assert time.perf_counter() - start < 1.0
    zeros = (0,) * 63
    for report in reports:
        assert report.count == 2 ** 65
        assert report.truncated
        assert report.colorings == ((0, 0) + zeros, (0,) + zeros + (1,),
                                    (0,) + zeros[1:] + (1, 0))


def test_empty_diagram(alex543):
    empty = SingularDiagram(0)
    for report in (count_colorings_bruteforce(empty, alex543, list_colorings=True),
                   count_colorings_linear(empty, AlexanderParams(5, 4, 3),
                                          list_colorings=True)):
        assert report.count == 1
        assert report.colorings == ((),)


def test_modular_system_rows():
    plan, (combos, residual) = linear_system(gen_fig9_left(),
                                             AlexanderParams(5, 4, 3))
    # no table passes an input through, so each arc is a class of its own;
    # arcs 0 and 1 are free; the first crossing defines sw = r1x*nw + r1y*ne
    # and se = r2x*nw + r2y*ne, with r1 = (4, 2), r2 = (3, 3) mod 5
    classes, columns, template, steps, roots, index = plan
    assert (classes, columns, roots) == (4, 2, {})
    assert index == {0: 0, 1: 1, 2: 2, 3: 3}
    assert template == ((1, 0), (0, 1), None, None)
    assert steps == ((2, 1, 0, 1, True), (3, 2, 0, 1, True),
                     (0, 1, 2, 3, False), (1, 2, 2, 3, False))
    assert combos == [(1, 0), (0, 1), [4, 2], [3, 3]]
    # the second crossing's outputs were read by the first: each equation,
    # arcs 2 and 3 substituted, is a residual row, its residues taken in
    # (-5/2, 5/2] and zeros left out.  So arc 0 == arc 1: 5 colorings
    assert residual == [{0: -1, 1: 1}, {0: -1, 1: 1}]
    assert count_colorings_linear(gen_fig9_left(),
                                  AlexanderParams(5, 4, 3)).count == 5


def test_congruence_rows_merge_an_arc_met_twice(alex543):
    p = AlexanderParams(5, 4, 3)
    # star = 4x + 2y: X 0 1 0 gives c - 4a - 2b with c = a, so -3a - 2b;
    # an output among its own inputs defines nothing
    out_is_in = SingularDiagram(2, (Classical(0, 1, 0),))
    assert linear_system(out_is_in, p) == (
        (2, 2, ((1, 0), (0, 1)), ((0, 0, 0, 1, False),), {}, {0: 0, 1: 1}),
        ([(1, 0), (0, 1)], [{0: 2, 1: -2}]))
    # each coefficient pair sums to 1 mod n, so x * x == x: a kink passes
    # its arc through and is merged away before the walk, leaving no steps
    kinks = SingularDiagram(2, (Classical(0, 0, 0), Singular(1, 1, 1, 1)))
    assert linear_system(kinks, p) == ((2, 0, (), (), {}, {}), ([], []))
    both = SingularDiagram(3, (Classical(0, 1, 0), Classical(2, 2, 2),
                               Singular(0, 2, 0, 2)))
    # S 0 2 0 2: both outputs are inputs, two rows that say 2a == 2c
    (_, columns, _, _, _, _), (_, residual) = linear_system(both, p)
    assert columns == 3
    assert residual == [{0: 2, 1: -2}, {0: 2, 2: -2}, {0: 2, 2: -2}]
    for diagram in (out_is_in, kinks, both):
        report = count_colorings_linear(diagram, p, list_colorings=True)
        assert report.count == color_count_oracle(diagram, alex543)
        assert list(report.colorings) == color_set_oracle(diagram, alex543)


def test_linear_counter_with_modulus_one_and_no_crossings():
    one = AlexanderParams(1, 0, 0)
    # mod 1 every coefficient pair is (1, 0): each output is joined to its
    # first input, so the four arcs are one class, with no steps and no rows
    assert linear_system(gen_fig9_left(), one) == (
        (1, 0, (), (), {1: 0, 2: 0, 3: 0}, {}), ([], []))
    report = count_colorings_linear(gen_fig9_left(), one, list_colorings=True)
    assert (report.count, report.colorings) == (1, ((0, 0, 0, 0),))
    bare = SingularDiagram(2, (), free=1)
    p = AlexanderParams(3, 1, 0)
    # arcs no crossing touches are classes of their own, which the walk
    # never meets: they take any color, with no column and no row
    assert linear_system(bare, p) == ((2, 0, (), (), {}, {}), ([], []))
    report = count_colorings_linear(bare, p, list_colorings=True)
    assert report.count == 27
    assert list(report.colorings) == list(product(range(3), repeat=3))


def test_fig8_system_counts():
    assert fig8_system_count(1, "left", AlexanderParams(5, 4, 3)).count == 5
    report = fig8_system_count(1, "left", AlexanderParams(5, 4, 3),
                               list_colorings=True)
    assert report.colorings == tuple((x, x) for x in range(5))
    assert fig8_system_count(1, "right", AlexanderParams(4, 1, 2)).count == 8
    for n in (3, 7):
        assert fig8_system_count(1, "left", AlexanderParams(n, 1, 0)).count == n
    # higher twisting numbers stay well defined
    assert fig8_system_count(3, "left", AlexanderParams(5, 4, 3)).count >= 5
    with pytest.raises(ValueError):
        fig8_system_count(0, "left", AlexanderParams(5, 4, 3))
    with pytest.raises(ValueError):
        fig8_system_count(1, "middle", AlexanderParams(5, 4, 3))


def test_distinguish_fig9():
    family = [p for n in range(2, 11) for p in find_params(n)]
    verdict = distinguish(gen_fig9_left(), gen_fig9_right(), family)
    assert verdict.separated
    assert (verdict.structure.n, verdict.structure.t, verdict.structure.b) == (2, 1, 0)
    assert verdict.counts == (4, 2)
    assert "separated" in str(verdict)


def test_distinguish_not_separated(alex543):
    verdict = distinguish(gen_fig9_left(), gen_fig9_left(),
                          [AlexanderParams(5, 4, 3), alex543])
    assert not verdict.separated
    assert str(verdict) == "not separated"


def test_distinguish_accepts_table_structures(alex543):
    # raw structures go through the brute-force backend
    verdict = distinguish(gen_fig9_left(), gen_fig9_right(), [alex543])
    assert not verdict.separated  # both count 5 over (5,4,3)


def test_distinguish_pair_only_the_census_separates():
    # two 3-strand closures, each with 2 components and 3 double points,
    # that no linear structure with n <= 30 separates and one order-4 class
    # with the trivial star does
    a, b = (parse_word(w, 3) for w in ("t1 t1 t2", "s1 s2 t1 t2 t1"))
    closures = [braid_closure(w) for w in (a, b)]
    linear = [p for n in range(2, 31) for p in find_params(n)]
    assert len(linear) == 58
    assert not distinguish(*closures, linear).separated
    classes = [s for n in range(1, 6)
               for s in enumerate_singquandles(n, up_to_iso=True).structures]
    assert len(classes) == 228
    verdict = distinguish(*closures, classes)
    assert (verdict.index, verdict.counts) == (10, (16, 12))
    s = verdict.structure
    assert s.order == 4 and s.star == make_trivial_quandle(4)
    # a closure's colorings are the top colorings its word fixes
    assert [fixed_points(w, s) for w in (a, b)] == [16, 12]
    # under x * y = x a classical crossing passes both colors on whichever
    # strand is over, so switching one keeps the count
    for switched in ("s1' s2 t1 t2 t1", "s1 s2' t1 t2 t1", "s1' s2' t1 t2 t1"):
        d = braid_closure(parse_word(switched, 3))
        assert count_colorings_bruteforce(d, s).count == 12


def test_brute_matches_oracle_under_arbitrary_tables():
    # tables that satisfy no axiom: the counter must not rely on any
    rng = random.Random(4409)
    for _ in range(200):
        n = rng.randint(1, 4)
        s = Singquandle(random_table(rng, n), random_table(rng, n),
                        random_table(rng, n))
        assert_brute_matches_oracle(random_diagram(rng), s)


def test_quotient_merges_what_tables_pass_through():
    # random tables almost never pass an input through, so here each of
    # star, r1 and r2 is x * y = x, x * y = y, x * x = x with the other
    # entries random, or random, on crossings whose labels repeat
    rng = random.Random(2626)

    def table(n):
        kind = rng.randrange(4)
        return OpTable(tuple(tuple(
            x if kind == 0 or kind == 2 and x == y else y if kind == 1
            else rng.randrange(n) for y in range(n)) for x in range(n)))

    merged = dropped = 0
    for _ in range(400):
        n = rng.randint(1, 3)
        s = Singquandle(table(n), table(n), table(n))
        arcs = rng.randint(1, 5)
        crossings = []
        for _ in range(rng.randint(1, 4)):
            a, b, c = (rng.randrange(arcs) for _ in range(3))
            crossings.append(rng.choice((
                Classical(a, a, a), Classical(a, b, a), Classical(a, b, b),
                Singular(a, b, b, a), Singular(a, b, a, c))))
        d = SingularDiagram(arcs, tuple(crossings), free=rng.randint(0, 1))
        star, r = _tables((s.star.rows,)), _tables((s.r1.rows, s.r2.rows))
        roots, left = _quotient(d, star[1] + r[1])
        merged += bool(roots)
        dropped += len(left) < len(crossings)
        assert_brute_matches_oracle(d, s)
    assert merged > 100 and dropped > 200, (merged, dropped)


def test_negative_cap_is_refused_by_both_backends(alex543):
    for count, s in ((count_colorings_bruteforce, alex543),
                     (count_colorings_linear, AlexanderParams(5, 4, 3))):
        with pytest.raises(ValueError, match="cap must be >= 0"):
            count(gen_fig9_left(), s, list_colorings=True, cap=-1)


def test_no_plan_checks_one_thing_twice():
    # a quarter-turned fig9-left holds arcs 3 and 0 as the same legs of both
    # its crossings, and its plans once filtered them twice, under 225 of the
    # 228 classes of orders 1-5
    classes = [s for n in range(1, 6)
               for s in enumerate_singquandles(n, up_to_iso=True).structures]
    turned = [rotate_singular(d, i) for i in (0, 1)
              for d in (gen_fig9_left(), gen_fig9_right())]
    rng = random.Random(7717)
    cases = [(d, s) for d in turned for s in classes]
    cases += [(random_diagram(rng), Singquandle(*(random_table(rng, n)
                                                  for _ in range(3))))
              for n in (1, 2, 3, 4) for _ in range(100)]
    for d, s in cases:
        # the plan as _compile finds it, before its slots are bound to tables
        star, r = _tables((s.star.rows,)), _tables((s.r1.rows, s.r2.rows))
        plan, _, _ = _skeleton(d, (star[0], r[0]), star[1] + r[1])
        ops = [op for _, step in plan for op in step]
        assert len(set(ops)) == len(ops), (d, plan)
        want = color_count_oracle(d, s)
        assert count_colorings_bruteforce(d, s).count == want


def test_one_plan_binds_to_each_structures_tables():
    # (5, 4, 3) and (5, 4, 4) share a signature, so one plan serves both,
    # but these closures count differently under them: a plan that kept the
    # tables of the structure counted before it would show
    a, b = (build_tables(AlexanderParams(5, 4, x)) for x in (3, 4))
    assert a.star == b.star and (a.r1, a.r2) != (b.r1, b.r2)
    assert _tables((a.r1.rows, a.r2.rows))[0] == _tables((b.r1.rows, b.r2.rows))[0]
    diagrams = [braid_closure(parse_word(w, 2)) for w in ("s1 t1 s1", "t1 s1 s1 s1")]
    assert [count_colorings_bruteforce(d, s).count
            for d in diagrams for s in (a, b)] == [5, 25, 25, 5]
    for first, second in ((a, b), (b, a)):
        _skeleton.cache_clear()
        for d in diagrams:
            # the first count compiles the plan, the second reuses it
            for s in (first, second):
                want = color_count_oracle(d, s)
                assert count_colorings_bruteforce(d, s).count == want
                listed = count_colorings_bruteforce(d, s, list_colorings=True)
                assert list(listed.colorings) == color_set_oracle(d, s)
        info = _skeleton.cache_info()
        assert (info.misses, info.hits) == (len(diagrams), 3 * len(diagrams))


def test_every_solving_pair_saves_seeds():
    # with any one pair of legs left out of _PAIRS these 60 closures take
    # more seeds than the 2,409 they take with all of them, under the linear
    # members with n <= 12; without the singular pair (0, 2) or (2, 3),
    # some quarter-turned fig9 diagram takes 3 under a class of orders 1-5
    rng = random.Random(3)
    closures = [braid_closure(random_word(rng, rng.randint(2, 4),
                                          rng.randint(4, 16)))
                for _ in range(60)]
    members = [build_tables(p) for n in range(1, 13) for p in find_params(n)]
    assert len(members) == 19
    assert sum(len(_compile(d, s)[0]) for d in closures for s in members) <= 2409

    def turns(d, index):
        for _ in range(4):
            yield d
            d = rotate_singular(d, index)

    turned = [e for d in (gen_fig9_left(), gen_fig9_right())
              for c in turns(d, 0) for e in turns(c, 1)]
    classes = [s for n in range(1, 6)
               for s in enumerate_singquandles(n, up_to_iso=True).structures]
    assert max(len(_compile(d, s)[0]) for d in turned for s in classes) <= 2


def test_plan_caches_stay_bounded():
    rng = random.Random(5501)
    members = [p for n in range(1, 5) for p in find_params(n)]

    def count(diagrams):
        for _ in range(diagrams):
            n = rng.randint(1, 4)
            s = Singquandle(*(random_table(rng, n) for _ in range(3)))
            diagram = random_diagram(rng)
            count_colorings_bruteforce(diagram, s)
            count_colorings_linear(diagram, rng.choice(members))

    caches = (_tables, _skeleton, _linear_plan)
    for cached in caches:
        cached.cache_clear()
    # each batch of 250 counts after a full collection, which also empties
    # the interpreter's free lists, so what is left is what the caches hold
    held, peaks = [], []
    tracemalloc.start()
    try:
        for _ in range(4):
            gc.collect()
            tracemalloc.reset_peak()
            count(250)
            peaks.append(tracemalloc.get_traced_memory()[1])
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    for cached in caches:
        info = cached.cache_info()
        assert info.currsize == info.maxsize < info.misses
    assert max(held) - min(held) < 32 * 1024, held
    assert max(peaks) < peaks[0] + 64 * 1024, peaks


def test_closure_count_is_fixed_points_of_the_word(small_census):
    rng = random.Random(6067)
    for _ in range(150):
        word = random_word(rng, rng.randint(2, 4), rng.randint(0, 8))
        s = rng.choice(small_census)
        assert (count_colorings_bruteforce(braid_closure(word), s).count
                == fixed_points(word, s))
    # tables that satisfy no axiom: each crossing's outgoing arcs are still
    # functions of its incoming ones, so the identity holds for any tables;
    # the words are kept short for the oracle, which tries every coloring
    for _ in range(150):
        n = rng.randint(1, 4)
        s = Singquandle(random_table(rng, n), random_table(rng, n),
                        random_table(rng, n))
        word = random_word(rng, rng.randint(2, 4), rng.randint(0, 6))
        diagram = braid_closure(word)
        assert (count_colorings_bruteforce(diagram, s).count
                == fixed_points(word, s) == color_count_oracle(diagram, s))


@st.composite
def letters_on(draw, k):
    return [tau(i) if kind == "t" else sigma(i, mirrored=kind == "s'")
            for kind, i in draw(st.lists(st.tuples(
                st.sampled_from(("s", "s'", "t")), st.integers(1, k - 1)),
                max_size=4))]


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_moves_inside_a_closure_keep_its_count(small_census, data):
    # u A v and u B v close to diagrams that differ by the move A -> B
    k = data.draw(st.integers(3, 5))
    u, v = data.draw(letters_on(k)), data.draw(letters_on(k))
    pairs = move_word_pairs()
    a, b = pairs[data.draw(st.sampled_from(sorted(pairs)))]
    offset = data.draw(st.integers(0, k - a.strands))
    s = data.draw(st.sampled_from(small_census))
    counts = []
    for move in (a, b):
        shifted = [Letter(x.kind, x.index + offset, x.mirrored)
                   for x in move.letters]
        closure = braid_closure(TangleWord(tuple(u + shifted + v), k))
        counts.append(count_colorings_bruteforce(closure, s).count)
    assert counts[0] == counts[1]


def test_brute_matches_oracle_on_larger_random_diagrams(small_census):
    # more arcs and crossings than random_diagram, so that seeds are
    # chosen among several candidates and crossings are solved backwards
    rng = random.Random(2718)
    for _ in range(150):
        arcs = rng.randint(4, 6)
        crossings = []
        for _ in range(rng.randint(2, 6)):
            if rng.random() < 0.5:
                crossings.append(Classical(*rng.sample(range(arcs), 3)))
            else:
                crossings.append(Singular(*rng.sample(range(arcs), 4)))
        diagram = SingularDiagram(arcs, tuple(crossings), rng.randint(0, 1))
        if rng.random() < 0.5:
            s = rng.choice(small_census)
        else:
            n = rng.randint(1, 4)
            s = Singquandle(random_table(rng, n), random_table(rng, n),
                            random_table(rng, n))
        assert_brute_matches_oracle(diagram, s)


def test_listing_follows_a_renumbering(small_census):
    rng = random.Random(3301)
    for _ in range(60):
        closure = braid_closure(random_word(rng, rng.randint(2, 4),
                                            rng.randint(1, 8)))
        s = rng.choice(small_census)
        perm = list(range(closure.arcs))
        rng.shuffle(perm)
        want = []
        for coloring in count_colorings_bruteforce(
                closure, s, list_colorings=True).colorings:
            renamed = [None] * closure.arcs
            for x, v in enumerate(coloring):
                renamed[perm[x]] = v
            want.append(tuple(renamed))
        got = count_colorings_bruteforce(renumber(closure, perm), s,
                                         list_colorings=True)
        assert list(got.colorings) == sorted(want)


def test_cost_does_not_hang_on_arc_numbering():
    # in the closure of s1^40 crossing i reads arcs i, i + 1 and writes arc
    # i + 2; with the even arcs numbered first no crossing has two inputs
    # among the low numbers, and a search that seeds arcs in index order
    # visits 3^20 nodes
    ring = braid_closure(TangleWord(tuple(sigma(1) for _ in range(40)), 2))
    evens_first = renumber(ring, [x // 2 if x % 2 == 0 else 20 + x // 2
                                  for x in range(40)])
    d3 = make_dihedral_quandle(3)
    cases = [(ring, evens_first, Singquandle(d3, d3, d3))]
    closure = braid_closure(random_word(random.Random(1608), 4, 90))
    perm = list(range(closure.arcs))
    random.Random(7).shuffle(perm)
    shuffled = renumber(closure, perm)
    for p in (AlexanderParams(10, 9, 4), AlexanderParams(8, 1, 4)):
        cases.append((closure, shuffled, build_tables(p)))
    start = time.perf_counter()
    for diagram, renumbered, s in cases:
        want = count_colorings_bruteforce(diagram, s).count
        assert count_colorings_bruteforce(renumbered, s).count == want
        listing = count_colorings_bruteforce(renumbered, s,
                                             list_colorings=True, cap=5)
        assert listing.count == want
        assert len(listing.colorings) == min(5, want)
    # far above what a plan that follows the crossings needs, far below
    # 3^20 nodes
    assert time.perf_counter() - start < 20


def test_long_closure_count_is_fixed_points_of_the_word():
    word = random_word(random.Random(1608), 4, 90)
    closure = braid_closure(word)
    assert closure.arcs >= 100
    s = build_tables(AlexanderParams(8, 1, 4))
    assert count_colorings_bruteforce(closure, s).count == fixed_points(word, s)


def fig8_pairs_oracle(k, side, p):
    """The printed system solved by trying every pair (x, y)."""
    n, t, b = p.n, p.t, p.b
    if side == "left":
        coeffs = ((1 - b) ** 2, -k * t + b + k)
    else:
        coeffs = (-k + k * t + b, -1 + k + t - k + b)
    return tuple((x, y) for x in range(n) for y in range(n)
                 if all(c * (x - y) % n == 0 for c in coeffs))


def test_fig8_closed_form_matches_pair_loop():
    for n in range(1, 40):
        for p in find_params(n):
            for k in range(1, 5):
                for side in ("left", "right"):
                    want = fig8_pairs_oracle(k, side, p)
                    report = fig8_system_count(k, side, p, list_colorings=True)
                    assert report.count == len(want)
                    assert report.colorings == want
                    assert fig8_system_count(k, side, p).colorings is None


def shuffled_closure(seed: int) -> SingularDiagram:
    """A 4-strand closure of at least 135 arcs, its labels shuffled."""
    rng = random.Random(seed)
    closure = braid_closure(random_word(rng, 4, 125))
    assert closure.arcs >= 135
    perm = list(range(closure.arcs))
    rng.shuffle(perm)
    return renumber(closure, perm)


def test_linear_counts_the_27_arc_closure():
    # elimination over Z without reduction mod n does not finish on this
    # closure: its entries grow without bound
    closure = braid_closure(parse_word(
        "t1 s2 s3 t2 s1' s3 s2' s3 s3 s3 t3 s1 s2' s2 s2 t3 t1 t1 t1 s3'", 4))
    assert closure.arcs == 27
    p = AlexanderParams(10, 9, 4)
    start = time.perf_counter()
    assert count_colorings_linear(closure, p).count == 20
    assert time.perf_counter() - start < 5
    assert count_colorings_bruteforce(closure, build_tables(p)).count == 20


def test_linear_matches_brute_on_long_shuffled_closures():
    family = [p for n in range(1, 13) for p in find_params(n)]
    for seed in (135, 136):
        closure = shuffled_closure(seed)
        for p in family:
            assert (count_colorings_linear(closure, p).count
                    == count_colorings_bruteforce(closure, build_tables(p)).count)
    # the last closure has 40 colorings under (10, 9, 4)
    p = AlexanderParams(10, 9, 4)
    linear = count_colorings_linear(closure, p, list_colorings=True)
    assert 1 < linear.count <= 1000
    brute = count_colorings_bruteforce(closure, build_tables(p),
                                       list_colorings=True)
    assert linear.colorings == brute.colorings
    assert not linear.truncated and not brute.truncated


def test_many_seeds_and_vacuous_kinks(tmp_path, capsys):
    kinks = SingularDiagram(1500, tuple(Classical(i, i, i) for i in range(1500)))
    untouched = SingularDiagram(1500)
    s = build_tables(AlexanderParams(3, 1, 0))
    for diagram in (kinks, untouched):
        # a kink holds under every coloring by an idempotent star, so each
        # arc counts 3, as an arc no crossing touches does
        assert count_colorings_bruteforce(diagram, s).count == 3 ** 1500
        report = count_colorings_bruteforce(diagram, s, list_colorings=True,
                                            cap=4)
        assert report.colorings == tuple(
            (0,) * 1498 + tail for tail in ((0, 0), (0, 1), (0, 2), (1, 0)))
        assert report.truncated
    # a star idempotent only at 0 fixes each kink's arc: 1500 seeds, one
    # value each, deeper than the interpreter's recursion limit
    star = OpTable(((0, 0, 0), (2, 2, 2), (1, 1, 1)))
    report = count_colorings_bruteforce(kinks, Singquandle(star, star, star),
                                        list_colorings=True)
    assert report.count == 1
    assert report.colorings == ((0,) * 1500,)
    path = tmp_path / "kinks.diagram"
    path.write_text(serialize_diagram(kinks))
    assert main(["color", str(path), "--alexander", "3", "1", "0"]) == 0
    assert capsys.readouterr().out == f"count {3 ** 1500}\n"
