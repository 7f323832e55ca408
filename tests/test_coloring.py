from __future__ import annotations

import random
import time
from itertools import product

import pytest

from singquandles import (
    BACKEND_BRUTE,
    BACKEND_LINEAR,
    AlexanderParams,
    Classical,
    ColoringReport,
    Singular,
    SingularDiagram,
    Verdict,
    build_tables,
    count_colorings_bruteforce,
    count_colorings_linear,
    distinguish,
    fig8_system_count,
    find_params,
    gen_fig9_left,
    gen_fig9_right,
    make_dihedral_quandle,
    parse_diagram,
    parse_word,
    serialize_diagram,
    serialize_report,
    OpTable,
    Singquandle,
    TangleWord,
    braid_closure,
    involutive_quandles,
    sigma,
    singquandles_for_star,
    tangle_relation,
    tau,
)
from singquandles.coloring import _congruence_rows
from singquandles.cli import main
from helpers import color_count_oracle, color_set_oracle


@pytest.fixture(scope="module")
def small_census():
    """Every structure of order <= 4, in the order the search lists them."""
    return [s for n in range(1, 5) for star in involutive_quandles(n)
            for s in singquandles_for_star(star)]


def random_table(rng: random.Random, n: int) -> OpTable:
    return OpTable(tuple(tuple(rng.randrange(n) for _ in range(n))
                         for _ in range(n)))


def random_word(rng: random.Random, strands: int, length: int) -> TangleWord:
    letters = []
    for _ in range(length):
        i = rng.randint(1, strands - 1)
        if rng.random() < 0.3:
            letters.append(tau(i))
        else:
            letters.append(sigma(i, mirrored=rng.random() < 0.5))
    return TangleWord(tuple(letters), strands)


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


def renumber(diagram: SingularDiagram, perm) -> SingularDiagram:
    """The same diagram with arc x called perm[x]."""
    return SingularDiagram(diagram.arcs, tuple(
        type(cr)(*(perm[x] for x in cr.labels)) for cr in diagram.crossings),
        diagram.free)


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


def test_empty_diagram(alex543):
    empty = SingularDiagram(0)
    for report in (count_colorings_bruteforce(empty, alex543, list_colorings=True),
                   count_colorings_linear(empty, AlexanderParams(5, 4, 3),
                                          list_colorings=True)):
        assert report.count == 1
        assert report.colorings == ((),)


def test_modular_system_rows():
    rows = _congruence_rows(gen_fig9_left(), AlexanderParams(5, 4, 3))
    # each singular crossing contributes sw - r1x*nw - r1y*ne == 0 and
    # se - r2x*nw - r2y*ne == 0; r1 = (4, 2), r2 = (3, 3) mod 5
    assert rows == (
        (1, 3, 1, 0),
        (2, 2, 0, 1),
        (1, 0, 1, 3),
        (0, 1, 2, 2),
    )


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


def test_brute_matches_oracle_under_arbitrary_tables():
    # tables that satisfy no axiom: the counter must not rely on any
    rng = random.Random(4409)
    for _ in range(200):
        n = rng.randint(1, 4)
        s = Singquandle(random_table(rng, n), random_table(rng, n),
                        random_table(rng, n))
        assert_brute_matches_oracle(random_diagram(rng), s)


def test_closure_count_is_fixed_points_of_the_word(small_census):
    rng = random.Random(6067)
    for _ in range(150):
        word = random_word(rng, rng.randint(2, 4), rng.randint(0, 8))
        s = rng.choice(small_census)
        assert (count_colorings_bruteforce(braid_closure(word), s).count
                == fixed_points(word, s))


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
