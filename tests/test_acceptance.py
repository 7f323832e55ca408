"""End-to-end acceptance suite.

One test per numbered criterion, so a verbose run shows one pass/fail line
for each.  Every test also prints its elapsed time and asserts the runtime
budget where one applies (criteria 2 and 7 are untimed).
"""

from __future__ import annotations

import time
from itertools import product
from pathlib import Path

from singquandles import (
    AlexanderParams,
    OpTable,
    Singquandle,
    braid_closure,
    build_tables,
    check_all,
    count_colorings_bruteforce,
    count_colorings_linear,
    distinguish,
    enumerate_singquandles,
    evaluate_axiom,
    fig8_system_count,
    find_params,
    gen_fig9_left,
    gen_fig9_right,
    involutive_quandles,
    move_word_pairs,
    parse_diagram,
    parse_tables,
    rotate_singular,
    sigma,
    singquandles_for_star,
    tangle_relation,
    tau,
    verify_proposition,
    TangleWord,
)
from singquandles.cli import main as cli_main
from helpers import joined_census, literal_census

REPO = Path(__file__).resolve().parent.parent


def _finish(number: int, label: str, start: float, budget: float | None) -> None:
    elapsed = time.perf_counter() - start
    suffix = f" (budget {budget:g}s)" if budget is not None else ""
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s{suffix}")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.2f}s"


def test_criterion_1_full_checker_on_all_linear_structures():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 13):
        for p in find_params(n):
            assert verify_proposition(p).all_hold, (n, p.t, p.b)
            checked += 1
    assert checked >= 11
    _finish(1, "linear family passes the full checker", start, 5)


def test_criterion_2_parameter_search_with_oracle():
    start = time.perf_counter()
    assert {(p.t, p.b) for p in find_params(5)} == {(1, 0), (4, 3), (4, 4)}
    assert (9, 4) in {(p.t, p.b) for p in find_params(10)}
    for n in range(1, 13):
        assert (1 % n, 0) in {(p.t, p.b) for p in find_params(n)}

    # independent oracle: decide each of the 25 residue pairs mod 5 by
    # building the tables straight from the formulas and running the
    # axiom checker, with no congruence shortcut
    def table(cx, cy):
        return OpTable(tuple(tuple((cx * x + cy * y) % 5 for y in range(5))
                             for x in range(5)))

    oracle = {(t, b)
              for t in range(5) for b in range(5)
              if check_all(Singquandle(table(t, 1 - t),
                                       table(1 - t - b, t + b),
                                       table(1 - b, b))).all_hold}
    assert oracle == {(p.t, p.b) for p in find_params(5)}
    _finish(2, "parameter search matches brute-force oracle", start, None)


def test_criterion_3_two_vertex_diagram_counts():
    start = time.perf_counter()
    p = AlexanderParams(10, 9, 4)
    s = build_tables(p)
    left, right = gen_fig9_left(), gen_fig9_right()

    for report in (count_colorings_bruteforce(left, s, list_colorings=True),
                   count_colorings_linear(left, p, list_colorings=True)):
        assert report.count == 20
        assert {(c[0], c[1]) for c in report.colorings} == {
            (x, y) for x in range(10) for y in range(10) if (x - y) % 5 == 0}
        for c in report.colorings:
            assert c[2] == s.r1.apply(c[0], c[1])
            assert c[3] == s.r2.apply(c[0], c[1])

    assert count_colorings_bruteforce(right, s).count == 10
    assert count_colorings_linear(right, p).count == 10

    family = [q for n in range(2, 11) for q in find_params(n)]
    verdict = distinguish(left, right, family)
    assert verdict.separated
    assert str(verdict).startswith("separated")
    _finish(3, "two-vertex diagram counts and separation", start, 1)


def test_criterion_4_twist_system_counts():
    start = time.perf_counter()
    report = fig8_system_count(1, "left", AlexanderParams(5, 4, 3),
                               list_colorings=True)
    assert report.count == 5
    assert set(report.colorings) == {(x, x) for x in range(5)}
    assert fig8_system_count(1, "right", AlexanderParams(4, 1, 2)).count == 8
    _finish(4, "twist-region system counts", start, 1)


def test_criterion_5_backend_equivalence():
    start = time.perf_counter()
    suite = [gen_fig9_left(), gen_fig9_right()]
    for length in range(5):
        for letters in product((sigma(1), tau(1)), repeat=length):
            suite.append(braid_closure(TangleWord(letters, 2)))
    suite.append(parse_diagram("arcs 1\nX 0 0 0\n"))
    suite.append(parse_diagram("arcs 3\nX 1 0 2\nX 2 0 1\n"))
    assert len(suite) >= 20

    params = [p for n in range(1, 9) for p in find_params(n)]
    assert len(params) == 12
    for p in params:
        s = build_tables(p)
        for diagram in suite:
            brute = count_colorings_bruteforce(diagram, s).count
            linear = count_colorings_linear(diagram, p).count
            assert brute == linear, (p, diagram)
    _finish(5, "brute-force and linear backends agree", start, 30)


def test_criterion_6_move_invariance_over_census():
    start = time.perf_counter()
    pairs = move_word_pairs()
    diagrams = []
    for d in (gen_fig9_left(), gen_fig9_right()):
        diagrams.append((d, [rotate_singular(d, i)
                             for i in range(len(d.crossings))]))

    totals = []
    for n in range(1, 6):
        count = 0
        for star in involutive_quandles(n):
            for s in singquandles_for_star(star):
                count += 1
                for name, (wa, wb) in pairs.items():
                    assert tangle_relation(wa, s) == tangle_relation(wb, s), name
                for d, rotations in diagrams:
                    base = count_colorings_bruteforce(d, s).count
                    for rotated in rotations:
                        assert count_colorings_bruteforce(rotated, s).count == base
        totals.append(count)
    assert totals == [1, 2, 10, 198, 16392]
    _finish(6, "move equalities and rotation invariance over the census", start, 60)


def test_criterion_7_bundled_candidate_adjudication(capsys):
    start = time.perf_counter()
    path = REPO / "data" / "five_element_candidate.tables"

    first = cli_main(["check", str(path), "--one-indexed"])
    out_first = capsys.readouterr()
    second = cli_main(["check", str(path), "--one-indexed"])
    out_second = capsys.readouterr()
    assert first == second == 1
    assert out_first == out_second
    assert "riva: FAIL at (0, 0, 1): 4 != 1" in out_first.out

    s = parse_tables(path.read_text(), one_indexed=True)
    lhs, rhs = evaluate_axiom(s, "riva", (0, 0, 1))
    # hand computation, in the file's 1-indexed labels: left side 5, right 2
    assert (lhs + 1, rhs + 1) == (5, 2)
    assert lhs != rhs

    readme = (REPO / "README.md").read_text()
    assert "five_element_candidate" in readme
    assert "riva" in readme
    _finish(7, "bundled candidate adjudicated deterministically", start, None)


def test_criterion_8_search_matches_naive_filtration():
    start = time.perf_counter()

    def listed(n):
        return [s for star in involutive_quandles(n)
                for s in singquandles_for_star(star)]

    literal = {n: literal_census(n) for n in (1, 2)}
    for n, structures in literal.items():
        assert enumerate_singquandles(n).count == len(structures)
        assert set(listed(n)) == set(structures)
    # the reorganized filtration equals the literal one where both run
    assert set(joined_census(2)) == set(literal[2])
    joined = joined_census(3)
    assert enumerate_singquandles(3).count == len(joined)
    assert set(listed(3)) == set(joined)
    _finish(8, "pruned search equals naive filtration", start, 300)
