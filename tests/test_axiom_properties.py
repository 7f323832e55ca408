"""check_all against the per-instance definition of each axiom, on random
tables and on one-entry mutants of census structures."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from singquandles import (
    AlexanderParams,
    OpTable,
    Singquandle,
    build_tables,
    check_all,
    evaluate_axiom,
    find_params,
    involutive_quandles,
    singquandles_for_star,
)
from helpers import AXIOM_INSTANCES, first_failing_instance

SETTINGS = settings(max_examples=300, deadline=None, database=None)

CENSUS = ([s for n in range(1, 5) for star in involutive_quandles(n)
           for s in singquandles_for_star(star)]
          + [build_tables(p) for p in find_params(5)])


def structure(n, flat):
    """Three order-n tables from 3n^2 entries, row by row."""
    return Singquandle(*(OpTable(tuple(tuple(flat[t + x * n:t + (x + 1) * n])
                                       for x in range(n)))
                         for t in range(0, 3 * n * n, n * n)))


def assert_matches_instances(s):
    report = check_all(s)
    assert [r.axiom for r in report] == list(AXIOM_INSTANCES)
    for r in report:
        first = first_failing_instance(s, r.axiom)
        assert r.holds == (first is None), r.axiom
        assert r.witness == first, r.axiom
        if first is None:
            assert (r.lhs, r.rhs) == (None, None)
        else:
            assert r.lhs != r.rhs
            assert evaluate_axiom(s, r.axiom, first) == (r.lhs, r.rhs)


random_structures = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=3 * n * n,
                       max_size=3 * n * n).map(lambda flat: structure(n, flat)))


@st.composite
def census_mutants(draw):
    s = draw(st.sampled_from(CENSUS))
    n = s.order
    flat = [v for t in (s.star, s.r1, s.r2) for row in t.rows for v in row]
    i = draw(st.integers(0, len(flat) - 1))
    flat[i] = (flat[i] + draw(st.integers(0, n - 1))) % n
    return structure(n, flat)


@SETTINGS
@given(random_structures)
def test_check_all_matches_instances_on_random_tables(s):
    assert_matches_instances(s)


@SETTINGS
@given(census_mutants())
def test_check_all_matches_instances_on_census_mutants(s):
    assert_matches_instances(s)


def test_census_and_linear_structures_pass_every_instance():
    for s in CENSUS + [build_tables(AlexanderParams(10, 9, 4))]:
        assert_matches_instances(s)
        assert check_all(s).all_hold
