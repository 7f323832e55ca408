from __future__ import annotations

import pytest

from singquandles import (
    MOVE_AXIOMS,
    ROTATION_AXIOMS,
    TABLE_AXIOMS,
    OpTable,
    Singquandle,
    check_all,
    check_table,
    evaluate_axiom,
    make_dihedral_quandle,
    make_trivial_quandle,
    parse_tables,
)

FULL_ORDER = (
    "right-bijective", "self-distributive", "idempotent", "involutive",
    "rotation-x-via-r1", "rotation-x-via-r2", "rotation-y-via-r2",
    "rotation-y-via-r1", "rotation-outputs",
    "riva", "rv-r1", "rv-r2", "rivb-r1", "rivb-r2",
)


def test_axiom_registries():
    assert set(TABLE_AXIOMS) == set(FULL_ORDER[:4])
    assert set(ROTATION_AXIOMS) == set(FULL_ORDER[4:9])
    assert set(MOVE_AXIOMS) == set(FULL_ORDER[9:])
    arities = {name: arity for name, (arity, _) in
               {**TABLE_AXIOMS, **ROTATION_AXIOMS, **MOVE_AXIOMS}.items()}
    assert arities["idempotent"] == 1
    assert arities["right-bijective"] == 3
    assert arities["self-distributive"] == 3
    assert arities["involutive"] == 2
    assert arities["riva"] == 3
    assert arities["rivb-r1"] == 3
    assert arities["rv-r1"] == 2


def test_report_order_and_all_hold(alex543):
    report = check_all(alex543)
    assert tuple(r.axiom for r in report) == FULL_ORDER
    assert check_table(alex543.star).results == report.results[:4]
    assert report.all_hold
    assert report.failures() == ()
    assert report.result("riva").holds
    with pytest.raises(KeyError):
        report.result("no-such-axiom")


def test_quandle_axioms_hand_instances():
    d = make_dihedral_quandle(3)
    # (x*y)*z and (x*z)*(y*z) at (1, 2, 0): both reflect to the same color
    lhs, rhs = evaluate_axiom(d, "self-distributive", (1, 2, 0))
    assert lhs == (2 * 0 - (2 * 2 - 1)) % 3
    assert rhs == ((2 * ((2 * 0 - 2) % 3)) - ((2 * 0 - 1) % 3)) % 3
    assert lhs == rhs
    assert evaluate_axiom(d, "idempotent", (2,)) == (2, 2)
    assert evaluate_axiom(d, "involutive", (1, 0)) == (1, 1)


def test_right_bijective_is_a_biconditional():
    # x != y with x*z == y*z must fail, not just injectivity on equal pairs
    t = OpTable(((0, 0), (0, 1)))
    result = check_table(t).result("right-bijective")
    assert not result.holds
    assert result.witness == (0, 1, 0)
    assert result.lhs is False and result.rhs is True


def test_involutive_failure_witness():
    # x*y = 2x + 4y mod 5 is a quandle operation that is not involutive
    t = OpTable(tuple(tuple((2 * x + 4 * y) % 5 for y in range(5))
                      for x in range(5)))
    report = check_table(t)
    assert [r.axiom for r in report.failures()] == ["involutive"]
    assert report.result("involutive").witness == (0, 1)
    lhs, rhs = evaluate_axiom(t, "involutive", (0, 1))
    assert (lhs, rhs) == ((2 * ((2 * 0 + 4 * 1) % 5) + 4 * 1) % 5, 0)


def test_witness_is_lexicographically_first():
    # break idempotence at 1 and 2; the scan must report 1
    t = OpTable(((0, 0, 0), (2, 2, 2), (1, 1, 1)))
    result = check_table(t).result("idempotent")
    assert result.witness == (1,)


def test_predicates_on_quandles():
    for n in (1, 2, 3, 4, 5):
        assert check_table(make_trivial_quandle(n)).all_hold
        assert check_table(make_dihedral_quandle(n)).all_hold
    # swapping the two colors is a rack (and involutive), but not idempotent
    report = check_table(OpTable(((1, 1), (0, 0))))
    assert [r.axiom for r in report.failures()] == ["idempotent"]


def test_rotation_axioms_hold_for_linear_family(alex543, alex1094):
    for s in (alex543, alex1094):
        report = check_all(s)
        assert all(report.result(name).holds
                   for name in (*ROTATION_AXIOMS, *MOVE_AXIOMS))
        assert report.all_hold


def test_rotation_axiom_hand_instance(alex543):
    # r1 = 4x + 2y, r2 = 3x + 3y mod 5; feeding (r1, r2) back after a
    # quarter turn must return the inputs
    lhs, rhs = evaluate_axiom(alex543, "rotation-y-via-r2", (1, 2))
    r1 = (4 * 1 + 2 * 2) % 5
    assert lhs == (3 * r1 + 3 * 1) % 5
    assert rhs == 2
    pair = evaluate_axiom(alex543, "rotation-outputs", (1, 2))
    assert pair[0] == pair[1] == ((4 * 1 + 2 * 2) % 5, (3 * 1 + 3 * 2) % 5)


def test_evaluate_axiom_needs_full_structure():
    with pytest.raises(ValueError):
        evaluate_axiom(make_dihedral_quandle(3), "riva", (0, 0, 1))
    with pytest.raises(KeyError):
        evaluate_axiom(make_dihedral_quandle(3), "no-such-axiom", (0,))


def test_table_axioms_accept_triple_or_table(alex543):
    assert evaluate_axiom(alex543, "idempotent", (3,)) == (3, 3)
    assert evaluate_axiom(alex543.star, "idempotent", (3,)) == (3, 3)


def test_five_element_candidate_fails_riva(data_dir):
    """The bundled order-5 candidate is a quandle but not a singquandle.

    The pinned hand computation is the riva instance at (x, y, z) =
    (0, 0, 1): the left side is (0*1) * r2(0,1) = 2*3 = 4 and the right
    side is (0*0) * r1(0,1) = 0*3 = 1, a violation.
    """
    s = parse_tables((data_dir / "five_element_candidate.tables").read_text(),
                     one_indexed=True)
    assert isinstance(s, Singquandle)
    assert check_table(s.star).all_hold
    report = check_all(s)
    assert not report.all_hold
    # the star table is fine; the rotation identities and three of the five
    # move axioms break
    assert [r.axiom for r in report.failures()] == [
        "rotation-x-via-r1", "rotation-x-via-r2", "rotation-y-via-r2",
        "rotation-y-via-r1", "rotation-outputs", "riva", "rv-r1", "rv-r2",
    ]
    riva = report.result("riva")
    assert riva.witness == (0, 0, 1)
    assert (riva.lhs, riva.rhs) == (4, 1)
    assert evaluate_axiom(s, "riva", (0, 0, 1)) == (4, 1)
