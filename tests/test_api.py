"""The public API is pinned: a new export, or one brought back, must be added
here on purpose."""

from __future__ import annotations

import dataclasses

import singquandles

EXPORTS = [
    "AlexanderParams", "AxiomReport", "AxiomResult", "BACKEND_BRUTE",
    "BACKEND_LINEAR", "Census", "Classical", "ColoringReport",
    "DEFAULT_LIST_CAP", "DiagramParseError", "KIND_CLASSICAL",
    "KIND_SINGULAR", "Letter", "MAX_ORDER", "MOVE_AXIOMS", "OpTable",
    "ROTATION_AXIOMS", "Singquandle", "Singular", "SingularDiagram",
    "TABLE_AXIOMS", "TableParseError", "TangleRelation", "TangleWord",
    "Verdict", "braid_closure", "build_tables", "canonical_form",
    "check_all", "check_table", "count_colorings_bruteforce",
    "count_colorings_linear", "derive_r2", "distinguish",
    "enumerate_singquandles", "evaluate_axiom", "fig8_system_count",
    "find_params", "gen_fig9_left", "gen_fig9_right", "involutive_quandles",
    "is_isomorphic", "kernel_count_mod", "kernel_vectors_mod",
    "make_dihedral_quandle", "make_trivial_quandle", "move_word_pairs",
    "parse_diagram", "parse_tables", "parse_word", "relabel",
    "rotate_singular", "serialize_census", "serialize_diagram",
    "serialize_report", "serialize_tables", "sigma", "singquandles_for_star",
    "tangle_relation", "tau",
]

# names deleted from the package, each with what replaced it
REMOVED = [
    "LinearOps",                 # AlexanderParams.coefficients
    "ModularSystem",             # coloring._congruence_rows
    "verify_proposition",        # check_all(build_tables(p))
    "check_quandle",             # check_table
    "check_involutive",          # check_table
    "check_rotation_axioms",     # check_all
    "check_singquandle_axioms",  # check_all
    "is_rack", "is_quandle", "is_involutive",   # check_table(t).all_hold
    "is_verified",               # check_all(s).all_hold
    "is_connected",
    "letter_matrix", "word_matrix",
]


def test_exports_are_pinned():
    assert EXPORTS == sorted(EXPORTS) and len(EXPORTS) == 60
    assert sorted(singquandles.__all__) == EXPORTS
    assert len(set(singquandles.__all__)) == len(singquandles.__all__)
    for name in EXPORTS:
        assert hasattr(singquandles, name), name


def test_removed_names_and_members_stay_removed():
    for name in REMOVED:
        assert not hasattr(singquandles, name), name
    for owner, member in [(singquandles.TangleRelation, "identity"),
                          (singquandles.TangleRelation, "then"),
                          (singquandles.TangleRelation, "converse"),
                          (singquandles.TangleRelation, "is_identity"),
                          (singquandles.OpTable, "column"),
                          (singquandles.SingularDiagram, "classical_count")]:
        assert not hasattr(owner, member), (owner.__name__, member)
    fields = [f.name for f in dataclasses.fields(singquandles.Census)]
    assert fields == ["order", "count", "structures"]
