"""Coloring-count invariants of singular links by involutive singquandles.

The package models finite involutive singquandles (a quandle operation plus
two singular-crossing output maps), checks their defining axioms, builds the
linear family over Z_n, parses and generates singular link diagrams, counts
colorings by a depth-first search for any tables or by exact modular
linear algebra for the linear family, and
exhaustively enumerates structures of small order.
"""

from .alexander import AlexanderParams, build_tables, find_params
from .axioms import MOVE_AXIOMS, ROTATION_AXIOMS, TABLE_AXIOMS
from .axioms import (AxiomReport, AxiomResult, check_all, check_table,
                     evaluate_axiom)
from .coloring import (BACKEND_BRUTE, BACKEND_LINEAR, DEFAULT_LIST_CAP,
                       ColoringReport, Verdict, count_colorings_bruteforce,
                       count_colorings_linear, distinguish, fig8_system_count,
                       serialize_report)
from .diagrams import (Classical, DiagramParseError, Singular,
                       SingularDiagram, gen_fig9_left, gen_fig9_right,
                       parse_diagram, rotate_singular, serialize_diagram)
from .enumeration import (MAX_ORDER, Census, canonical_form,
                          derive_r2, enumerate_singquandles,
                          involutive_quandles, is_isomorphic, relabel,
                          serialize_census, singquandles_for_star)
from .smith import kernel_count_mod, kernel_vectors_mod
from .tables import (OpTable, Singquandle, TableParseError,
                     make_dihedral_quandle, make_trivial_quandle,
                     parse_tables, serialize_tables)
from .tangles import (KIND_CLASSICAL, KIND_SINGULAR, Letter,
                      TangleRelation, TangleWord, braid_closure,
                      move_word_pairs, parse_word, sigma, tangle_relation,
                      tau)

__version__ = "0.1.0"

__all__ = [
    "BACKEND_BRUTE", "BACKEND_LINEAR", "DEFAULT_LIST_CAP",
    "KIND_CLASSICAL", "KIND_SINGULAR", "MAX_ORDER", "MOVE_AXIOMS",
    "ROTATION_AXIOMS", "TABLE_AXIOMS",
    "AlexanderParams", "AxiomReport", "AxiomResult", "Census", "Classical",
    "ColoringReport", "DiagramParseError", "Letter", "OpTable", "Singquandle",
    "Singular", "SingularDiagram", "TableParseError", "TangleRelation",
    "TangleWord", "Verdict",
    "braid_closure", "build_tables", "canonical_form", "check_all",
    "check_table", "count_colorings_bruteforce", "count_colorings_linear",
    "derive_r2", "distinguish", "enumerate_singquandles", "evaluate_axiom",
    "fig8_system_count", "find_params", "gen_fig9_left", "gen_fig9_right",
    "involutive_quandles", "is_isomorphic", "kernel_count_mod",
    "kernel_vectors_mod", "make_dihedral_quandle", "make_trivial_quandle",
    "move_word_pairs", "parse_diagram", "parse_tables", "parse_word",
    "relabel", "rotate_singular", "serialize_census", "serialize_diagram",
    "serialize_report", "serialize_tables", "sigma", "singquandles_for_star",
    "tangle_relation", "tau",
]
