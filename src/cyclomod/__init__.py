"""Exact decomposition of cyclic modules over finitely generated algebras.

The pipeline: a weighted-automaton covering tree turns one generating
vector into a basis (wfa, modules), the commutant of the restricted
action is solved exactly (endo), and Fitting and minimal-polynomial
splittings are searched until every summand carries an
indecomposability certificate or an honest "undecided" (decompose).
Front ends cover boolean functions under the symmetric group in
characteristic 2 (boolfn) and permutation modules in characteristic 0
(perms).
"""

from .boolfn import (
    MAX_VARIABLES,
    BooleanFunction,
    ParseError,
    decompose_boolean,
    monomial_name,
    monomial_names,
    parse_anf,
    sn_action,
)
from .decompose import (
    DecompositionReport,
    check_report,
    complete_decomposition,
    decompose_once,
)
from .endo import (
    Certificate,
    EndoAlgebra,
    compute_end,
    find_splitting_element,
    verify_certificate,
)
from .fields import GF2, QQ, FieldScalar, FieldSpec, gf
from .linalg import DenseMatrix, SpanSolver, rref
from .modules import (
    ActionGraph,
    AlgebraAction,
    CyclicModule,
    action_graph,
    orbit_basis,
)
from .perms import (
    PermutationPresentation,
    left_translation_action,
    permutation_module,
    symmetric_group,
)
from .polynomials import Polynomial, factor
from .serialize import (
    FormatError,
    automaton_from_json,
    automaton_to_json,
    graph_to_dot,
    presentation_from_json,
    report_to_json,
    to_text,
)
from .wfa import (
    PrefixBasis,
    WeightedAutomaton,
    direct_sum,
    equivalent,
    left_reduce,
    minimize,
    right_reduce,
    scale,
)

__all__ = [
    "GF2",
    "QQ",
    "FieldScalar",
    "FieldSpec",
    "gf",
    "DenseMatrix",
    "SpanSolver",
    "rref",
    "Polynomial",
    "factor",
    "PrefixBasis",
    "WeightedAutomaton",
    "direct_sum",
    "equivalent",
    "left_reduce",
    "minimize",
    "right_reduce",
    "scale",
    "ActionGraph",
    "AlgebraAction",
    "CyclicModule",
    "action_graph",
    "orbit_basis",
    "Certificate",
    "EndoAlgebra",
    "compute_end",
    "find_splitting_element",
    "verify_certificate",
    "DecompositionReport",
    "check_report",
    "complete_decomposition",
    "decompose_once",
    "MAX_VARIABLES",
    "BooleanFunction",
    "ParseError",
    "decompose_boolean",
    "monomial_name",
    "monomial_names",
    "parse_anf",
    "sn_action",
    "PermutationPresentation",
    "left_translation_action",
    "permutation_module",
    "symmetric_group",
    "FormatError",
    "automaton_from_json",
    "automaton_to_json",
    "graph_to_dot",
    "presentation_from_json",
    "report_to_json",
    "to_text",
]
