"""Computer algebra for the free bicommutative algebra.

The package models the free algebra satisfying left and right
commutativity, its monomial orders, finitely generated and
substitution-closed ideals with bounded-window decision procedures, and
identity checking on finite-dimensional structure algebras.
"""

from .algebra import (
    BicommElement,
    graded_dimension,
    multilinear_dimension,
    normalize,
    normalize_term,
    parse_element,
)
from .errors import BicommError
from .ideals import (
    GroebnerBasis,
    MembershipResult,
    TwoSidedPresentation,
    buchberger,
    chain_stabilization,
    left_ideal_member,
    poly_normal_form,
    right_ideal_member,
    two_sided_member,
)
from .monomials import Monomial, parse_monomial
from .orders import (
    higman_leq,
    higman_relation,
    minimal_antichain,
    weight_compare,
    weight_key,
    weight_of,
)
from .polynomials import Poly
from .scalars import Field
from .structalg import (
    CheckResult,
    StructureAlgebra,
    check_bicommutative,
    check_identity,
    evaluate_polynomial,
    witt_truncated,
)
from .terms import Leaf, NAPolynomial, Node, parse_expression, print_term
from .tideals import (
    ClosureWindow,
    SpechtSearchResult,
    Substitution,
    TIdealSpan,
    apply_substitution,
    char_zero_two_variable_heuristic,
    lift_weight,
    specht_basis_search,
    specht_reduce,
    spanning_shift_multiples,
    t_ideal_closure_bounded,
    t_ideal_member_bounded,
)

__all__ = [
    "BicommElement",
    "BicommError",
    "CheckResult",
    "ClosureWindow",
    "Field",
    "GroebnerBasis",
    "Leaf",
    "MembershipResult",
    "Monomial",
    "NAPolynomial",
    "Node",
    "Poly",
    "SpechtSearchResult",
    "StructureAlgebra",
    "Substitution",
    "TIdealSpan",
    "TwoSidedPresentation",
    "apply_substitution",
    "buchberger",
    "chain_stabilization",
    "char_zero_two_variable_heuristic",
    "check_bicommutative",
    "check_identity",
    "evaluate_polynomial",
    "graded_dimension",
    "higman_leq",
    "higman_relation",
    "left_ideal_member",
    "lift_weight",
    "minimal_antichain",
    "multilinear_dimension",
    "normalize",
    "normalize_term",
    "parse_element",
    "parse_expression",
    "parse_monomial",
    "poly_normal_form",
    "print_term",
    "right_ideal_member",
    "spanning_shift_multiples",
    "specht_basis_search",
    "specht_reduce",
    "t_ideal_closure_bounded",
    "t_ideal_member_bounded",
    "two_sided_member",
    "weight_compare",
    "weight_key",
    "weight_of",
    "witt_truncated",
]

__version__ = "0.1.0"
