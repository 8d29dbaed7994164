"""Exact lifted descriptions and slack-matrix factorizations of cyclic polytopes.

Everything is exact: integers and fractions.Fraction throughout, no floats.
The headline objects are factorize(n, d), whose rank stays within
2 * (2*floor(log2(n-1)) + 2)**(d//2), and build_ef_2d(n), a lifted LP
description of the degree-2 polytope with at most 2*floor(log2(n-1)) + 2
inequalities.
"""

from .errors import DomainError, InternalError
from .exact_lp import (
    MAX,
    MIN,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LPResult,
    ReoptimizingSolver,
    certify,
    independent_equations,
    solve,
)
from .factorization import (
    NonnegFactorization,
    VerificationReport,
    construction_rank,
    even_rank_bound,
    factorize,
    factorize_2d,
    factorize_even,
    factorize_odd,
    hadamard_combine,
    rank_bound,
    size_bound_2d,
    trivial_factorization,
    trivial_wins,
    verify,
)
from .geometry import (
    CyclicPolytope,
    FacetInequality,
    GaleSet,
    Interval,
    SlackMatrix,
    enumerate_facets,
    facet_count,
    facet_inequality,
    facet_pairs,
    format_linear,
    is_gale,
    slack_matrix,
    vertex,
)
from .lifting import (
    EfOptimizer,
    ExtendedFormulation,
    Polyhedron,
    build_ef_2d,
    ef_from_factorization,
    ef_to_json_dict,
    ef_to_text,
    factorization_from_ef,
    hull_ef,
    lift_objective,
)
from .rational import format_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
    "CyclicPolytope",
    "DomainError",
    "EfOptimizer",
    "ExtendedFormulation",
    "FacetInequality",
    "GaleSet",
    "InternalError",
    "Interval",
    "LPResult",
    "LinearProgram",
    "MAX",
    "MIN",
    "NonnegFactorization",
    "OPTIMAL",
    "Polyhedron",
    "ReoptimizingSolver",
    "SlackMatrix",
    "UNBOUNDED",
    "VerificationReport",
    "build_ef_2d",
    "certify",
    "construction_rank",
    "ef_from_factorization",
    "ef_to_json_dict",
    "ef_to_text",
    "enumerate_facets",
    "even_rank_bound",
    "facet_count",
    "facet_inequality",
    "facet_pairs",
    "factorization_from_ef",
    "factorize",
    "factorize_2d",
    "factorize_even",
    "factorize_odd",
    "format_linear",
    "format_rational",
    "hadamard_combine",
    "hull_ef",
    "independent_equations",
    "is_gale",
    "lift_objective",
    "parse_rational",
    "rank_bound",
    "size_bound_2d",
    "slack_matrix",
    "solve",
    "trivial_factorization",
    "trivial_wins",
    "verify",
    "vertex",
]
