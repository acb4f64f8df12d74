"""Exact arithmetic for balancing-type sequences and generalized Pell equations."""

from .quadarith import (
    ContinuedFraction,
    QuadInt,
    fundamental_unit,
    is_perfect_square,
    isqrt,
    quad_conj,
    quad_mul,
    quad_norm,
    quad_pow,
    sqrt_continued_fraction,
    tau,
    tau_rho_coords,
)
from .sequences import (
    BalancerKind,
    KIND_BY_NAME,
    MEMBERSHIP_KINDS,
    SequenceKind,
    WITNESS_KIND,
    balancer,
    definitional_check,
    is_member,
    term,
    term_binet,
    terms,
)
from .pellsolver import (
    OrbitMatrix,
    QuadraticForm,
    Solution,
    brute_force_solutions,
    orbit_matrix,
    rep_bound,
    representatives,
    solutions,
)
from .verifier import (
    CATALOG,
    CATALOG_COUNTS,
    GROUPS,
    SequenceValues,
    VerificationReport,
    reports_to_jsonl,
    verify,
    verify_all,
    verify_group,
    verify_solution_sets,
)

__version__ = "0.1.0"
