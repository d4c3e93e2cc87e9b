"""Certified construction and analysis of the parameter sets
Lambda(x) = {lam in (0, 1/m] : x lies in the self-similar set K(lam)}
of the digit-series Cantor family, at exact-rational precision.
"""

from ._rat import Q, dec_str, dec_to_rational, rat_str, to_rational
from .coding import (
    GreedyExpansion,
    MembershipResult,
    Verdict,
    greedy_expansion,
    lex_compare,
    membership,
    unique_coding,
)
from .dimension import (
    DimensionEstimate,
    LocalDimensionPoint,
    ZeroRunCount,
    box_dimension,
    dim_lower_formula,
    dim_lower_formula_bounds,
    dimension_of_parameter,
    gamma_j,
    local_dimension_scan,
    sft_count,
)
from .errors import (
    CantorToolkitError,
    DomainError,
    EmptyWindowError,
    HullViolationError,
    NoRootError,
    NotAdmissibleError,
    PrecisionExhaustedError,
)
from .exact_arith import (
    DEFAULT_TOL,
    Bracket,
    Code,
    Ordering,
    Tail,
    compare_bracket_values,
    compare_brackets,
    eval_pi,
    refine,
    solve_lambda,
)
from .lambda_set import (
    BasicInterval,
    CoverLevel,
    admissible_words,
    basic_interval,
    cover,
    cover_sequence,
    hull_of,
    is_admissible,
)
from .thickness import (
    EkSystem,
    InterleavePair,
    IntersectionReport,
    ThetaEntry,
    ThicknessReport,
    certify_expansion_separation,
    certify_gap_width_bound,
    certify_interval_width_bound,
    dim_lower_from_tau,
    ek_basic_interval,
    ek_hulls,
    ek_system,
    find_interleaved_pairs,
    intersection_report,
    meets_thickness_threshold,
    reverify_pair,
    size_ratio_bound,
    tau_estimate,
    theta_sequence,
)

__version__ = "0.1.0"
