"""Certified construction and analysis of the parameter sets
Lambda(x) = {lam in (0, 1/m] : x lies in the self-similar set K(lam)}
of the digit-series Cantor family, at exact-rational precision.

Submodules load on first use (PEP 562): ``import cantor_toolkit`` imports
none of them, and reading an exported name imports only the submodule
that defines it, so a cover never loads ``thickness`` or ``dimension``.
"""

import importlib

__version__ = "0.1.0"

# The public namespace: each submodule and the names it exports.
_EXPORTS = {
    "_rat": ("Q", "dec_str", "dec_to_rational", "rat_str", "to_rational"),
    "coding": (
        "GreedyExpansion",
        "MembershipResult",
        "Verdict",
        "greedy_expansion",
        "membership",
        "unique_coding",
    ),
    "dimension": (
        "DimensionEstimate",
        "LocalDimensionPoint",
        "ZeroRunCount",
        "box_dimension",
        "dim_lower_formula",
        "dim_lower_formula_bounds",
        "dimension_of_parameter",
        "gamma_j",
        "local_dimension_scan",
        "sft_count",
    ),
    "errors": (
        "CantorToolkitError",
        "DomainError",
        "EmptyWindowError",
        "HullViolationError",
        "NoRootError",
        "NotAdmissibleError",
        "PrecisionExhaustedError",
    ),
    "exact_arith": (
        "DEFAULT_TOL",
        "Bracket",
        "Code",
        "Ordering",
        "Tail",
        "compare_brackets",
        "eval_pi",
        "refine",
        "solve_lambda",
    ),
    "lambda_set": (
        "BasicInterval",
        "CoverLevel",
        "admissible_words",
        "basic_interval",
        "cover",
        "cover_sequence",
        "hull_of",
        "is_admissible",
    ),
    "thickness": (
        "EkSystem",
        "InterleavePair",
        "IntersectionReport",
        "ThetaEntry",
        "ThicknessReport",
        "certify_expansion_separation",
        "certify_gap_width_bound",
        "certify_interval_width_bound",
        "dim_lower_from_tau",
        "ek_basic_interval",
        "ek_hulls",
        "ek_system",
        "find_interleaved_pairs",
        "intersection_report",
        "meets_thickness_threshold",
        "reverify_pair",
        "size_ratio_bound",
        "tau_estimate",
        "theta_sequence",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value  # later lookups are plain attribute hits
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
