"""Which results are memoised, and the tol check every entry point shares.

Root brackets, subsystem hull chains and thickness reports are cached per
process; covers are rebuilt on each call from cached roots.
"""

import pytest

from cantor_toolkit import (
    Bracket,
    Code,
    DomainError,
    Tail,
    basic_interval,
    cover,
    cover_sequence,
    ek_hulls,
    find_interleaved_pairs,
    gamma_j,
    local_dimension_scan,
    solve_lambda,
    tau_estimate,
    theta_sequence,
)
from cantor_toolkit import exact_arith, thickness
from cantor_toolkit._rat import Q

X, Y = Q(1, 2), Q(2, 5)
CENTER = Bracket(Q(1, 2), Q(1, 2), Code(2, (), Tail.TRUNCATED), X)

ENTRY_POINTS = {
    "solve_lambda": lambda tol: solve_lambda(X, Code(2, (1, 1)), tol),
    "cover": lambda tol: cover(X, 2, 3, tol),
    "cover_sequence": lambda tol: cover_sequence(X, 2, 3, tol),
    "basic_interval": lambda tol: basic_interval(X, 2, (1, 1), tol),
    "ek_hulls": lambda tol: ek_hulls(X, 2, 2, tol),
    "tau_estimate": lambda tol: tau_estimate(X, 2, 1, 1, tol),
    "theta_sequence": lambda tol: theta_sequence(X, 2, 2, tol),
    "find_interleaved_pairs": lambda tol: find_interleaved_pairs(X, Y, 2, 2, 1, tol),
    "gamma_j": lambda tol: gamma_j(X, 2, 2, tol),
    "local_dimension_scan": lambda tol: local_dimension_scan(
        X, 2, CENTER, [Q(1, 8)], 3, 4, tol
    ),
}


@pytest.mark.parametrize("tol", [Q(0), Q(-1, 2)], ids=["zero", "negative"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_non_positive_tol_rejected(name, tol):
    with pytest.raises(DomainError, match="tol must be positive"):
        ENTRY_POINTS[name](tol)


def test_cover_is_rebuilt_from_cached_roots():
    tol = Q(1, 2**40)
    exact_arith._solve_cached.cache_clear()
    first = cover(X, 2, 10, tol)
    assert exact_arith._solve_cached.cache_info().misses == 1024
    second = cover(X, 2, 10, tol)
    assert exact_arith._solve_cached.cache_info().misses == 1024
    assert second == first


def test_interleave_search_reuses_thickness_reports(monkeypatch):
    tol = Q(1, 2**45)
    for k in (1, 2, 3):
        tau_estimate(X, 2, k, 2, tol)
    real = thickness._tau_report_cached
    lookups = []

    def spy(*key):
        misses = real.cache_info().misses
        report = real(*key)
        lookups.append((key, real.cache_info().misses - misses))
        return report

    monkeypatch.setattr(thickness, "_tau_report_cached", spy)
    pairs = find_interleaved_pairs(X, Y, 2, 3, 2, tol)
    assert pairs
    of_x = [missed for key, missed in lookups if key[0].x == X]
    assert of_x and not any(of_x)


def test_interleave_search_builds_one_hull_chain_per_point():
    # reports are keyed on the search's own subsystems, so no report
    # rebuilds a shorter chain for its k
    tol = Q(1, 2**47)
    chains = thickness._ek_hulls_cached.cache_info
    misses = chains().misses
    pairs = find_interleaved_pairs(X, Y, 2, 12, 1, tol)
    assert pairs
    assert chains().misses - misses == 2
