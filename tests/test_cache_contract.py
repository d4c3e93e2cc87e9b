"""Which results are memoised, and the tol check every entry point shares.

Root brackets and subsystem hull chains are cached per process, each
because a test below shows it reused; covers are rebuilt on each call from
cached roots, and thickness reports are built per call, each subsystem's
at most once within one interleave search.  A subsystem carries the tol
its chain was built at, so `tau_report` takes none: its tol is checked
where the subsystem is built.
"""

import collections
import sys
import threading

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
    ek_system,
    find_interleaved_pairs,
    gamma_j,
    local_dimension_scan,
    solve_lambda,
    tau_estimate,
    theta_sequence,
)
from cantor_toolkit import cli, exact_arith, thickness
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
    "tau_report": lambda tol: thickness.tau_report(ek_system(X, 2, 1, tol), 1),
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


def counted(monkeypatch, owner, name, calls):
    """Replace `owner.name` by a spy counting its calls in `calls[name]`."""
    real = getattr(owner, name)

    def spy(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, spy)


def test_cover_is_rebuilt_from_cached_roots():
    tol = Q(1, 2**40)
    exact_arith._bracket.cache_clear()
    first = cover(X, 2, 10, tol)
    assert exact_arith._bracket.cache_info().misses == 1024
    second = cover(X, 2, 10, tol)
    assert exact_arith._bracket.cache_info().misses == 1024
    assert second == first


def test_deep_cover_sequence_solves_each_code_once():
    # 19,669 codes (the greedy spine's rootless ones included), past 2^13,
    # all in one bound shared by every grid: none is solved twice
    exact_arith._bracket.cache_clear()
    first = cover_sequence(Y, 2, 14)
    assert exact_arith._bracket.cache_info().misses == 19669
    assert cover_sequence(Y, 2, 14) == first
    assert exact_arith._bracket.cache_info().misses == 19669


def test_threads_sharing_a_cold_grid_build_the_same_cover():
    # a race may solve a code twice, but every thread must still see the
    # single-threaded brackets
    tol = Q(1, 2**40)
    exact_arith._bracket.cache_clear()
    expected = cover(X, 2, 8, tol)
    exact_arith._bracket.cache_clear()
    results, errors = [], []

    def work():
        try:
            for _ in range(3):
                results.append(cover(X, 2, 8, tol))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 18 and all(r == expected for r in results)
    assert exact_arith._bracket.cache_info().currsize == 2 * len(expected.intervals)


def test_interleave_search_builds_each_report_once(monkeypatch):
    tol = Q(1, 2**45)
    real = thickness.tau_report
    built = []

    def spy(system, depth):
        built.append((system.x, system.k))
        return real(system, depth)

    monkeypatch.setattr(thickness, "tau_report", spy)
    pairs = find_interleaved_pairs(X, Y, 2, 3, 2, tol)
    assert pairs
    assert len(built) == len(set(built))
    assert set(built) == {(X, p.i) for p in pairs} | {(Y, p.j) for p in pairs}


def test_interleave_search_builds_one_hull_chain_per_point():
    # reports are keyed on the search's own subsystems, so no report
    # rebuilds a shorter chain for its k
    tol = Q(1, 2**47)
    chains = thickness._ek_hulls_cached.cache_info
    misses = chains().misses
    pairs = find_interleaved_pairs(X, Y, 2, 12, 1, tol)
    assert pairs
    assert chains().misses - misses == 2


@pytest.mark.parametrize(
    "argv, chains, reports, sign_tests",
    [
        ("thickness --m 2 --x 1/2 --kmax 6 --depth 3", 1, 6, 190),
        ("intersect --m 2 --x 1/2 --y 2/5 --kmax 12", 2, 17, 4377),
    ],
    ids=["thickness", "intersect"],
)
def test_readme_command_builds_one_hull_chain_per_point(
    argv, chains, reports, sign_tests, monkeypatch, capsys
):
    # cold roots and chains, so the sign tests are the command's whole work
    exact_arith._bracket.cache_clear()
    thickness._ek_hulls_cached.cache_clear()
    calls = collections.Counter()
    for module, name in ((exact_arith, "_sign"), (thickness, "tau_report")):
        counted(monkeypatch, module, name, calls)
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().err == ""
    assert thickness._ek_hulls_cached.cache_info().misses == chains
    assert calls == {"tau_report": reports, "_sign": sign_tests}
