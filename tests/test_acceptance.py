"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured evidence (run with -s to watch them stream).
"""

import itertools
import math
import random
import time

import pytest

from cantor_toolkit import (
    GreedyExpansion,
    Ordering,
    Verdict,
    admissible_words,
    certify_expansion_separation,
    certify_gap_width_bound,
    certify_interval_width_bound,
    compare_brackets,
    cover,
    ek_basic_interval,
    ek_hulls,
    eval_pi,
    find_interleaved_pairs,
    hull_of,
    intersection_report,
    local_dimension_scan,
    meets_thickness_threshold,
    membership,
    reverify_pair,
    sft_count,
    size_ratio_bound,
    solve_lambda,
    tau_estimate,
    theta_sequence,
)
from cantor_toolkit.exact_arith import Bracket, Code, Tail
from cantor_toolkit._rat import Q

from oracles import count_words_without_zero_run, membership_oracle

HALF = Q(1, 2)
TOL40 = Q(1, 2**40)

FIGURE_COMBOS = [(HALF, 2), (Q(1, 3), 2), (Q(3, 7), 2), (HALF, 3), (Q(1, 3), 3), (Q(3, 7), 3)]

PRINTED_ENDPOINTS = [
    0.366025, 0.396608, 0.342508, 0.352201, 0.423854, 0.435958, 0.336197,
    0.339163, 0.356635, 0.36051, 0.405946, 0.410811, 0.456553, 0.461249,
]


def report(number, message):
    print("PASS criterion %d: %s" % (number, message))


# ---------------------------------------------------------------------------
# shared expensive data


@pytest.fixture(scope="module")
def hull_chains():
    """First 20 subsystem hulls per point/alphabet combination, with the
    wall-clock cost of building them (charged to criterion 4's budget)."""
    start = time.monotonic()
    chains = {(x, m): ek_hulls(x, m, 20, TOL40) for x, m in FIGURE_COMBOS}
    return chains, time.monotonic() - start


@pytest.fixture(scope="module")
def sibling_pair_data():
    """Depth-3 sibling interval pairs of every subsystem the thickness
    divergence criterion touches (k = 1..12 of x = 1/2)."""
    data = []
    for system in ek_hulls(HALF, 2, 12, TOL40):
        for n in (1, 2, 3):
            for head in itertools.product(range(2), repeat=n - 1):
                w = head + (0,)
                w_plus = head + (1,)
                data.append(
                    (
                        system,
                        ek_basic_interval(system, w_plus),
                        ek_basic_interval(system, w),
                    )
                )
    return data


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_construction_endpoint_regression():
    start = time.monotonic()
    mids = []
    for depth in (2, 3, 4):
        cv = cover(HALF, 2, depth, TOL40)
        for iv in cv.intervals:
            mids.extend([float(iv.left), float(iv.right)])
    for value in PRINTED_ENDPOINTS:
        assert any(abs(mid - value) <= 5e-6 for mid in mids), value
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, "depths 2-4 reproduce all %d printed endpoints within 5e-6 (%.2fs)"
           % (len(PRINTED_ENDPOINTS), elapsed))


def test_criterion_02_hull_formula_exact():
    rng = random.Random(20260809)
    checked = 0
    while checked < 50:
        m = rng.choice([2, 3, 5, 10])
        den = rng.randint(2, 400)
        num = rng.randint(1, den - 1)
        x = Q(num, den)
        depth = GreedyExpansion(x, m).first_defect
        cv = cover(x, m, depth, Q(1, 2**32))
        assert cv.hull == (x / (m - 1 + x), Q(1, m)) == hull_of(x, m)
        first, last = cv.intervals[0], cv.intervals[-1]
        assert first.left.is_exact and first.left.lo == cv.hull[0]
        assert last.right.is_exact and last.right.lo == cv.hull[1]
        checked += 1
    report(2, "hull equals [x/(m-1+x), 1/m] exactly on %d random (m, x) draws" % checked)


def test_criterion_03_admissible_word_combinatorics():
    assert admissible_words(HALF, 2, 2) == [(1, 0), (1, 1)]
    assert admissible_words(HALF, 2, 3) == [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
    for n in range(1, 9):
        expected = sorted((1,) + u for u in itertools.product(range(2), repeat=n))
        assert admissible_words(HALF, 2, n + 1) == expected
    report(3, "admissible words match the published combinatorics through length 9")


def test_criterion_04_subsystem_hull_ordering(hull_chains):
    chains, build_seconds = hull_chains
    start = time.monotonic()
    for (x, m), systems in chains.items():
        assert len(systems) == 20
        for s in systems:
            assert compare_brackets(s.hull.left, s.hull.right) is Ordering.LESS
        for a, b in zip(systems, systems[1:]):
            assert compare_brackets(a.hull.right, b.hull.left) is Ordering.LESS
    elapsed = build_seconds + (time.monotonic() - start)
    assert elapsed < 30.0
    report(4, "strict hull chains certified for 6 combos x 20 subsystems (%.2fs)" % elapsed)


def test_criterion_05_thickness_divergence():
    tau = {k: tau_estimate(HALF, 2, k, depth=3, tol=TOL40) for k in (2, 8)}
    assert tau[8].tau_empirical > tau[2].tau_empirical
    thetas = theta_sequence(HALF, 2, 9, TOL40)
    theta2, theta8 = thetas[1], thetas[7]
    assert theta2.k == 2 and theta8.k == 8
    assert theta8.theta_lo > theta2.theta_hi
    crossing = [
        k
        for k in range(1, 13)
        if meets_thickness_threshold(tau_estimate(HALF, 2, k, depth=3, tol=TOL40).tau_empirical)
    ]
    assert crossing and min(crossing) <= 12
    report(
        5,
        "tau and theta grow (k=2 -> k=8); threshold 1+sqrt(2) first crossed at k=%d"
        % min(crossing),
    )


def test_criterion_06_certified_inequality_suite(hull_chains, sibling_pair_data):
    width_checks = gap_checks = separation_sets = ratio_checks = 0
    skipped = []
    for (x, m), systems in hull_chains[0].items():
        ge = GreedyExpansion(x, m)
        ell = ge.first_nonzero
        for s in systems:
            assert certify_interval_width_bound(s.hull), (x, m, s.k)
            width_checks += 1
        for a, b in zip(systems, systems[1:]):
            if b.n_j <= ell:
                skipped.append((str(x), m, a.k))
                continue
            assert certify_gap_width_bound(a.hull, b.hull, b.n_j, ell), (x, m, a.k)
            gap_checks += 1
        endpoints = [br for s in systems for br in (s.hull.left, s.hull.right)]
        assert certify_expansion_separation(endpoints, x, m), (x, m)
        separation_sets += 1
        bound = size_ratio_bound(m, ell)
        for entry in theta_sequence(x, m, 20, TOL40):
            assert entry.size_ratio_hi < bound, (x, m, entry.k)
            ratio_checks += 1
    for system, left, right in sibling_pair_data:
        ge = GreedyExpansion(system.x, system.m)
        assert certify_interval_width_bound(left)
        assert certify_interval_width_bound(right)
        assert certify_gap_width_bound(left, right, system.n_j, ge.first_nonzero)
        width_checks += 2
        gap_checks += 1
    assert not skipped, "gap estimate hypothesis failed unexpectedly: %r" % skipped
    report(
        6,
        "certified %d width bounds, %d gap bounds, %d separation suites, %d ratio bounds"
        % (width_checks, gap_checks, separation_sets, ratio_checks),
    )


def test_criterion_07_zero_run_count_oracle():
    for m in (2, 3):
        for k in (1, 2, 3):
            for n in range(1, 13):
                assert sft_count(m, k, n).count == count_words_without_zero_run(m, k, n)
    growth = sft_count(2, 2, 24).growth_rate
    assert abs(growth - 1.6180) < 1e-3
    assert growth >= math.sqrt(2)
    report(7, "counting DP matches enumeration on 72 cases; growth %.5f" % growth)


def test_criterion_08_local_dimension_trend():
    start = time.monotonic()
    x = HALF
    tol = Q(1, 2**24)
    deltas = [Q(1, 8), Q(1, 16), Q(1, 32)]
    cap = Bracket(HALF, HALF, Code(2, (), Tail.TRUNCATED), x)
    scan = local_dimension_scan(x, 2, cap, deltas, depth=14, grid_depth=16, tol=tol)
    slopes = [pt.estimate.slope for pt in scan]
    assert slopes[0] < slopes[1] < slopes[2]
    assert slopes[2] >= 0.85
    center = solve_lambda(x, Code(2, (1, 1), Tail.ZERO), tol)
    scan2 = local_dimension_scan(x, 2, center, deltas, depth=14, grid_depth=16, tol=tol)
    final = scan2[-1].estimate.slope
    target = math.log(2) / -math.log(0.366025)
    assert abs(final - target) < 0.1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(
        8,
        "slopes %.3f<%.3f<%.3f at the hull max; %.3f vs %.3f at the code point (%.1fs)"
        % (*slopes, final, target, elapsed),
    )


def test_criterion_09_intersection_search():
    x, y = HALF, Q(2, 5)
    tol = Q(1, 2**48)
    pairs = find_interleaved_pairs(x, y, 2, kmax=12, depth=6, tol=tol)
    assert pairs, "no certified pair at kmax=12"
    for pair in pairs:
        assert reverify_pair(pair, x, y, 2, Q(1, 2**56))
    met = [p for p in pairs if p.meets_threshold]
    assert met
    for pair in met:
        rep = intersection_report(pair)
        assert rep.threshold_met and 0 < rep.dim_lower < 1
    report(
        9,
        "%d certified pairs, all re-verified independently; %d above threshold"
        % (len(pairs), len(met)),
    )


def test_criterion_10_membership_oracle_agreement():
    rng = random.Random(42)
    agreements = members = 0
    for trial in range(200):
        m = rng.choice([2, 2, 3, 5])
        if trial % 4 == 0:
            lam = Q(1, m)
        else:
            den = rng.randint(2, 40)
            lam = Q(rng.randint(1, den), den * m)
        hull = (m - 1) * lam / (1 - lam)
        if trial % 5 == 0:
            word = tuple(rng.randint(0, m - 1) for _ in range(rng.randint(1, 6)))
            x = eval_pi(Code(m, word, Tail.ZERO), lam)
            if x == 0:
                x = hull
        else:
            den = rng.randint(3, 50)
            x = hull * Q(rng.randint(1, den), den)
        verdict = membership(x, lam, m, max_steps=64).verdict
        oracle = membership_oracle(x, lam, m, depth=20)
        if oracle == "member":
            assert verdict is Verdict.MEMBER, (x, lam, m)
        elif oracle == "not_member":
            assert verdict is Verdict.NOT_MEMBER, (x, lam, m)
        if verdict is Verdict.UNDETERMINED:
            assert oracle == "inconclusive", (x, lam, m)
        members += verdict is Verdict.MEMBER
        agreements += 1
    report(10, "200 verdicts consistent with the depth-20 cover oracle (%d members)" % members)
