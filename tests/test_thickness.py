import itertools
import math
import random

import pytest

from cantor_toolkit import (
    DEFAULT_TOL,
    DomainError,
    GreedyExpansion,
    Ordering,
    Tail,
    certify_expansion_separation,
    certify_gap_width_bound,
    certify_interval_width_bound,
    compare_brackets,
    dim_lower_from_tau,
    ek_basic_interval,
    ek_hulls,
    ek_system,
    find_interleaved_pairs,
    intersection_report,
    meets_thickness_threshold,
    size_ratio_bound,
    tau_estimate,
    theta_sequence,
)
from cantor_toolkit import thickness
from cantor_toolkit._rat import Q

from oracles import float_root

TOL = Q(1, 2**48)


# ---------------------------------------------------------------------------
# subsystem hulls


def test_first_two_hulls_match_construction_values():
    systems = ek_hulls(Q(1, 2), 2, 2, TOL)
    s1, s2 = systems
    assert (s1.n_j, s1.b, s1.prefix) == (2, 1, (1, 1))
    assert s1.hull.left.is_exact and s1.hull.left.lo == Q(1, 3)
    assert abs(float(s1.hull.right) - 0.366025) < 5e-6
    assert (s2.n_j, s2.b, s2.prefix) == (3, 1, (1, 0, 1))
    assert abs(float(s2.hull.left) - 0.396608) < 5e-6
    assert abs(float(s2.hull.right) - 0.423854) < 5e-6


def test_hulls_strictly_increase():
    for x, m in [(Q(1, 2), 2), (Q(1, 3), 2), (Q(2, 5), 3)]:
        systems = ek_hulls(x, m, 8, TOL)
        for a, b in zip(systems, systems[1:]):
            assert compare_brackets(a.hull.right, b.hull.left) is Ordering.LESS


def test_raised_digits_enumerate_all_choices():
    # greedy stream of 2/5 over m=3 has digits below m-1 at several positions,
    # so one defect can spawn several subsystems (one per raised digit)
    systems = ek_hulls(Q(1, 5), 3, 6, TOL)
    ge = GreedyExpansion(Q(1, 5), 3)
    for s in systems:
        assert ge.digit(s.n_j) < s.b <= 2
        assert s.prefix == ge.prefix(s.n_j - 1) + (s.b,)


def _seeded_points(seed, count):
    rng = random.Random(seed)
    points = set()
    while len(points) < count:
        den = rng.randint(2, 64)
        points.add(Q(rng.randint(1, den - 1), den))
    return sorted(points)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_subsystem_right_endpoints_are_solved_roots(m):
    # A subsystem prefix raises one greedy digit, so its 0-tail series at
    # 1/m exceeds x and the right endpoint is a solved root, never the
    # capped 1/m bracket that the greedy spine gets.
    cap = Q(1, m)
    for x in _seeded_points(1000 + m, 50):
        for s in ek_hulls(x, m, 6, TOL):
            ivs = [s.hull] + [
                ek_basic_interval(s, word, TOL)
                for n in (1, 2)
                for word in itertools.product(range(m), repeat=n)
            ]
            for iv in ivs:
                assert iv.right.code.tail is Tail.ZERO, (x, m, s.k, iv.word)
                for e in (iv.left, iv.right):
                    assert not (e.lo == e.hi == cap), (x, m, s.k, iv.word)


# ---------------------------------------------------------------------------
# subsystem basic intervals


def test_omitted_tol_shares_cache_entries_with_default_tol():
    x = Q(3, 7)
    omitted = ek_hulls(x, 2, 3)
    explicit = ek_hulls(x, 2, 3, DEFAULT_TOL)
    assert len(omitted) == 3
    assert all(a is b for a, b in zip(omitted, explicit))
    assert tau_estimate(x, 2, 1, 1) == tau_estimate(x, 2, 1, 1, DEFAULT_TOL)


def test_empty_word_is_hull():
    s2 = ek_system(Q(1, 2), 2, 2, TOL)
    iv = ek_basic_interval(s2, (), TOL)
    assert compare_brackets(iv.left, s2.hull.left) is Ordering.EQUAL
    assert compare_brackets(iv.right, s2.hull.right) is Ordering.EQUAL


def test_max_digit_child_shares_left_endpoint():
    s2 = ek_system(Q(1, 2), 2, 2, TOL)
    child = ek_basic_interval(s2, (1,), TOL)
    assert compare_brackets(child.left, s2.hull.left) is Ordering.EQUAL


def test_zero_digit_child_shares_right_endpoint():
    s2 = ek_system(Q(1, 2), 2, 2, TOL)
    child = ek_basic_interval(s2, (0,), TOL)
    assert compare_brackets(child.right, s2.hull.right) is Ordering.EQUAL


# ---------------------------------------------------------------------------
# thickness estimates


def test_dim_lower_formula_value():
    assert abs(dim_lower_from_tau(1.0) - math.log(2) / math.log(3)) < 1e-12


def test_tau_level1_matches_float_bisection_oracle():
    # level-1 ratios of the first subsystem recomputed from independently
    # bisected endpoint roots
    report = tau_estimate(Q(1, 2), 2, 1, depth=1, tol=TOL)
    prefix = (1, 1)
    p1 = float_root(prefix + (1,), True, 2, 0.5)
    q1 = float_root(prefix + (1,), False, 2, 0.5)
    p2 = float_root(prefix + (0,), True, 2, 0.5)
    q2 = float_root(prefix + (0,), False, 2, 0.5)
    gap = p2 - q1
    expected = min((q1 - p1) / gap, (q2 - p2) / gap)
    assert abs(float(report.per_level_min[0][1]) - expected) < 1e-6


def test_tau_grows_along_the_sequence():
    r2 = tau_estimate(Q(1, 2), 2, 2, depth=3, tol=TOL)
    r6 = tau_estimate(Q(1, 2), 2, 6, depth=3, tol=TOL)
    assert r6.tau_empirical > r2.tau_empirical


def test_tau_empirical_non_increasing_in_depth():
    shallow = tau_estimate(Q(1, 2), 2, 3, depth=1, tol=TOL)
    deep = tau_estimate(Q(1, 2), 2, 3, depth=3, tol=TOL)
    assert deep.tau_empirical <= shallow.tau_empirical
    mins = [v for _, v in deep.per_level_min]
    assert deep.tau_empirical == min(mins)


def test_analytic_bounds_stay_below_reported_ratios():
    for k in (2, 4, 6):
        r = tau_estimate(Q(1, 2), 2, k, depth=2, tol=TOL)
        assert r.tau_analytic_lower is not None
        assert r.newhouse_lower is not None
        # both are genuine lower bounds of the true infimum, which the
        # empirical minimum over-estimates; the dimension bound follows the
        # same order (newhouse vs analytic stay incomparable by design)
        assert r.tau_analytic_lower <= r.tau_empirical
        assert dim_lower_from_tau(float(r.tau_empirical)) >= dim_lower_from_tau(
            float(r.tau_analytic_lower)
        )
        assert 0 < r.dim_lower < 1


def test_theta_values_and_divergence():
    entries = theta_sequence(Q(1, 2), 2, 9, TOL)
    theta1 = entries[0]
    assert abs(float(theta1.theta_lo) - 0.8909) < 2e-3
    theta2, theta8 = entries[1], entries[7]
    assert theta8.theta_lo > theta2.theta_hi


def test_size_ratio_stays_under_eventual_bound():
    ge = GreedyExpansion(Q(1, 2), 2)
    bound = size_ratio_bound(2, ge.first_nonzero)
    assert bound == 16
    for entry in theta_sequence(Q(1, 2), 2, 9, TOL):
        assert entry.size_ratio_hi < bound


def test_theta_requires_two_hulls():
    with pytest.raises(DomainError):
        theta_sequence(Q(1, 2), 2, 1, TOL)


# ---------------------------------------------------------------------------
# certified inequality checkers


def test_width_bound_certified_including_equality_case():
    s1 = ek_system(Q(1, 2), 2, 1, TOL)
    # hull of the first subsystem: all-max prefix, the exact-equality case
    assert certify_interval_width_bound(s1.hull)
    assert certify_interval_width_bound(ek_basic_interval(s1, (1, 0), TOL))
    s3 = ek_system(Q(1, 2), 2, 3, TOL)
    assert certify_interval_width_bound(s3.hull)
    assert certify_interval_width_bound(ek_basic_interval(s3, (0, 1), TOL))


def test_gap_bound_certified_on_sibling_pairs():
    ge = GreedyExpansion(Q(1, 2), 2)
    for k in (1, 2, 4):
        s = ek_system(Q(1, 2), 2, k, TOL)
        left = ek_basic_interval(s, (1,), TOL)
        right = ek_basic_interval(s, (0,), TOL)
        assert certify_gap_width_bound(left, right, s.n_j, ge.first_nonzero)


def test_gap_bound_returns_false_on_false_claim():
    # inflating the defect position shrinks the claimed bound below the
    # true gap; the checker must give up cleanly, not loop
    ge = GreedyExpansion(Q(1, 2), 2)
    s = ek_system(Q(1, 2), 2, 2, TOL)
    left = ek_basic_interval(s, (1,), TOL)
    right = ek_basic_interval(s, (0,), TOL)
    assert not certify_gap_width_bound(left, right, s.n_j + 40, ge.first_nonzero)


def test_gap_bound_rejects_out_of_hypothesis_defect():
    s = ek_system(Q(1, 2), 2, 1, TOL)
    left = ek_basic_interval(s, (1,), TOL)
    right = ek_basic_interval(s, (0,), TOL)
    with pytest.raises(DomainError):
        certify_gap_width_bound(left, right, nj_right=1, first_nonzero=1)


def test_expansion_separation_certified_on_hull_endpoints():
    systems = ek_hulls(Q(1, 2), 2, 6, TOL)
    endpoints = []
    for s in systems:
        endpoints.extend([s.hull.left, s.hull.right])
    assert certify_expansion_separation(endpoints, Q(1, 2), 2)


# ---------------------------------------------------------------------------
# interleaving


def test_threshold_is_strict_exact_arithmetic():
    assert not meets_thickness_threshold(Q(2414213562373095, 10**15))  # just below 1+sqrt2
    assert meets_thickness_threshold(Q(2414213562373096, 10**15))
    assert not meets_thickness_threshold(Q(1))


def test_identical_points_interleave_diagonally():
    pairs = find_interleaved_pairs(Q(1, 2), Q(1, 2), 2, kmax=3, depth=3, tol=TOL)
    assert [(p.i, p.j) for p in pairs] == [(1, 1), (2, 2), (3, 3)]


def test_interleaved_pair_found_for_distinct_points():
    pairs = find_interleaved_pairs(Q(1, 2), Q(2, 5), 2, kmax=6, depth=4, tol=TOL)
    assert pairs, "expected at least one certified pair at kmax=6"
    for p in pairs:
        assert 1 <= p.i <= 6 and 1 <= p.j <= 6


def test_intersection_report_values():
    pairs = find_interleaved_pairs(Q(1, 2), Q(2, 5), 2, kmax=6, depth=4, tol=TOL)
    met = [p for p in pairs if p.meets_threshold]
    assert met, "thickness threshold expected to be crossed by kmax=6"
    rep = intersection_report(met[-1])
    assert rep.threshold_met and 0 < rep.dim_lower < 1
    assert rep.quality == "order-of"
    low = [p for p in pairs if not p.meets_threshold]
    if low:
        rep = intersection_report(low[0])
        assert rep.dim_lower is None and not rep.threshold_met


def test_intersection_dim_formula_at_tau_100():
    # sqrt(100) = 10, so the bound is log 2 / log 2.1
    class FakePair:
        i, j = 1, 1
        tau_min = Q(100)
        meets_threshold = True

    rep = intersection_report(FakePair)
    assert abs(rep.dim_lower - math.log(2) / math.log(2.1)) < 1e-12


def test_kmax_zero_or_negative_yields_empty():
    assert find_interleaved_pairs(Q(1, 2), Q(2, 5), 2, kmax=0) == []


@pytest.mark.parametrize("depth", [0, -1])
def test_interleave_depth_below_one_rejected(depth):
    # checked before kmax, so even an empty search refuses the depth
    for kmax in (0, 1):
        with pytest.raises(DomainError, match="depth must be >= 1"):
            find_interleaved_pairs(Q(1, 2), Q(1, 2), 2, kmax=kmax, depth=depth)


@pytest.mark.parametrize("depth", [0, -1])
def test_tau_report_depth_below_one_rejected(depth):
    with pytest.raises(DomainError, match="depth must be >= 1"):
        thickness.tau_report(ek_system(Q(1, 2), 2, 1, TOL), depth, TOL)


@pytest.mark.parametrize("k", [0, -1])
def test_subsystem_index_below_one_rejected(k):
    with pytest.raises(DomainError, match="k must be >= 1"):
        ek_system(Q(1, 2), 2, k, TOL)
    with pytest.raises(DomainError, match="k must be >= 1"):
        tau_estimate(Q(1, 2), 2, k, 2, TOL)
