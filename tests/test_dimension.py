import logging
import math

import pytest

from cantor_toolkit import (
    Bracket,
    Code,
    DomainError,
    EmptyWindowError,
    Tail,
    box_dimension,
    cover,
    dim_lower_formula,
    dim_lower_formula_bounds,
    dimension_of_parameter,
    gamma_j,
    local_dimension_scan,
    sft_count,
    solve_lambda,
)
from cantor_toolkit import dimension
from cantor_toolkit._rat import Q

from oracles import count_words_without_zero_run

TOL = Q(1, 2**32)


# ---------------------------------------------------------------------------
# zero-run word counting


def test_count_small_example_against_enumeration():
    assert sft_count(2, 2, 3).count == 5 == count_words_without_zero_run(2, 2, 3)


def test_count_k1_only_nonzero_digits():
    assert sft_count(2, 1, 4).count == 1


def test_count_matches_enumeration_small_grid():
    for m in (2, 3):
        for k in (1, 2, 3):
            for n in range(1, 9):
                assert sft_count(m, k, n).count == count_words_without_zero_run(m, k, n)


def test_growth_rate_golden_ratio():
    z = sft_count(2, 2, 24)
    assert abs(z.growth_rate - (1 + math.sqrt(5)) / 2) < 1e-3
    assert z.growth_rate >= math.sqrt(2)


def test_count_block_lower_bound():
    for m in (2, 3):
        for k in (1, 2, 3):
            for n in range(1, 13):
                assert sft_count(m, k, n).count >= ((m - 1) * m ** (k - 1)) ** (n // k)


def test_count_rejects_bad_arguments():
    with pytest.raises(DomainError):
        sft_count(1, 2, 3)
    with pytest.raises(DomainError):
        sft_count(2, 0, 3)


# ---------------------------------------------------------------------------
# raised-defect parameter roots


def test_gamma_1_is_exact_hull_minimum():
    g = gamma_j(Q(1, 2), 2, 1, TOL)
    assert g.is_exact and g.lo == Q(1, 3)


def test_gamma_2_matches_construction_value():
    g = gamma_j(Q(1, 2), 2, 2, TOL)
    assert abs(float(g) - 0.396608) < 5e-6


def test_gamma_increases_towards_one_over_m():
    values = [float(gamma_j(Q(1, 2), 2, j, TOL)) for j in range(1, 8)]
    assert values == sorted(values)
    assert values[-1] < 0.5


def test_dim_lower_formula_monotone_and_limited():
    gamma = 0.42
    values = [dim_lower_formula(2, k, gamma) for k in (1, 2, 5, 20)]
    assert values == sorted(values)
    limit = math.log(2) / -math.log(gamma)
    for v in values:
        assert v < limit
    assert abs(dim_lower_formula(2, 1000, gamma) - limit) < 1e-3
    assert dim_lower_formula(2, 3, 0.45) > dim_lower_formula(2, 3, 0.40)


def test_dim_lower_formula_bounds_use_bracket_monotonicity():
    g = gamma_j(Q(1, 2), 2, 3, TOL)
    lo, hi = dim_lower_formula_bounds(2, 4, g)
    assert lo <= hi


# ---------------------------------------------------------------------------
# box counting


def test_counts_monotone_and_slope_in_range():
    cv = cover(Q(1, 2), 2, 8, TOL)
    est = box_dimension(cv, (Q(1, 3), Q(1, 2)), 10)
    counts = [count for _, count in est.grid_levels]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert 0 <= est.slope <= 1


@pytest.mark.parametrize(
    "x, m, window",
    [
        (Q(1, 2), 2, (Q(1, 3), Q(1, 2))),
        (Q(1, 2), 2, (Q(2, 5), Q(9, 20))),
        (Q(2, 7), 3, (Q(1, 5), Q(1, 3))),
    ],
)
def test_box_counts_match_set_of_occupied_boxes(x, m, window):
    cv = cover(x, m, 7, TOL)
    est = box_dimension(cv, window, 14)
    for t, (size, count) in enumerate(est.grid_levels, start=1):
        boxes = set()
        for iv in cv.intervals:
            lo, hi = max(iv.left.lo, window[0]), min(iv.right.hi, window[1])
            if lo <= hi:
                boxes.update(range(math.floor(lo * 2**t), math.floor(hi * 2**t) + 1))
        assert (size, count) == (Q(1, 2**t), len(boxes))


def test_degenerate_window_single_endpoint_slope_zero():
    cv = cover(Q(1, 2), 2, 6, TOL)
    eps = Q(1, 10**9)
    est = box_dimension(cv, (Q(1, 3) - eps, Q(1, 3) + eps), 8)
    assert est.slope == 0.0
    assert all(count <= 2 for _, count in est.grid_levels)


def test_empty_window_raises():
    cv = cover(Q(1, 2), 2, 6, TOL)
    with pytest.raises(EmptyWindowError):
        box_dimension(cv, (Q(1, 100), Q(2, 100)), 8)


def test_window_near_max_denser_than_near_min():
    cv = cover(Q(1, 2), 2, 12, TOL)
    near_max = box_dimension(cv, (Q(1, 2) - Q(1, 16), Q(1, 2)), 12)
    near_min = box_dimension(cv, (Q(1, 3), Q(1, 3) + Q(1, 16)), 12)
    assert near_max.slope > near_min.slope


def test_grid_deeper_than_float_exponent_range():
    # 2^1100 overflows a float; the fit reads log 2^t off the integer
    cv = cover(Q(1, 2), 2, 4, TOL)
    est = box_dimension(cv, (Q(1, 3), Q(1, 2)), 1100)
    assert est.grid_levels[-1][0] == Q(1, 2**1100)
    assert abs(est.slope - 1) < 1e-9  # positive-width intervals fill their boxes


def test_grid_depth_below_three_raises():
    # ceil(2 / 2) = 1 fitted level cannot determine a slope
    cv = cover(Q(1, 2), 2, 4, TOL)
    with pytest.raises(DomainError, match="grid_depth must be >= 3"):
        box_dimension(cv, (Q(1, 3), Q(1, 2)), 2)


def test_slope_above_one_is_clamped_with_a_warning(caplog):
    # counts growing 4x per halving of the box: the fitted slope is 2
    levels = [(Q(1, 2**t), 4**t) for t in range(1, 9)]
    with caplog.at_level(logging.WARNING, logger="cantor_toolkit.dimension"):
        assert dimension._fit_slope(levels, 8) == 1.0
    [record] = caplog.records
    assert (record.name, record.levelno) == ("cantor_toolkit.dimension", logging.WARNING)
    assert record.getMessage() == "box-count slope 2.0000 clamped to [0, 1]"


# ---------------------------------------------------------------------------
# local dimension scan


def test_theoretical_values():
    assert abs(dimension_of_parameter(2, 1 / 3) - math.log(2) / math.log(3)) < 1e-12
    assert dimension_of_parameter(2, 0.5) == 1.0


def test_scan_theoretical_at_code_point():
    x = Q(1, 2)
    center = solve_lambda(x, Code(2, (1, 1), Tail.ZERO), TOL)
    scan = local_dimension_scan(x, 2, center, [Q(1, 8)], depth=8, grid_depth=10, tol=TOL)
    assert abs(scan[0].theoretical - math.log(2) / -math.log(0.366025)) < 1e-4


def test_scan_rejects_center_outside_hull():
    x = Q(1, 2)
    outside = Bracket(Q(1, 5), Q(1, 5), Code(2, (), Tail.TRUNCATED), x)
    with pytest.raises(DomainError):
        local_dimension_scan(x, 2, outside, [Q(1, 8)], depth=6, grid_depth=8, tol=TOL)


def test_scan_windows_follow_deltas():
    x = Q(1, 2)
    cap = Bracket(Q(1, 2), Q(1, 2), Code(2, (), Tail.TRUNCATED), x)
    scan = local_dimension_scan(x, 2, cap, [Q(1, 8), Q(1, 16)], depth=8, grid_depth=10, tol=TOL)
    assert scan[0].estimate.window == (Q(3, 8), Q(5, 8))
    assert scan[1].estimate.window == (Q(7, 16), Q(9, 16))
    assert scan[0].theoretical == 1.0
