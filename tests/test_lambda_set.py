import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantor_toolkit import GreedyExpansion
from cantor_toolkit import (
    DomainError,
    NotAdmissibleError,
    Ordering,
    Tail,
    Verdict,
    admissible_words,
    basic_interval,
    compare_brackets,
    cover,
    cover_sequence,
    ek_basic_interval,
    ek_system,
    eval_pi,
    hull_of,
    is_admissible,
    membership,
)
from cantor_toolkit._rat import Q

from oracles import exact_series, simplest_between

TOL = Q(1, 2**40)
xs = st.fractions(min_value=Fraction(1, 200), max_value=Fraction(199, 200), max_denominator=200)


def words(cover_level):
    return ["".join(map(str, iv.word)) for iv in cover_level.intervals]


# ---------------------------------------------------------------------------
# admissible words


def test_admissible_words_half():
    assert admissible_words(Q(1, 2), 2, 1) == []
    assert admissible_words(Q(1, 2), 2, 2) == [(1, 0), (1, 1)]
    assert admissible_words(Q(1, 2), 2, 3) == [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]


def test_admissible_words_all_continuations_of_greedy_prefix():
    # every admissible word dominates the greedy stream with its max completion
    for n in (2, 4, 6):
        for w in admissible_words(Q(1, 3), 2, n):
            assert is_admissible(Q(1, 3), 2, w)


def test_admissible_empty_below_first_defect():
    # greedy stream of 7/8 is 1 1 1 0..., so nothing is admissible before level 4
    assert admissible_words(Q(7, 8), 2, 3) == []
    assert admissible_words(Q(7, 8), 2, 4) == [(1, 1, 1, 0), (1, 1, 1, 1)]


@settings(max_examples=100, deadline=None)
@given(xs, st.integers(2, 5), st.integers(1, 6))
def test_admissible_words_are_the_words_whose_max_completion_exceeds_x(x, m, n):
    # at lam = 1/m a word's max completion is worth (its value + 1) / m^n, so
    # the value oracle decides admissibility without comparing digit tuples
    x = Q(x)
    ge = GreedyExpansion(x, m)
    if n < ge.first_defect:
        assert admissible_words(x, m, n) == []
        return
    expected = [
        w for w in itertools.product(range(m), repeat=n)
        if exact_series(w, True, m, Q(1, m)) > x
    ]
    assert admissible_words(x, m, n) == expected
    admissible = set(expected)
    for w in itertools.product(range(m), repeat=n):
        assert is_admissible(x, m, w) is (w in admissible)
    greedy_value = sum(d * m ** (n - i) for i, d in enumerate(ge.prefix(n), 1))
    assert len(expected) == m**n - greedy_value


@pytest.mark.parametrize(
    "build",
    [
        lambda w: is_admissible(Q(1, 2), 2, w),
        lambda w: basic_interval(Q(1, 2), 2, w, TOL),
        lambda w: ek_basic_interval(ek_system(Q(1, 2), 2, 1, TOL), w),
    ],
    ids=["is_admissible", "basic_interval", "ek_basic_interval"],
)
def test_out_of_range_digit_rejected(build):
    with pytest.raises(DomainError, match="outside 0..1"):
        build((2, 0))


# ---------------------------------------------------------------------------
# basic intervals


def test_basic_interval_11_left_is_hull_minimum():
    iv = basic_interval(Q(1, 2), 2, (1, 1), TOL)
    assert iv.left.is_exact and iv.left.lo == Q(1, 3)
    assert abs(float(iv.right) - 0.366025) < 5e-6


def test_basic_interval_10_right_is_hull_maximum():
    iv = basic_interval(Q(1, 2), 2, (1, 0), TOL)
    assert abs(float(iv.left) - 0.396608) < 5e-6
    assert iv.right.is_exact and iv.right.lo == Q(1, 2)


def test_basic_interval_110_shares_right_endpoint_with_11():
    child = basic_interval(Q(1, 2), 2, (1, 1, 0), TOL)
    parent = basic_interval(Q(1, 2), 2, (1, 1), TOL)
    assert abs(float(child.left) - 0.352201) < 5e-6
    assert compare_brackets(child.right, parent.right) is Ordering.EQUAL


def test_basic_interval_rejects_inadmissible_words():
    with pytest.raises(NotAdmissibleError):
        basic_interval(Q(1, 2), 2, (0, 1), TOL)
    with pytest.raises(NotAdmissibleError):
        basic_interval(Q(1, 2), 2, (1,), TOL)  # below the first defect level


# ---------------------------------------------------------------------------
# covers


def test_cover_depth_2_single_gap():
    cv = cover(Q(1, 2), 2, 2, TOL)
    assert len(cv.intervals) == 2 and len(cv.gaps) == 1
    lo, hi = cv.gaps[0]
    assert abs(float(lo) - 0.366025) < 5e-6
    assert abs(float(hi) - 0.396608) < 5e-6


def test_cover_depth_3_values():
    cv = cover(Q(1, 2), 2, 3, TOL)
    expected = [
        (1 / 3, 0.342508),
        (0.352201, 0.366025),
        (0.396608, 0.423854),
        (0.435958, 0.5),
    ]
    assert words(cv) == ["111", "110", "101", "100"]
    for iv, (lo, hi) in zip(cv.intervals, expected):
        assert abs(float(iv.left) - lo) < 5e-6
        assert abs(float(iv.right) - hi) < 5e-6


def test_cover_depth_4_extremes():
    cv = cover(Q(1, 2), 2, 4, TOL)
    assert len(cv.intervals) == 8
    assert cv.intervals[0].left.lo == Q(1, 3)
    assert abs(float(cv.intervals[0].right) - 0.336197) < 5e-6
    assert abs(float(cv.intervals[-1].left) - 0.461249) < 5e-6
    assert cv.intervals[-1].right.lo == Q(1, 2)


def test_cover_requires_depth_at_first_defect():
    with pytest.raises(DomainError):
        cover(Q(1, 2), 2, 1, TOL)


def test_cover_order_reversal_words_descend():
    cv = cover(Q(3, 7), 2, 5, TOL)
    ws = [iv.word for iv in cv.intervals]
    assert ws == sorted(ws, reverse=True)


def test_cover_hull_formula_and_extreme_endpoints():
    for x, m in [(Q(1, 2), 2), (Q(1, 3), 2), (Q(2, 7), 3), (Q(9, 10), 5)]:
        depth = max(2, GreedyExpansion(x, m).first_defect)
        cv = cover(x, m, depth, TOL)
        assert cv.hull == hull_of(x, m) == (x / (m - 1 + x), Q(1, m))
        first, last = cv.intervals[0], cv.intervals[-1]
        assert first.left.is_exact and first.left.lo == cv.hull[0]
        assert last.right.is_exact and last.right.lo == cv.hull[1]


def test_cover_refinement_nesting_and_shrinking_length():
    levels = cover_sequence(Q(1, 2), 2, 5, TOL)
    for parent, child in zip(levels, levels[1:]):
        # each child interval sits inside exactly one parent interval
        for iv in child.intervals:
            owners = [
                p
                for p in parent.intervals
                if compare_brackets(p.left, iv.left) in (Ordering.LESS, Ordering.EQUAL)
                and compare_brackets(iv.right, p.right) in (Ordering.LESS, Ordering.EQUAL)
            ]
            assert len(owners) == 1
        total_parent = sum(p.width_hi for p in parent.intervals)
        total_child = sum(c.width_hi for c in child.intervals)
        assert total_child < total_parent


def test_cover_endpoint_codes_reproduce_x():
    cv = cover(Q(1, 2), 2, 4, TOL)
    for iv in cv.intervals:
        for br in (iv.left, iv.right):
            if br.code.tail is Tail.TRUNCATED:
                continue
            assert eval_pi(br.code, br.lo) <= Q(1, 2) <= eval_pi(br.code, br.hi)


def inside_gap(lo, hi):
    # strictly interior rational sample of the open gap (lo.hi, hi.lo)
    width = hi.lo - lo.hi
    return simplest_between(lo.hi + width / 4, hi.lo - width / 4)


def test_gap_points_certified_not_member():
    x = Q(1, 2)
    cv = cover(x, 2, 4, TOL)
    for lo, hi in cv.gaps:
        lam = inside_gap(lo, hi)
        r = membership(x, lam, 2, max_steps=cv.depth + 1)
        assert r.verdict is Verdict.NOT_MEMBER
        assert r.failing_step <= cv.depth + 1


def test_cover_nondyadic_point_has_capped_spine():
    cv = cover(Q(1, 3), 2, 4, TOL)
    last = cv.intervals[-1]
    assert last.right.is_exact and last.right.lo == Q(1, 2)
    assert last.right.code.tail is Tail.TRUNCATED
    assert last.word == (0, 1, 0, 1)  # the greedy prefix of 1/3
    # gaps stay genuine: a rational strictly inside each one is excluded
    for lo, hi in cv.gaps:
        lam = inside_gap(lo, hi)
        assert membership(Q(1, 3), lam, 2, max_steps=12).verdict is Verdict.NOT_MEMBER


@settings(max_examples=15, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 30), max_value=Fraction(29, 30), max_denominator=30),
    st.integers(2, 3),
)
def test_gap_points_excluded_for_random_points(x, m):
    x = Q(x)
    depth = GreedyExpansion(x, m).first_defect + 1
    if depth > 7:
        return
    cv = cover(x, m, depth, Q(1, 2**24))
    for lo, hi in cv.gaps:
        lam = inside_gap(lo, hi)
        assert membership(x, lam, m, max_steps=depth + 1).verdict is Verdict.NOT_MEMBER


@settings(max_examples=25, deadline=None)
@given(xs, st.integers(2, 3))
def test_cover_property_sorted_disjoint_inside_hull(x, m):
    x = Q(x)
    ge = GreedyExpansion(x, m)
    depth = ge.first_defect + 2
    if depth > 9:
        return
    cv = cover(x, m, depth, Q(1, 2**24))
    hull_lo, hull_hi = cv.hull
    previous = None
    for iv in cv.intervals:
        assert hull_lo <= iv.left.lo and iv.right.hi <= hull_hi
        assert compare_brackets(iv.left, iv.right) is Ordering.LESS
        if previous is not None:
            assert previous.right.hi < iv.left.lo
        previous = iv
