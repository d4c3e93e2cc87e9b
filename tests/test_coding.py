import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantor_toolkit import (
    Code,
    DomainError,
    GreedyExpansion,
    HullViolationError,
    Tail,
    Verdict,
    eval_pi,
    greedy_expansion,
    membership,
    unique_coding,
)
from cantor_toolkit._rat import Q

from oracles import greedy_digits_longdiv, membership_oracle, periodic_value

xs = st.fractions(min_value=Fraction(1, 500), max_value=Fraction(499, 500), max_denominator=500)


# ---------------------------------------------------------------------------
# greedy expansion


def test_greedy_dyadic_half_terminates():
    assert greedy_expansion(Q(1, 2), 2, 4).prefix(4) == (1, 0, 0, 0)


def test_greedy_three_quarters_terminating_form():
    assert greedy_expansion(Q(3, 4), 2, 4).prefix(4) == (1, 1, 0, 0)


def test_greedy_one_third_periodic():
    assert greedy_expansion(Q(1, 3), 2, 6).prefix(6) == (0, 1, 0, 1, 0, 1)
    assert greedy_expansion(Q(1, 3), 2, 6).prefix(6) == greedy_digits_longdiv(Q(1, 3), 2, 6)


@settings(max_examples=150, deadline=None)
@given(xs, st.integers(2, 7), st.integers(1, 12))
def test_greedy_matches_longdiv_oracle(x, m, n):
    assert greedy_expansion(x, m, n).prefix(n) == greedy_digits_longdiv(x, m, n)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_longdiv_oracle_matches_fraction_floor_formula(m):
    points = {Fraction(p, q) for q in range(2, 40) for p in range(1, q)}
    points |= {Fraction(12345, 2**40 + 1), Fraction(2**61 - 1, 2**62), Fraction(1, 3**25)}
    for x in sorted(points):
        expected = tuple(
            math.floor(x * m**i) - m * math.floor(x * m ** (i - 1)) for i in range(1, 21)
        )
        for n in range(21):
            assert greedy_digits_longdiv(x, m, n) == expected[:n]


@settings(max_examples=100, deadline=None)
@given(xs, st.integers(2, 5), st.integers(1, 10))
def test_greedy_partial_sums_sandwich_x(x, m, n):
    x = Q(x)
    digits = greedy_expansion(x, m, n).prefix(n)
    partial = sum(Q(d, m**i) for i, d in enumerate(digits, 1))
    assert partial <= x < partial + Q(1, m**n)


def test_derived_indices():
    ge = GreedyExpansion(Q(1, 2), 2)
    assert ge.first_defect == 2
    assert ge.first_nonzero == 1
    assert tuple(ge.defect_index(j) for j in range(1, 5)) == (2, 3, 4, 5)
    ge = GreedyExpansion(Q(1, 3), 2)
    assert ge.first_defect == 1
    assert ge.first_nonzero == 2
    assert tuple(ge.defect_index(j) for j in range(1, 4)) == (1, 3, 5)


def test_greedy_rejects_bad_domain():
    with pytest.raises(DomainError):
        greedy_expansion(Q(3, 2), 2, 4)
    with pytest.raises(DomainError):
        greedy_expansion(Q(0), 2, 4)


@pytest.mark.parametrize(
    "call",
    [lambda ge: ge.digit(1.5), lambda ge: ge.prefix(2.5), lambda ge: ge.prefix("3")],
    ids=["digit-1.5", "prefix-2.5", "prefix-str"],
)
def test_greedy_positions_are_read_as_integers(call):
    with pytest.raises(DomainError, match="is not an integer"):
        call(GreedyExpansion(Q(1, 3), 2))


def test_greedy_prefix_refuses_a_negative_length():
    # a negative slice would drop digits from the end of what was produced
    ge = GreedyExpansion(Q(1, 3), 2)
    with pytest.raises(DomainError, match="prefix length must be >= 0"):
        ge.prefix(-1)
    assert ge.prefix(4) == (0, 1, 0, 1)
    with pytest.raises(DomainError, match="prefix length must be >= 0"):
        ge.prefix(-1)
    assert ge.prefix(0) == ()


# ---------------------------------------------------------------------------
# unique coding


def test_unique_coding_geometric_point():
    digits, failed = unique_coding(Q(1, 3), Q(1, 4), 2, 3)
    assert digits == (1, 1, 1) and failed is None


def test_unique_coding_x_equals_lambda():
    digits, failed = unique_coding(Q(1, 4), Q(1, 4), 2, 3)
    assert digits == (1, 0, 0) and failed is None


def test_unique_coding_gap_point():
    # 1/5 lies in the gap between the level-1 pieces [0, 1/12] and [1/4, 1/3]
    digits, failed = unique_coding(Q(1, 5), Q(1, 4), 2, 3)
    assert digits == () and failed == 1


def test_unique_coding_hull_violation():
    with pytest.raises(HullViolationError):
        unique_coding(Q(1, 2), Q(1, 5), 2, 3)  # hull max is 1/4


def test_unique_coding_rejects_lambda_at_one_over_m():
    with pytest.raises(DomainError):
        unique_coding(Q(1, 3), Q(1, 2), 2, 3)


# ---------------------------------------------------------------------------
# membership


def test_membership_fixed_point_period():
    r = membership(Q(1, 3), Q(1, 4), 2)
    assert r.verdict is Verdict.MEMBER
    assert r.preperiod == () and r.period == (1,)
    assert periodic_value(r.preperiod, r.period, Q(1, 4)) == Q(1, 3)


def test_membership_gap_examples():
    assert membership(Q(1, 5), Q(1, 4), 2).failing_step == 1
    r = membership(Q(1, 2), Q(2, 5), 2)
    assert r.verdict is Verdict.NOT_MEMBER
    assert membership_oracle(Q(1, 2), Q(2, 5), 2) in ("not_member", "inconclusive")


def test_membership_at_one_over_m_always_member():
    r = membership(Q(3, 7), Q(1, 2), 2)
    assert r.verdict is Verdict.MEMBER
    assert periodic_value(r.preperiod, r.period, Q(1, 2)) == Q(3, 7)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4),
    st.fractions(min_value=Fraction(1, 40), max_value=Fraction(19, 40), max_denominator=40),
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
)
def test_membership_reconstructs_planted_periodic_codings(m, lamf, pre, per):
    lam = Q(lamf) / (m - 1)  # keep lam under 1/m for small m
    if not 0 < lam < Q(1, m):
        return
    pre = tuple(min(d, m - 1) for d in pre)
    per = tuple(min(d, m - 1) for d in per)
    if all(d == 0 for d in pre + per):
        return
    # plant the exact value of pre + per^inf
    tailval = Q(0)
    for d in reversed(per):
        tailval = (tailval + d) * lam
    tailval /= 1 - lam ** len(per)
    x = sum((d * lam**i for i, d in enumerate(pre, 1)), Q(0)) + lam ** len(pre) * tailval
    r = membership(x, lam, m, max_steps=400)
    assert r.verdict is Verdict.MEMBER
    assert periodic_value(r.preperiod, r.period, lam) == x


@settings(max_examples=80, deadline=None)
@given(
    xs,
    st.fractions(min_value=Fraction(1, 60), max_value=Fraction(29, 60), max_denominator=60),
)
def test_membership_digits_consistent_with_series_bounds(x, lam):
    x, lam = Q(x), Q(lam)
    m = 2
    if not lam * m <= 1:
        return
    hull = (m - 1) * lam / (1 - lam)
    if not x <= hull:
        return
    r = membership(x, lam, m, max_steps=40)
    digits = r.extracted_digits
    if not digits:
        return
    assert eval_pi(Code(m, digits, Tail.ZERO), lam) <= x <= eval_pi(Code(m, digits, Tail.MAX), lam)


@settings(max_examples=60, deadline=None)
@given(xs, st.integers(2, 4))
def test_membership_below_hull_minimum_is_excluded(x, m):
    x = Q(x)
    lam = x / (m - 1 + x) * Q(9, 10)
    try:
        r = membership(x, lam, m, max_steps=30)
    except HullViolationError:
        return
    assert r.verdict is not Verdict.MEMBER


def test_greedy_concurrent_extension_is_linearizable():
    import threading

    reference = GreedyExpansion(Q(3, 7), 2).prefix(300)
    ge = GreedyExpansion(Q(3, 7), 2)
    results = [None] * 8

    def worker(slot):
        results[slot] = ge.prefix(300)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == reference for r in results)
