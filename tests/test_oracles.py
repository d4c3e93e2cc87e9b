"""The reference computations themselves: a faster oracle must return
exactly what its plain form returned, and the stream order and periodic
value oracles must agree with worked examples and with `exact_series`."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantor_toolkit._rat import Q

from oracles import exact_series, float_root, float_series, lex_order, periodic_value


def float_root_every_step(prefix, tail_max, m, x, iterations):
    """float_root as a plain loop that runs all `iterations` bisection steps."""
    lo, hi = 1e-12, 1.0 / m
    if float_series(prefix, tail_max, m, hi) < x - 1e-13:
        return None
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if float_series(prefix, tail_max, m, mid) < x:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@pytest.mark.parametrize("iterations", [80, 200])
@pytest.mark.parametrize("tail_max", [True, False])
@pytest.mark.parametrize("m", [2, 3])
def test_float_root_stopping_at_a_fixed_point_changes_no_result(m, tail_max, iterations):
    rng = random.Random(20 * m + 2 * iterations + tail_max)
    for _ in range(150):
        prefix = tuple(rng.randrange(m) for _ in range(rng.randrange(1, 16)))
        # mostly points with a root (the series at a random parameter), some arbitrary
        if rng.random() < 0.8:
            x = float_series(prefix, tail_max, m, rng.uniform(1e-6, 1.0 / m))
        else:
            x = rng.random()
        expected = float_root_every_step(prefix, tail_max, m, x, iterations)
        got = float_root(prefix, tail_max, m, x, iterations)
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.hex() == expected.hex(), (prefix, x)


def test_lex_order_of_explicit_streams():
    assert lex_order(((1, 1), 0), ((1, 0), 1)) == 1  # 1 1 0^inf above 1 0 1^inf
    assert lex_order(((1, 0), 1), ((1, 1), 0)) == -1
    assert lex_order(((1,), 1), ((), 1)) == 0  # 1 1^inf is 1^inf
    assert lex_order(((1, 0), 0), ((1,), 0)) == 0  # 1 0 0^inf is 1 0^inf
    assert lex_order(((), 0), ((0, 0, 1), 0)) == -1


@st.composite
def stream_pairs(draw):
    """An alphabet size m and two explicit streams over it, each as
    (prefix, tail is m-1)."""
    m = draw(st.integers(2, 4))
    digits = st.lists(st.integers(0, m - 1), max_size=6)
    return m, [(draw(digits), draw(st.booleans())) for _ in range(2)]


@settings(max_examples=200, deadline=None)
@given(stream_pairs())
def test_lex_order_is_the_value_order_below_one_over_m(case):
    # for lam < 1/m the digit series is strictly increasing in the stream's order
    m, ((pa, a_max), (pb, b_max)) = case
    lam = Q(1, m + 1)
    diff = exact_series(pa, a_max, m, lam) - exact_series(pb, b_max, m, lam)
    a, b = (pa, m - 1 if a_max else 0), (pb, m - 1 if b_max else 0)
    assert lex_order(a, b) == (diff > 0) - (diff < 0)


def test_periodic_value_examples():
    assert periodic_value((), (1,), Q(1, 4)) == Q(1, 3)  # 1^inf at 1/4
    assert periodic_value((), (0, 1, 1), Q(1, 2)) == Q(3, 7)  # binary 0.(011)
    assert periodic_value((1,), (0,), Q(1, 3)) == Q(1, 3)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 3), max_size=4),
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
    st.fractions(min_value=Fraction(1, 50), max_value=Fraction(1, 4), max_denominator=50),
)
def test_periodic_value_bounds_its_truncations(pre, per, lam):
    # the first n digits fall short of the value by at most 3 * lam^(n+1) / (1 - lam)
    lam = Q(lam)
    digits = list(pre) + list(per) * 12
    value = periodic_value(pre, per, lam)
    n = len(digits)
    partial = exact_series(digits, False, 4, lam)
    assert partial <= value <= partial + 3 * lam ** (n + 1) / (1 - lam)
