"""Input is checked once, where it enters the public API.

Below that point `Code._of` and `Bracket._of` build objects unchecked.
These tests rebuild what the trusted path made through the checked
constructors, and pin the refusals the public constructors and entry
points keep.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cantor_toolkit import (
    Bracket,
    Code,
    DomainError,
    GreedyExpansion,
    NoRootError,
    Tail,
    admissible_words,
    basic_interval,
    cover,
    ek_basic_interval,
    ek_system,
    refine,
    solve_lambda,
)
from cantor_toolkit._rat import Q, to_rational
from cantor_toolkit.lambda_set import interval_for_prefix

xs = st.fractions(min_value=Fraction(1, 60), max_value=Fraction(59, 60), max_denominator=60)


def checked_copy(b: Bracket) -> Bracket:
    """`b` rebuilt through the public, checking constructors."""
    assert type(b.lo) is Q and type(b.hi) is Q and type(b.x) is Q
    return Bracket(b.lo, b.hi, Code(b.code.m, b.code.prefix, b.code.tail), b.x)


@settings(max_examples=40, deadline=None)
@given(xs, st.sampled_from([2, 3]), st.integers(0, 2), st.sampled_from([4, 40, 64]))
def test_trusted_brackets_pass_the_checked_constructors(x, m, extra, bits):
    # 2^-4 makes grids coarse enough for the ends clamped to the hull
    x, tol = Q(x), Q(1, 2**bits)
    depth = GreedyExpansion(x, m).first_defect + extra
    words = admissible_words(x, m, depth)
    assume(len(words) <= 40)
    level = cover(x, m, depth, tol)
    brackets = [b for iv in level.intervals for b in (iv.left, iv.right)]
    brackets += [b for gap in level.gaps for b in gap]
    for b in brackets:
        assert checked_copy(b) == b
        for _ in range(3):
            child = refine(b)
            assert checked_copy(child) == child
            assert b.lo <= child.lo and child.hi <= b.hi
            b = child
    for w in words:
        iv = interval_for_prefix(x, m, w, tol)
        assert solve_lambda(x, iv.left.code, tol) == iv.left
        if iv.right.code.tail is Tail.TRUNCATED:
            # the greedy spine: the 0-tail completion has no root
            assert iv.right.lo == iv.right.hi == Q(1, m)
            with pytest.raises(NoRootError):
                solve_lambda(x, Code(m, w, Tail.ZERO), tol)
        else:
            assert solve_lambda(x, iv.right.code, tol) == iv.right


def test_to_rational_returns_a_fraction_as_it_is():
    x = Q(2, 6)
    assert to_rational(x) is x
    assert to_rational(True) == 1 and type(to_rational(True)) is Q


@pytest.mark.parametrize(
    "build",
    [
        lambda: Bracket(Q(1, 3), Q(1, 4), Code(2, (1,)), Q(1, 2)),  # lo > hi
        lambda: Bracket(Q(0), Q(1, 4), Code(2, (1,)), Q(1, 2)),  # lo = 0
        lambda: Bracket(Q(1, 4), Q(2, 3), Code(2, (1,)), Q(1, 2)),  # hi > 1/2
        lambda: Bracket(Q(1, 4), Q(2, 5), Code(3, (1,)), Q(1, 2)),  # hi > 1/3
        lambda: Code(1, ()),
        lambda: Code(0, (0,)),
        lambda: Code(2, (2,)),
        lambda: Code(3, (0, -1)),
        lambda: Code(2, (1,), "zero"),
    ],
    ids=[
        "lo-above-hi",
        "lo-zero",
        "hi-above-1/m",
        "hi-above-1/3",
        "m-1",
        "m-0",
        "digit-m",
        "digit-negative",
        "tail-not-Tail",
    ],
)
def test_public_constructors_refuse(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("x", [Q(0), Q(1), Q(-1, 2), Q(3, 2)], ids=["0", "1", "-1/2", "3/2"])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: solve_lambda(x, Code(2, (1, 1)), Q(1, 2**40)),
        lambda x: interval_for_prefix(x, 2, (1, 1), Q(1, 2**40)),
    ],
    ids=["solve_lambda", "interval_for_prefix"],
)
def test_entry_points_refuse_x_outside_the_unit_interval(call, x):
    with pytest.raises(DomainError, match=r"x must lie in \(0, 1\)"):
        call(x)


def test_interval_for_prefix_refuses_bad_alphabets_and_digits():
    with pytest.raises(DomainError, match="m must be >= 2"):
        interval_for_prefix(Q(1, 2), 1, (0,))
    with pytest.raises(DomainError, match="outside 0..1"):
        interval_for_prefix(Q(1, 2), 2, (1, 2))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Code(2, (0.5, 1)),
        lambda: Code(2, ("1",)),
        lambda: basic_interval(Q(1, 2), 2, (1.5, 0)),
        lambda: interval_for_prefix(Q(1, 2), 2, (1.0, 0)),
        lambda: ek_basic_interval(ek_system(Q(1, 2), 2, 1), (0.5,)),
    ],
    ids=[
        "Code-float",
        "Code-str",
        "basic_interval-float",
        "interval_for_prefix-float",
        "ek_basic_interval-float",
    ],
)
def test_non_integer_digits_are_refused_not_truncated(build):
    with pytest.raises(DomainError, match="is not an integer"):
        build()
