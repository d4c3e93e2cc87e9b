"""Input is checked once, where it enters the public API.

Below that point `Code._of` and `Bracket._of` build objects unchecked.
These tests rebuild what the trusted path made through the checked
constructors, and pin the refusals the public constructors and entry
points keep.
"""

from fractions import Fraction

import threading

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
    cover_sequence,
    box_dimension,
    dim_lower_formula,
    dimension_of_parameter,
    ek_basic_interval,
    ek_hulls,
    ek_system,
    find_interleaved_pairs,
    gamma_j,
    greedy_expansion,
    hull_of,
    membership,
    refine,
    sft_count,
    size_ratio_bound,
    solve_lambda,
    tau_estimate,
    theta_sequence,
    unique_coding,
)
from cantor_toolkit._rat import Q, to_rational

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
        iv = basic_interval(x, m, w, tol)
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
        lambda x: basic_interval(x, 2, (1, 1), Q(1, 2**40)),
    ],
    ids=["solve_lambda", "basic_interval"],
)
def test_entry_points_refuse_x_outside_the_unit_interval(call, x):
    with pytest.raises(DomainError, match=r"x must lie in \(0, 1\)"):
        call(x)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Code(2.5, (1,)),
        lambda: Code(2.0, (1,)),
        lambda: GreedyExpansion(Q(1, 2), 2.5),
        lambda: cover(Q(1, 2), 2.0, 3),
        lambda: hull_of(Q(1, 2), 2.0),
        lambda: hull_of(Q(1, 2), "2"),
        lambda: membership(Q(1, 3), Q(1, 4), 2.5),
        lambda: unique_coding(Q(1, 3), Q(1, 4), 2.5, 3),
    ],
    ids=[
        "Code-2.5",
        "Code-2.0",
        "GreedyExpansion-2.5",
        "cover-2.0",
        "hull_of-2.0",
        "hull_of-str",
        "membership-2.5",
        "unique_coding-2.5",
    ],
)
def test_non_integer_alphabet_sizes_are_refused(call):
    with pytest.raises(DomainError, match="is not an integer"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: cover(Q(1, 2), 2, 3.5),
        lambda: cover(Q(1, 2), 2, "3"),
        lambda: cover_sequence(Q(1, 2), 2, 3.5),
        lambda: admissible_words(Q(1, 2), 2, "3"),
        lambda: ek_hulls(Q(1, 2), 2, 2.5),
        lambda: theta_sequence(Q(1, 2), 2, 2.5),
        lambda: find_interleaved_pairs(Q(1, 2), Q(2, 5), 2, kmax=1.5),
        lambda: ek_system(Q(1, 2), 2, 1.5),
        lambda: tau_estimate(Q(1, 2), 2, 1, depth=2.0),
        lambda: find_interleaved_pairs(Q(1, 2), Q(2, 5), 2, 2, depth=1.5),
        lambda: sft_count(2, 2.5, 5),
        lambda: membership(Q(1, 3), Q(1, 4), 2, max_steps=2.5),
        lambda: unique_coding(Q(1, 3), Q(1, 4), 2, 2.5),
        lambda: greedy_expansion(Q(1, 2), 2, 2.5),
        lambda: box_dimension(cover(Q(1, 2), 2, 3), (Q(1, 3), Q(1, 2)), 3.5),
    ],
    ids=[
        "cover-3.5",
        "cover-str",
        "cover_sequence-3.5",
        "admissible_words-str",
        "ek_hulls-2.5",
        "theta_sequence-2.5",
        "find_interleaved_pairs-kmax-1.5",
        "ek_system-1.5",
        "tau_estimate-depth-2.0",
        "find_interleaved_pairs-depth-1.5",
        "sft_count-k-2.5",
        "membership-max_steps-2.5",
        "unique_coding-2.5",
        "greedy_expansion-2.5",
        "box_dimension-3.5",
    ],
)
def test_non_integer_word_lengths_are_refused(call):
    with pytest.raises(DomainError, match="is not an integer"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: gamma_j(Q(1, 2), 2, 1.5),
        lambda: GreedyExpansion(Q(1, 2), 2).defect_index(1.5),
    ],
    ids=["gamma_j", "defect_index"],
)
def test_non_integer_defect_index_is_refused_at_once(call):
    # a loop waiting for `seen == 1.5` never ends, so run it where a hang
    # fails the test instead of the suite
    raised = []

    def work():
        try:
            call()
        except DomainError as exc:
            raised.append(exc)

    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    worker.join(timeout=1)
    assert not worker.is_alive() and len(raised) == 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ek_hulls(Q(1, 2), 1, 0), "m must be >= 2"),
        (lambda: ek_hulls(Q(3, 2), 2, 0), r"x must lie in \(0, 1\)"),
        (lambda: ek_hulls(Q(1, 2), 2, 0, Q(0)), "tol must be positive"),
        (lambda: find_interleaved_pairs(Q(3, 2), Q(2, 5), 2, 0), r"x must lie in \(0, 1\)"),
        (lambda: find_interleaved_pairs(Q(1, 2), Q(3, 2), 2, 0), r"^y must lie in \(0, 1\)"),
        (lambda: find_interleaved_pairs(Q(1, 2), Q(2, 5), 1, 0), "m must be >= 2"),
        (lambda: find_interleaved_pairs(Q(1, 2), Q(2, 5), 2, 0, 1, Q(0)), "tol must be positive"),
    ],
    ids=[
        "ek_hulls-m",
        "ek_hulls-x",
        "ek_hulls-tol",
        "find_interleaved_pairs-x",
        "find_interleaved_pairs-y",
        "find_interleaved_pairs-m",
        "find_interleaved_pairs-tol",
    ],
)
def test_empty_requests_still_check_their_inputs(call, message):
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.parametrize("m", [1, 0, -2])
@pytest.mark.parametrize(
    "call",
    [
        lambda m: hull_of(Q(1, 2), m),
        lambda m: membership(Q(1, 3), Q(1, 4), m),
        lambda m: unique_coding(Q(1, 3), Q(1, 4), m, 3),
    ],
    ids=["hull_of", "membership", "unique_coding"],
)
def test_alphabets_below_two_are_refused(call, m):
    with pytest.raises(DomainError, match="m must be >= 2"):
        call(m)


@pytest.mark.parametrize(
    "call",
    [
        lambda: sft_count(2.5, 2, 5),
        lambda: dim_lower_formula(2.5, 2, 0.5),
        lambda: dimension_of_parameter(1, 0.5),
        lambda: size_ratio_bound(1, 3),
        lambda: size_ratio_bound(2.5, 3),
    ],
    ids=[
        "sft_count-2.5",
        "dim_lower_formula-2.5",
        "dimension_of_parameter-1",
        "size_ratio_bound-1",
        "size_ratio_bound-2.5",
    ],
)
def test_formula_helpers_refuse_bad_alphabet_sizes(call):
    with pytest.raises(DomainError, match="alphabet size m"):
        call()


def test_basic_interval_refuses_bad_alphabets_and_digits():
    with pytest.raises(DomainError, match="m must be >= 2"):
        basic_interval(Q(1, 2), 1, (0,))
    with pytest.raises(DomainError, match="outside 0..1"):
        basic_interval(Q(1, 2), 2, (1, 2))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Code(2, (0.5, 1)),
        lambda: Code(2, ("1",)),
        lambda: basic_interval(Q(1, 2), 2, (1.5, 0)),
        lambda: basic_interval(Q(1, 2), 2, (1.0, 0)),
        lambda: ek_basic_interval(ek_system(Q(1, 2), 2, 1), (0.5,)),
    ],
    ids=[
        "Code-float",
        "Code-str",
        "basic_interval-float",
        "basic_interval-integral-float",
        "ek_basic_interval-float",
    ],
)
def test_non_integer_digits_are_refused_not_truncated(build):
    with pytest.raises(DomainError, match="is not an integer"):
        build()


@pytest.mark.parametrize(
    "text",
    ["a", "1_0,1", "\u0661\u0661:zero", "\uff11", "1,,0", "+1,0", "1 0", "10:nil"],
    ids=["letter", "underscore", "arabic_indic", "fullwidth", "empty-part", "signed", "space", "tail"],
)
def test_code_literals_take_only_ascii_digits(text):
    with pytest.raises(DomainError):
        Code.parse(text, 11)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("110:zero", Code(2, (1, 1, 0))),
        ("10:max", Code(2, (1, 0), Tail.MAX)),
        ("10", Code(2, (1, 0))),
        (":trunc", Code(2, (), Tail.TRUNCATED)),
        (" 1, 0 : MAX ", Code(2, (1, 0), Tail.MAX)),
    ],
    ids=["zero", "max", "default-tail", "empty-word", "commas-spaces-case"],
)
def test_code_literals_parse(text, expected):
    assert Code.parse(text, 2) == expected
