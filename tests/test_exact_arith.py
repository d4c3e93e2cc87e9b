import math
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
    Ordering,
    PrecisionExhaustedError,
    Tail,
    certify_expansion_separation,
    certify_gap_width_bound,
    certify_interval_width_bound,
    compare_brackets,
    cover,
    ek_hulls,
    eval_pi,
    refine,
    solve_lambda,
    theta_sequence,
)
from cantor_toolkit import exact_arith
from cantor_toolkit._rat import Q
from cantor_toolkit.exact_arith import CERTIFY_BUDGET, _sign, refine_until, separate_brackets

from oracles import dyadic_cell, exact_series, float_root, lex_order, simplest_between

TOL6 = Q(1, 10**6)


def code(m, digits, tail=Tail.ZERO):
    return Code(m, tuple(digits), tail)


def is_zero_stream(c):
    """Whether `c` is the all-zero stream, whose series is 0 at every lam."""
    return c.canonical() == Code(c.m, ())


# ---------------------------------------------------------------------------
# evaluation


def test_eval_single_digit():
    assert eval_pi(code(2, [1]), Q(1, 2)) == Q(1, 2)


def test_eval_pure_max_tail_geometric_series():
    assert eval_pi(code(2, [], Tail.MAX), Q(1, 3)) == Q(1, 2)


def test_eval_two_digits():
    assert eval_pi(code(2, [1, 1]), Q(1, 3)) == Q(4, 9)


def test_eval_rejects_truncated_and_bad_lambda():
    with pytest.raises(DomainError):
        eval_pi(code(2, [1], Tail.TRUNCATED), Q(1, 3))
    with pytest.raises(DomainError):
        eval_pi(code(2, [1]), Q(2, 3))
    with pytest.raises(DomainError):
        eval_pi(code(2, [1]), Q(0))


def test_eval_bounds_bracket_truncated_code():
    # the two explicit completions of the truncated code 1...
    lo, hi = eval_pi(code(2, [1]), Q(1, 3)), eval_pi(code(2, [1], Tail.MAX), Q(1, 3))
    assert lo == Q(1, 3)  # 1 0^inf
    assert hi == Q(1, 3) + Q(1, 9) / (1 - Q(1, 3))  # 1 1^inf


rationals_01 = st.fractions(
    min_value=Fraction(1, 1000), max_value=Fraction(999, 1000), max_denominator=1000
)
small_rationals_01 = st.fractions(
    min_value=Fraction(1, 60), max_value=Fraction(59, 60), max_denominator=60
)


@st.composite
def codes(draw, max_m=5, max_len=8):
    m = draw(st.integers(2, max_m))
    prefix = tuple(draw(st.lists(st.integers(0, m - 1), max_size=max_len)))
    tail = draw(st.sampled_from([Tail.ZERO, Tail.MAX]))
    return Code(m, prefix, tail)


@settings(max_examples=120, deadline=None)
@given(codes(), rationals_01, rationals_01)
def test_eval_strictly_monotone_in_lambda(c, a, b):
    if is_zero_stream(c) or a == b:
        return
    lam1, lam2 = sorted([Q(a) / c.m, Q(b) / c.m])
    assert eval_pi(c, lam1) < eval_pi(c, lam2)


# ---------------------------------------------------------------------------
# root bracketing


def test_solve_examples_match_printed_values():
    # independently cross-checked against plain float bisection
    cases = [
        (code(2, [1, 1]), 0.366025),
        (code(2, [1, 0], Tail.MAX), 0.396608),
    ]
    for c, printed in cases:
        b = solve_lambda(Q(1, 2), c, Q(1, 2**40))
        oracle = float_root(c.prefix, c.tail is Tail.MAX, 2, 0.5)
        assert abs(float(b) - oracle) < 1e-9
        assert abs(float(b) - printed) < 5e-7


def test_solve_pure_max_tail_hits_exact_root():
    b = solve_lambda(Q(1, 2), code(2, [], Tail.MAX), TOL6)
    assert b.is_exact and b.lo == Q(1, 3)


def test_solve_single_one_is_lambda_equals_x():
    b = solve_lambda(Q(1, 2), code(2, [1]), TOL6)
    assert b.is_exact and b.lo == Q(1, 2)


def test_solve_certifies_sign_change_exactly():
    b = solve_lambda(Q(3, 7), code(2, [1, 0, 1], Tail.MAX), TOL6)
    assert eval_pi(b.code, b.lo) <= Q(3, 7) <= eval_pi(b.code, b.hi)
    assert b.width <= TOL6


def test_solve_is_deterministic():
    a = solve_lambda(Q(2, 7), code(3, [1, 2, 0], Tail.MAX), TOL6)
    b = solve_lambda(Q(2, 7), code(3, [1, 2, 0], Tail.MAX), TOL6)
    assert (a.lo, a.hi) == (b.lo, b.hi)


def test_solve_rejects_unreachable_and_zero_codes():
    with pytest.raises(NoRootError):
        solve_lambda(Q(1, 2), code(2, [0, 1]), TOL6)  # series tops out at 1/4 + eps
    with pytest.raises(NoRootError):
        solve_lambda(Q(1, 2), code(2, [0, 0]), TOL6)


@settings(max_examples=60, deadline=None)
@given(codes(max_m=3, max_len=6), rationals_01)
def test_solve_certification_property(c, xf):
    x = Q(xf)
    if is_zero_stream(c):
        return
    try:
        b = solve_lambda(x, c, Q(1, 2**40))
    except NoRootError:
        assert eval_pi(c, Q(1, c.m)) < x
        return
    assert eval_pi(b.code, b.lo) <= x <= eval_pi(b.code, b.hi)
    assert 0 < b.lo <= b.hi <= Q(1, c.m)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.lists(st.integers(0, 2), min_size=1, max_size=6), rationals_01)
def test_code_order_reverses_root_order(m, digits, xf):
    # lexicographically larger codes solve to smaller parameters
    digits = [min(d, m - 1) for d in digits]
    x = Q(xf)
    c_small = Code(m, tuple(digits), Tail.ZERO)
    c_large = Code(m, tuple(digits), Tail.MAX)
    if is_zero_stream(c_small) or c_small.canonical() == c_large.canonical():
        return
    try:
        b_small = solve_lambda(x, c_small, Q(1, 2**24))
        b_large = solve_lambda(x, c_large, Q(1, 2**24))
    except NoRootError:
        return
    assert compare_brackets(b_large, b_small) is Ordering.LESS


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 3), codes(max_m=3, max_len=5), codes(max_m=3, max_len=5), rationals_01)
def test_code_order_reversal_general_pairs(m, c1, c2, xf):
    c1 = Code(m, tuple(min(d, m - 1) for d in c1.prefix), c1.tail)
    c2 = Code(m, tuple(min(d, m - 1) for d in c2.prefix), c2.tail)
    order = lex_order((c1.prefix, c1.tail_digit), (c2.prefix, c2.tail_digit))
    if order == 0:
        return
    if order < 0:
        c1, c2 = c2, c1  # now c1 is the lexicographically larger stream
    if is_zero_stream(c2):
        return
    x = Q(xf)
    try:
        b1 = solve_lambda(x, c1, Q(1, 2**24))
        b2 = solve_lambda(x, c2, Q(1, 2**24))
    except NoRootError:
        return
    assert compare_brackets(b1, b2) is Ordering.LESS


@st.composite
def kernel_cases(draw):
    m = draw(st.integers(2, 4))
    prefix = tuple(draw(st.lists(st.integers(0, m - 1), max_size=12)))
    c = Code(m, prefix, draw(st.sampled_from([Tail.ZERO, Tail.MAX])))
    if draw(st.booleans()):
        k = draw(st.integers(2, 64))
        lam = Q(draw(st.integers(1, 2**k // m)), 2**k)
    else:
        lam = Q(
            draw(st.fractions(Fraction(1, 10**6), Fraction(1, m), max_denominator=10**6))
        )
    if draw(st.booleans()):
        x = eval_pi(c, lam)  # exercises the zero sign
    else:
        x = Q(draw(st.fractions(min_value=0, max_value=1, max_denominator=10**6)))
    return c, lam, x


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_sign_kernel_matches_fraction_evaluation(case):
    c, lam, x = case
    diff = eval_pi(c, lam) - x
    expected = (diff > 0) - (diff < 0)
    assert _sign(c, (lam.numerator, lam.denominator), x) == expected


@settings(max_examples=80, deadline=None)
@given(
    codes(max_m=4, max_len=12),
    rationals_01,
    st.sampled_from([Q(1, 2**40), Q(1, 2**64), Q(1, 1000)]),
)
def test_solve_contains_float_root_within_tol(c, xf, tol):
    x = Q(xf)
    if is_zero_stream(c):
        return
    try:
        b = solve_lambda(x, c, tol)
    except NoRootError:
        return
    root = float_root(c.prefix, c.tail is Tail.MAX, c.m, float(x))
    assert root is not None
    assert b.lo - Q(1, 10**9) <= Q(root) <= b.hi + Q(1, 10**9)
    assert b.width <= tol


@st.composite
def cell_cases(draw):
    m = draw(st.integers(2, 4))
    prefix = tuple(draw(st.lists(st.integers(0, m - 1), max_size=12)))
    tail_max = draw(st.booleans())
    c = Code(m, prefix, Tail.MAX if tail_max else Tail.ZERO)
    assume(not is_zero_stream(c))
    where = draw(st.sampled_from(["any", "dyadic", "cap"]))
    if where == "any":
        x = Q(draw(rationals_01))
    else:
        # x = series(lam) puts the root on a 2^-20 grid point or at 1/m
        if where == "dyadic":
            lam = Q(draw(st.integers(1, 2**20 // m)), 2**20)
        else:
            lam = Q(1, m)
        x = exact_series(prefix, tail_max, m, lam)
        assume(0 < x < 1)
    tol = draw(st.sampled_from([Q(1, 2**40), Q(1, 2**64), Q(1, 2**80), Q(1, 10**6)]))
    return c, x, tol


@settings(max_examples=200, deadline=None)
@given(cell_cases())
def test_solve_returns_the_exact_bisection_cell(case):
    c, x, tol = case
    expected = dyadic_cell(c, x, tol)
    if expected is None:
        with pytest.raises(NoRootError):
            solve_lambda(x, c, tol)
        return
    b = solve_lambda(x, c, tol)
    assert (b.lo, b.hi) == expected


@pytest.fixture
def cold_solves():
    yield
    # leave no bracket solved under a patched estimator in the cache
    exact_arith._bracket.cache_clear()


@pytest.mark.parametrize(
    "c, x",
    [
        (code(2, [1, 1]), Q(1, 2)),
        (code(2, [1, 0], Tail.MAX), Q(1, 2)),
        (code(3, [1, 2, 0], Tail.MAX), Q(2, 7)),
        (code(4, [3, 0, 2, 1]), Q(5, 9)),
    ],
)
def test_wrong_float_seed_still_certifies(monkeypatch, cold_solves, c, x):
    m = c.m
    true_root = float_root(c.prefix, c.tail is Tail.MAX, m, float(x))
    seeds = [float(x / (m - 1 + x)), 1.0 / m, true_root - 0.05, true_root + 0.05]
    # below the grid's lower end, above its upper end, and not finite
    seeds += [-1.0, 1.0, math.nan, math.inf, -math.inf]
    for tol in (Q(1, 2**40), Q(1, 2**64), Q(1, 10**6)):
        exact_arith._bracket.cache_clear()
        usual = solve_lambda(x, c, tol)
        for seed in seeds:
            # the hook estimates root * 2^k; seed it with the point `seed`
            monkeypatch.setattr(
                exact_arith, "_estimate_cell", lambda code, x, k, seed=seed: seed * 2**k
            )
            exact_arith._bracket.cache_clear()
            b = solve_lambda(x, c, tol)
            assert eval_pi(b.code, b.lo) <= x <= eval_pi(b.code, b.hi)
            assert b.width <= tol
            assert b.lo - Q(1, 10**9) <= Q(true_root) <= b.hi + Q(1, 10**9)
            # the grid cell is unique, so the estimate moves only the cost
            assert (b.lo, b.hi) == (usual.lo, usual.hi)
        monkeypatch.undo()


def counted(monkeypatch, owner, name):
    """Replace `owner.name` by a spy; returns the one-item list of its calls."""
    calls = [0]
    real = getattr(owner, name)

    def spy(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.fixture
def sign_tests(monkeypatch):
    """Cold solves, with every call of the sign kernel counted."""
    exact_arith._bracket.cache_clear()
    yield counted(monkeypatch, exact_arith, "_sign")
    exact_arith._bracket.cache_clear()


def test_sign_tests_of_cold_covers_are_pinned(sign_tests):
    cover(Q(1, 2), 2, 10, Q(1, 2**40))
    assert exact_arith._bracket.cache_info().misses == 1024
    assert sign_tests[0] == 3068
    exact_arith._bracket.cache_clear()
    sign_tests[0] = 0
    cover(Q(1, 2), 2, 14)
    assert exact_arith._bracket.cache_info().misses == 16384
    assert sign_tests[0] == 49148  # 3.00 per solve


def test_cached_brackets_are_bounded_by_2_pow_16():
    # one bound for the brackets of every grid
    assert exact_arith._bracket.cache_info().maxsize == 1 << 16


@pytest.mark.parametrize("x, m, expected", [(Q(1, 2), 2, 74), (Q(2, 5), 2, 701), (Q(2, 7), 3, 261)])
def test_sign_tests_of_the_certified_inequality_suite_are_pinned(sign_tests, x, m, expected):
    # every sign test here is a refinement step of a certified inequality
    tol = Q(1, 2**40)
    systems = ek_hulls(x, m, 20, tol)
    ell = GreedyExpansion(x, m).first_nonzero
    sign_tests[0] = 0
    for s in systems:
        assert certify_interval_width_bound(s.hull)
    for a, b in zip(systems, systems[1:]):
        if b.n_j > ell:
            assert certify_gap_width_bound(a.hull, b.hull, b.n_j, ell)
    endpoints = [e for s in systems for e in (s.hull.left, s.hull.right)]
    assert certify_expansion_separation(endpoints, x, m)
    theta_sequence(x, m, 20, tol)
    assert sign_tests[0] == expected


def test_cold_solve_at_2_pow_minus_256_makes_at_most_four_sign_tests(sign_tests):
    tol = Q(1, 2**256)
    for iv in cover(Q(1, 2), 2, 6).intervals + cover(Q(2, 7), 3, 3).intervals:
        for b in (iv.left, iv.right):
            if b.code.tail is Tail.TRUNCATED:  # the capped end 1/m is not solved
                continue
            exact_arith._bracket.cache_clear()
            before = sign_tests[0]
            fine = solve_lambda(b.x, b.code, tol)
            assert sign_tests[0] - before <= 4
            assert fine.width <= tol and b.lo <= fine.lo <= fine.hi <= b.hi


def test_cold_solve_with_a_root_never_evaluates_a_fraction(monkeypatch, cold_solves):
    def no_eval(*args):
        raise AssertionError("eval_pi called")

    monkeypatch.setattr(exact_arith, "eval_pi", no_eval)
    exact_arith._bracket.cache_clear()
    for c, x in [
        (code(2, [1, 1]), Q(1, 2)),
        (code(2, [1]), Q(1, 2)),  # root at 1/m
        (code(2, [], Tail.MAX), Q(1, 2)),  # root at the hull minimum
        (code(3, [1, 2, 0], Tail.MAX), Q(2, 7)),
    ]:
        for tol in (Q(1, 2**40), Q(1, 2**64), Q(1, 4)):
            solve_lambda(x, c, tol)


def test_no_root_message_names_the_series_value_at_one_over_m():
    with pytest.raises(NoRootError, match=r"^series of 01:zero reaches only 1/4 at 1/m, below x = 1/2$"):
        solve_lambda(Q(1, 2), code(2, [0, 1]), TOL6)


def test_cold_cover_never_evaluates_a_fraction(monkeypatch):
    # 2/5 never terminates, so its greedy spine has 0-tail codes with no root
    evals = counted(monkeypatch, exact_arith, "eval_pi")
    exact_arith._bracket.cache_clear()
    level = cover(Q(2, 5), 2, 8)
    assert level.intervals[-1].right.code.tail is Tail.TRUNCATED
    assert evals[0] == 0
    spine = Code(2, level.intervals[-1].word)
    with pytest.raises(NoRootError, match=r"^series of 0110011:zero reaches only 51/128 at 1/m, below x = 2/5$"):
        solve_lambda(Q(2, 5), spine)
    assert evals[0] == 1


# ---------------------------------------------------------------------------
# comparison


def test_compare_examples():
    x = Q(1, 2)
    b11 = solve_lambda(x, code(2, [1, 1]), TOL6)
    b10 = solve_lambda(x, code(2, [1, 0], Tail.MAX), TOL6)
    bmin = solve_lambda(x, code(2, [], Tail.MAX), TOL6)
    bhalf = solve_lambda(x, code(2, [1]), TOL6)
    assert compare_brackets(b11, b10) is Ordering.LESS
    assert compare_brackets(b11, solve_lambda(x, code(2, [1, 1]), TOL6)) is Ordering.EQUAL
    assert compare_brackets(bmin, bhalf) is Ordering.LESS


def test_compare_equal_is_symbolic_across_paddings():
    x = Q(1, 2)
    a = solve_lambda(x, code(2, [1, 0]), TOL6)  # 10 0^inf
    b = solve_lambda(x, code(2, [1]), TOL6)  # 1 0^inf, same stream
    assert compare_brackets(a, b) is Ordering.EQUAL


def test_compare_across_points_is_strict():
    a = solve_lambda(Q(1, 2), code(2, [1, 1]), TOL6)  # lam + lam^2 = 1/2: 0.366...
    b = solve_lambda(Q(1, 3), code(2, [1, 1]), TOL6)  # lam + lam^2 = 1/3: 0.263...
    assert compare_brackets(a, b) is Ordering.GREATER
    assert compare_brackets(b, a) is Ordering.LESS
    # across points only two exact brackets of one value are EQUAL
    e = solve_lambda(Q(3, 8), code(2, [1]), TOL6)
    f = solve_lambda(Q(3, 8) + Q(9, 64), code(2, [1, 1]), TOL6)
    assert e.is_exact and f.is_exact and e.lo == f.lo == Q(3, 8)
    assert compare_brackets(e, f) is Ordering.EQUAL


def test_touching_ends_decide_only_brackets_of_one_point(sign_tests):
    x = Q(1, 2)
    a = solve_lambda(x, code(2, [1, 1]), Q(1, 8))
    b = solve_lambda(x, code(2, [1, 0], Tail.MAX), Q(1, 8))
    e = solve_lambda(Q(3, 8), code(2, [1]), TOL6)  # lam = 3/8 exactly
    assert (a.lo, a.hi, b.lo, b.hi) == (Q(1, 3), Q(3, 8), Q(3, 8), Q(1, 2))
    assert e.is_exact and e.lo == a.hi
    sign_tests[0] = 0
    # distinct codes of one point have distinct roots, so touching decides
    assert compare_brackets(a, b) is Ordering.LESS
    assert compare_brackets(b, a) is Ordering.GREATER
    assert sign_tests[0] == 0
    # across points the values may coincide at the shared end
    assert compare_brackets(a, e, 0) is None
    assert compare_brackets(a, e) is Ordering.LESS
    assert sign_tests[0] > 0


def test_separation_cap_leaves_the_order_undecided(sign_tests):
    x = Q(1, 2)
    a = solve_lambda(x, code(2, [1, 1, 0, 1]), Q(1, 4))
    b = solve_lambda(x, code(2, [1, 1, 0, 0], Tail.MAX), Q(1, 4))
    sign_tests[0] = 0
    assert compare_brackets(a, b, 0) is None
    assert sign_tests[0] == 0  # a budget of 0 refinements makes no sign test
    assert compare_brackets(a, b, 1) is None
    assert sign_tests[0] == 1
    assert compare_brackets(a, b) in (Ordering.LESS, Ordering.GREATER)


def test_separate_brackets_raises_when_values_coincide():
    # lam = 1/3 is the root of lam = 1/3 and of lam^2 = 1/9; no dyadic end
    # reaches it, so the two brackets never come apart
    a = solve_lambda(Q(1, 3), code(2, [1]), Q(1, 2**24))
    b = solve_lambda(Q(1, 9), code(2, [0, 1]), Q(1, 2**24))
    assert compare_brackets(a, b) is None
    with pytest.raises(PrecisionExhaustedError, match="within 4096 refinements"):
        separate_brackets(a, b)


@settings(max_examples=60, deadline=None)
@given(codes(max_m=3, max_len=5), codes(max_m=3, max_len=5), rationals_01, rationals_01)
def test_compare_across_points_agrees_with_the_oracle(c1, c2, xf, yf):
    x, y = Q(xf), Q(yf)
    assume(not (x == y and c1.m == c2.m))
    assume(not is_zero_stream(c1) and not is_zero_stream(c2))
    try:
        # coarse brackets, so that about a third of the pairs overlap at first
        a = solve_lambda(x, c1, Q(1, 2**4))
        b = solve_lambda(y, c2, Q(1, 2**4))
    except NoRootError:
        return
    order = compare_brackets(a, b)
    if order is Ordering.EQUAL:
        assert a.is_exact and b.is_exact and a.lo == b.lo
    (a_lo, a_hi), (b_lo, b_hi) = (
        dyadic_cell(c, z, Q(1, 2**200)) for c, z in ((c1, x), (c2, y))
    )
    if a_hi < b_lo:
        assert order is Ordering.LESS
    elif b_hi < a_lo:
        assert order is Ordering.GREATER


def test_refine_shrinks_and_preserves_certificate():
    x = Q(5, 11)
    b = solve_lambda(x, code(2, [1, 0, 1]), Q(1, 4))
    for _ in range(30):
        nb = refine(b)
        assert nb.lo >= b.lo and nb.hi <= b.hi
        if not nb.is_exact:
            assert nb.width == b.width / 2
        assert eval_pi(nb.code, nb.lo) <= x <= eval_pi(nb.code, nb.hi)
        b = nb


@pytest.fixture
def refines(monkeypatch):
    """Calls of `exact_arith.refine`, the global that `refine_until` reads."""
    calls = [0]

    def counted(bracket):
        calls[0] += 1
        return refine(bracket)

    monkeypatch.setattr(exact_arith, "refine", counted)
    return calls


def test_refine_until_returns_the_inputs_when_the_claim_holds_at_once(refines):
    x = Q(1, 2)
    a = solve_lambda(x, code(2, [1, 1]), Q(1, 4))
    b = solve_lambda(x, code(2, [1]), Q(1, 4))
    assert refine_until(lambda a, b: a.lo < b.hi, a, b) == (a, b)
    assert refines[0] == 0


def test_refine_until_gives_up_after_the_budget(refines):
    tests = [0]

    def never(a, b):
        tests[0] += 1
        return False

    a = solve_lambda(Q(1, 2), code(2, [1, 1]), Q(1, 4))
    b = solve_lambda(Q(1, 2), code(2, [1, 0, 1]), Q(1, 4))
    assert refine_until(never, a, b) is None
    assert tests[0] == CERTIFY_BUDGET
    # both brackets are halved between tests, never after the last one
    assert refines[0] == 2 * (CERTIFY_BUDGET - 1)


def test_refine_until_moves_one_bracket_below_the_cap(refines):
    # at a coarse tolerance the bracket reaches up to the hull maximum 1/m
    b = solve_lambda(Q(1, 2), code(2, [1, 1]), Q(1, 2))
    assert (b.lo, b.hi) == (Q(1, 3), Q(1, 2))
    (e,) = refine_until(lambda e: e.hi * 2 < 1, b)
    assert (e.lo, e.hi) == (Q(1, 3), Q(5, 12))
    assert e.code == b.code and eval_pi(e.code, e.lo) <= Q(1, 2) <= eval_pi(e.code, e.hi)
    assert refines[0] == 1


# ---------------------------------------------------------------------------
# smallest-denominator oracle (samples points inside gaps)


def test_simplest_between_basic():
    assert simplest_between(Q(1, 3), Q(1, 2)) == Q(1, 2)
    assert simplest_between(Q(36, 100), Q(39, 100)) == Q(3, 8)
    assert simplest_between(Q(2, 7), Q(2, 7)) == Q(2, 7)


@settings(max_examples=100, deadline=None)
@given(small_rationals_01, small_rationals_01)
def test_simplest_between_is_minimal_denominator(a, b):
    lo, hi = sorted([Q(a), Q(b)])
    best = simplest_between(lo, hi)
    assert lo <= best <= hi
    # nothing with a smaller denominator fits in [lo, hi]
    for den in range(1, best.denominator):
        lo_num = math.ceil(lo * den)
        assert not lo_num <= hi * den, (lo, hi, best, den)


def test_code_canonical_and_parse_roundtrip():
    c = Code(2, (1, 0, 1, 1), Tail.MAX)
    assert c.canonical() == Code(2, (1, 0), Tail.MAX)
    assert Code.parse("101:max", 2) == Code(2, (1, 0, 1), Tail.MAX)
    assert Code.parse("10", 2) == Code(2, (1, 0), Tail.ZERO)
    assert Code.parse("1,11,0:zero", 12) == Code(12, (1, 11, 0), Tail.ZERO)
    with pytest.raises(DomainError):
        Code(2, (2,), Tail.ZERO)


def test_bracket_rejects_malformed_bounds():
    with pytest.raises(DomainError):
        Bracket(Q(1, 2), Q(1, 3), code(2, [1]), Q(1, 2))
    with pytest.raises(DomainError):
        Bracket(Q(1, 3), Q(2, 3), code(2, [1]), Q(1, 2))
