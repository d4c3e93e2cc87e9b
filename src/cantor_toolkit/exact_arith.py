"""Exact evaluation of digit-series values and certified root bracketing.

A point of the self-similar family is written as a digit series
``sum_i d_i * lam**i`` with digits in {0, ..., m-1}.  This module evaluates
such series exactly for rational ``lam``, and brackets the (typically
irrational) parameter ``lam`` solving ``series(lam) = x`` between exact
rationals with a certified sign change.  All ordering decisions downstream
reduce to the comparisons made here, so nothing is ever rounded.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from ._rat import Q, to_rational
from .errors import DomainError, NoRootError, PrecisionExhaustedError

#: Default bracket width for solved parameters; callers refine on demand
#: rather than assuming this suffices.
DEFAULT_TOL = Q(1, 2**64)

#: Refinement steps allowed when separating two brackets before giving up.
SEPARATION_CAP = 4096


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1
    #: Only produced when comparing truncated digit codes whose completion
    #: ranges overlap.
    INCOMPARABLE = 2


class Tail(enum.Enum):
    """Suffix convention of a digit code."""

    ZERO = "zero"  # suffix 0, 0, 0, ...
    MAX = "max"  # suffix m-1, m-1, ...
    TRUNCATED = "trunc"  # unknown suffix; only bounded between the two above


@dataclass(frozen=True)
class Code:
    """A digit word over {0, ..., m-1} plus a tail marker.

    Explicit tails (ZERO / MAX) denote a fully determined infinite digit
    stream; TRUNCATED codes can only be bounded between their two
    completions.
    """

    m: int
    prefix: tuple[int, ...]
    tail: Tail = Tail.ZERO

    def __post_init__(self):
        if self.m < 2:
            raise DomainError("alphabet size m must be >= 2, got %r" % (self.m,))
        if not isinstance(self.tail, Tail):
            raise DomainError("tail must be a Tail member")
        for d in self.prefix:
            if not 0 <= d <= self.m - 1:
                raise DomainError("digit %r outside 0..%d" % (d, self.m - 1))
        object.__setattr__(self, "prefix", tuple(int(d) for d in self.prefix))

    # -- stream access ------------------------------------------------

    @property
    def tail_digit(self) -> int:
        if self.tail is Tail.ZERO:
            return 0
        if self.tail is Tail.MAX:
            return self.m - 1
        raise DomainError("truncated code has no determined tail digit")

    def digit(self, i: int) -> int:
        """1-based digit of the induced infinite stream."""
        if i < 1:
            raise DomainError("digit positions are 1-based")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.tail_digit

    def canonical(self) -> "Code":
        """Strip prefix digits absorbed by the tail, so equal streams compare equal."""
        if self.tail is Tail.TRUNCATED:
            return self
        t = self.tail_digit
        p = self.prefix
        n = len(p)
        while n and p[n - 1] == t:
            n -= 1
        return self if n == len(p) else Code(self.m, p[:n], self.tail)

    def is_zero_stream(self) -> bool:
        c = self.canonical()
        return c.tail is Tail.ZERO and not c.prefix

    def completions(self) -> tuple["Code", "Code"]:
        """(smallest, largest) explicit completion of a truncated code."""
        return (Code(self.m, self.prefix, Tail.ZERO), Code(self.m, self.prefix, Tail.MAX))

    # -- text form ----------------------------------------------------

    def describe(self) -> str:
        if self.m <= 10:
            word = "".join(str(d) for d in self.prefix)
        else:
            word = ",".join(str(d) for d in self.prefix)
        return "%s:%s" % (word, self.tail.value)

    @classmethod
    def parse(cls, text: str, m: int) -> "Code":
        """Parse '110:zero' / '10:max' style code literals."""
        word, sep, tailname = text.partition(":")
        if not sep:
            tailname = "zero"
        try:
            tail = Tail(tailname.strip().lower())
        except ValueError:
            raise DomainError("unknown tail %r (expected zero|max|trunc)" % (tailname,))
        word = word.strip()
        if not word:
            digits: tuple[int, ...] = ()
        elif "," in word:
            digits = tuple(int(p) for p in word.split(","))
        else:
            digits = tuple(int(ch) for ch in word)
        return cls(m, digits, tail)


@dataclass(frozen=True)
class Bracket:
    """An exact rational interval [lo, hi] certified to contain the unique
    parameter lam in (0, 1/m] with series(code)(lam) = x.

    ``lo == hi`` marks an exactly known (rational) parameter; that arises
    when bisection lands on the root, and for the capped right endpoint
    1/m of a basic interval on the greedy spine.
    """

    lo: Q
    hi: Q
    code: Code
    x: Q

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise DomainError("bracket bounds out of order")
        if not (0 < self.lo and self.hi * self.code.m <= 1):
            raise DomainError("bracket must lie inside (0, 1/m]")

    @property
    def m(self) -> int:
        return self.code.m

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Q:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Q:
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        return float(self.midpoint)


# ---------------------------------------------------------------------------
# evaluation


def eval_pi(code: Code, lam) -> Q:
    """Exact value of the digit series of `code` at parameter `lam`.

    The MAX tail contributes the closed form (m-1) lam^(n+1) / (1-lam)
    after an n-digit prefix.
    """
    lam = to_rational(lam)
    m = code.m
    if not (0 < lam and lam * m <= 1):
        raise DomainError("parameter must lie in (0, 1/m]")
    if code.tail is Tail.TRUNCATED:
        raise DomainError("cannot evaluate a truncated code exactly")
    acc = (m - 1) * lam / (1 - lam) if code.tail is Tail.MAX else Q(0)
    for d in reversed(code.prefix):
        acc = (acc + d) * lam
    return acc


def eval_pi_bounds(code: Code, lam) -> tuple[Q, Q]:
    """Exact value bounds; equal for explicit tails, completion bounds otherwise."""
    if code.tail is not Tail.TRUNCATED:
        v = eval_pi(code, lam)
        return v, v
    lo_code, hi_code = code.completions()
    return eval_pi(lo_code, lam), eval_pi(hi_code, lam)


# ---------------------------------------------------------------------------
# mediant-rounded bisection


def simplest_between(lo, hi) -> Q:
    """Smallest-denominator rational in the closed interval [lo, hi]."""
    if hi < lo:
        lo, hi = hi, lo
    cl = math.ceil(lo)
    if cl <= hi:
        return Q(cl)
    fl = math.floor(lo)
    return fl + 1 / simplest_between(1 / (hi - fl), 1 / (lo - fl))


def _split_point(lo, hi) -> Q:
    # Split in the middle third at the smallest available denominator; the
    # true midpoint lies in that window, so denominators never grow faster
    # than plain bisection while usually staying far smaller.
    width = hi - lo
    return simplest_between(lo + width / 3, hi - width / 3)


def resolve_tol(tol) -> Q:
    """The bracket width target: DEFAULT_TOL for None, else a positive rational.

    Every cached entry point keys on the resolved value, so omitting `tol`
    and passing DEFAULT_TOL share one cache entry.
    """
    if tol is None:
        return DEFAULT_TOL
    tol = to_rational(tol)
    if tol <= 0:
        raise DomainError("tol must be positive")
    return tol


def solve_lambda(x, code: Code, tol=None) -> Bracket:
    """Bracket the unique lam in (0, 1/m] with series(code)(lam) = x.

    Deterministic for fixed inputs; raises NoRootError when the series
    cannot reach x by lam = 1/m (the coding does not occur), or when the
    code is identically zero.
    """
    x = to_rational(x)
    if not 0 < x < 1:
        raise DomainError("x must lie in (0, 1)")
    tol = resolve_tol(tol)
    canon = code.canonical()
    if canon.tail is Tail.TRUNCATED:
        raise DomainError("cannot solve against a truncated code")
    if canon.is_zero_stream():
        raise NoRootError("the zero code names only the point 0")
    return _solve_cached(x, canon, tol)


@functools.lru_cache(maxsize=1 << 16)
def _solve_cached(x, code: Code, tol) -> Bracket:
    m = code.m
    hi = Q(1, m)
    v = eval_pi(code, hi)
    if v < x:
        raise NoRootError(
            "series of %s reaches only %s at 1/m, below x = %s" % (code.describe(), v, x)
        )
    if v == x:
        return Bracket(hi, hi, code, x)
    # Every code is dominated by the all-(m-1) stream, whose root is
    # x/(m-1+x); that pins a positive lower starting point.
    lo = x / (m - 1 + x)
    if eval_pi(code, lo) == x:
        return Bracket(lo, lo, code, x)
    while hi - lo > tol:
        s = _split_point(lo, hi)
        v = eval_pi(code, s)
        if v == x:
            return Bracket(s, s, code, x)
        if v < x:
            lo = s
        else:
            hi = s
    return Bracket(lo, hi, code, x)


def refine(bracket: Bracket) -> Bracket:
    """One certified shrink step (width factor between 1/3 and 2/3)."""
    if bracket.is_exact:
        return bracket
    s = _split_point(bracket.lo, bracket.hi)
    v = eval_pi(bracket.code, s)
    if v == bracket.x:
        return Bracket(s, s, bracket.code, bracket.x)
    if v < bracket.x:
        return Bracket(s, bracket.hi, bracket.code, bracket.x)
    return Bracket(bracket.lo, s, bracket.code, bracket.x)


def refine_to(bracket: Bracket, tol) -> Bracket:
    tol = to_rational(tol)
    while bracket.width > tol:
        bracket = refine(bracket)
    return bracket


# ---------------------------------------------------------------------------
# bracket comparison


def _check_comparable(a: Bracket, b: Bracket):
    if a.m != b.m:
        raise DomainError("brackets defined over different alphabets")
    if a.x != b.x:
        raise DomainError("brackets defined over different points; compare values instead")


def compare_brackets(a: Bracket, b: Bracket, max_steps: int = SEPARATION_CAP) -> Ordering:
    """Certified order of the two bracketed parameters (same defining point).

    Equality is decided symbolically: identical canonical codes name the
    same parameter, and distinct codes never do (the coding map is
    injective), so refinement of distinct codes always terminates in a
    strict order.
    """
    _check_comparable(a, b)
    if a.code.canonical() == b.code.canonical():
        return Ordering.EQUAL
    if a.is_exact and b.is_exact:
        # Exact equality of two pinned values is still certified arithmetic;
        # it arises only when a capped hull endpoint meets a solved root.
        if a.lo == b.lo:
            return Ordering.EQUAL
        return Ordering.LESS if a.lo < b.lo else Ordering.GREATER
    # Distinct roots: touching brackets already decide the order.
    return _separate(a, b, max_steps, allow_touching=True)[0]


def compare_bracket_values(a: Bracket, b: Bracket, max_steps: int = SEPARATION_CAP) -> Ordering:
    """Certified order of two bracketed values from unrelated equations.

    Unlike compare_brackets this cannot rule out genuine equality, so only
    strictly disjoint brackets decide; two exact equal values compare
    EQUAL.  Raises PrecisionExhaustedError when the values cannot be
    separated within the cap (they may coincide).
    """
    if a.is_exact and b.is_exact:
        if a.lo == b.lo:
            return Ordering.EQUAL
        return Ordering.LESS if a.lo < b.lo else Ordering.GREATER
    return _separate(a, b, max_steps, allow_touching=False)[0]


def _separate(
    a: Bracket, b: Bracket, max_steps: int, allow_touching: bool
) -> tuple[Ordering, Bracket, Bracket]:
    for _ in range(max_steps + 1):
        if allow_touching:
            if a.hi <= b.lo:
                return Ordering.LESS, a, b
            if b.hi <= a.lo:
                return Ordering.GREATER, a, b
        else:
            if a.hi < b.lo:
                return Ordering.LESS, a, b
            if b.hi < a.lo:
                return Ordering.GREATER, a, b
        if a.is_exact and b.is_exact:
            break
        # shrink the wider side first; exact brackets cannot shrink
        if b.is_exact or (not a.is_exact and a.width >= b.width):
            a = refine(a)
        else:
            b = refine(b)
    raise PrecisionExhaustedError(
        "could not separate brackets for %s and %s within %d refinements"
        % (a.code.describe(), b.code.describe(), max_steps)
    )


def separate_brackets(a: Bracket, b: Bracket, max_steps: int = SEPARATION_CAP) -> tuple[Bracket, Bracket]:
    """Refine until a.hi < b.lo, returning the refined pair (a must precede b)."""
    order, a, b = _separate(a, b, max_steps, allow_touching=False)
    if order is not Ordering.LESS:
        raise DomainError("brackets are not in the expected order")
    return a, b
