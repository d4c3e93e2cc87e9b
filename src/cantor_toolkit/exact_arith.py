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

from ._rat import Q, to_alphabet, to_int, to_rational
from .errors import DomainError, NoRootError, PrecisionExhaustedError

#: Default bracket width for solved parameters; callers refine on demand
#: rather than assuming this suffices.
DEFAULT_TOL = Q(1, 2**64)

#: Refinement steps allowed when separating two brackets before giving up.
SEPARATION_CAP = 4096

#: Tests of one certified inequality before `refine_until` gives up.  Deep
#: subsystems need brackets far tighter than the solve tolerance (hull gaps
#: shrink like lam^(2 n_j)), and each refinement step only halves a bracket.
CERTIFY_BUDGET = 512


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class Tail(enum.Enum):
    """Suffix convention of a digit code."""

    ZERO = "zero"  # suffix 0, 0, 0, ...
    MAX = "max"  # suffix m-1, m-1, ...
    TRUNCATED = "trunc"  # unknown suffix; only bounded between the two above


@dataclass(frozen=True)
class Code:
    """A digit word over {0, ..., m-1} plus a tail marker.

    Explicit tails (ZERO / MAX) denote a fully determined infinite digit
    stream; TRUNCATED codes leave the suffix open.

    ``Code(m, prefix, tail)`` is the checked constructor: it refuses an m
    or digit that is not an integer (``operator.index``: floats and
    strings are refused, not truncated), m < 2, digits outside 0..m-1 and
    a tail that is not a `Tail`.  ``Code._of`` is the trusted one, for
    callers whose parts come from a code or word already checked.
    """

    m: int
    prefix: tuple[int, ...]
    tail: Tail = Tail.ZERO

    def __post_init__(self):
        object.__setattr__(self, "m", to_alphabet(self.m))
        if not isinstance(self.tail, Tail):
            raise DomainError("tail must be a Tail member")
        object.__setattr__(self, "prefix", tuple(_digit(d, self.m) for d in self.prefix))

    @classmethod
    def _of(cls, m: int, prefix: tuple[int, ...], tail: Tail) -> "Code":
        """Build a code without checks: m >= 2, `prefix` a tuple of ints in
        0..m-1 and `tail` a `Tail` are the caller's guarantee."""
        code = object.__new__(cls)
        code.__dict__.update(m=m, prefix=prefix, tail=tail)
        return code

    # -- stream access ------------------------------------------------

    @property
    def tail_digit(self) -> int:
        if self.tail is Tail.ZERO:
            return 0
        if self.tail is Tail.MAX:
            return self.m - 1
        raise DomainError("truncated code has no determined tail digit")

    def canonical(self) -> "Code":
        """Strip prefix digits absorbed by the tail, so equal streams compare equal."""
        if self.tail is Tail.TRUNCATED:
            return self
        t = self.tail_digit
        p = self.prefix
        n = len(p)
        while n and p[n - 1] == t:
            n -= 1
        # a slice of a checked prefix is checked
        return self if n == len(p) else Code._of(self.m, p[:n], self.tail)

    # -- text form ----------------------------------------------------

    def describe(self) -> str:
        if self.m <= 10:
            word = "".join(str(d) for d in self.prefix)
        else:
            word = ",".join(str(d) for d in self.prefix)
        return "%s:%s" % (word, self.tail.value)

    @classmethod
    def parse(cls, text: str, m: int) -> "Code":
        """Parse '110:zero' / '10:max' style code literals, reading a word
        with a comma as comma-separated digits; DomainError otherwise."""
        word, sep, tailname = text.partition(":")
        if not sep:
            tailname = "zero"
        try:
            tail = Tail(tailname.strip().lower())
        except ValueError:
            raise DomainError("unknown tail %r (expected zero|max|trunc)" % (tailname,))
        word = word.strip()
        digits = []
        for part in word.split(",") if "," in word else word:
            # int() alone also takes underscores and non-ASCII digits
            part = part.strip()
            if not (part.isascii() and part.isdigit()):
                raise DomainError("cannot read digit %r of code %r" % (part, text))
            digits.append(int(part))
        return cls(m, tuple(digits), tail)


def _digit(d, m: int) -> int:
    """`d` as an int in 0..m-1, or DomainError."""
    d = to_int(d, "digit")
    if not 0 <= d < m:
        raise DomainError("digit %r outside 0..%d" % (d, m - 1))
    return d


@dataclass(frozen=True)
class Bracket:
    """An exact rational interval [lo, hi] certified to contain the unique
    parameter lam in (0, 1/m] with series(code)(lam) = x.

    Solved ends are dyadic rationals c/2^k, each proved by an exact sign
    test, or the hull ends x/(m-1+x) and 1/m, whose signs are certain.
    ``lo == hi`` marks an exactly known (rational) parameter; that arises
    when a sign test lands on the root, for the all-(m-1) code (root
    x/(m-1+x)), and for the capped right endpoint 1/m of a basic interval
    on the greedy spine.

    ``Bracket(lo, hi, code, x)`` is the checked constructor: it refuses
    lo > hi and ends outside (0, 1/m].  ``Bracket._of`` is the trusted
    one, used only where the ends are in range by construction: the
    solver's returns (see `_Grid.solve`), `refine`, and the capped end
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

    @classmethod
    def _of(cls, lo: Q, hi: Q, code: Code, x: Q) -> "Bracket":
        """Build a bracket without checks: 0 < lo <= hi <= 1/m, all `Q`,
        are the caller's guarantee."""
        bracket = object.__new__(cls)
        bracket.__dict__.update(lo=lo, hi=hi, code=code, x=x)
        return bracket

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


# ---------------------------------------------------------------------------
# integer sign kernel and certified root cells


def _sign(code: Code, lam: tuple[int, int], x) -> int:
    """Sign (-1, 0 or 1) of series(code)(p/q) - x for ``lam = (p, q)``.

    Integer Horner on numerator and denominator: no rational is built and no
    gcd is taken.  Any rational 0 <= p/q < 1 works (the series is increasing
    there); `code` must have an explicit tail.  Every certified decision of
    the solver (the existence check at 1/m and each bracket end) is one call
    of this kernel, and so is each step of `refine`.
    """
    p, q = lam
    if code.tail is Tail.MAX:
        num, den = (code.m - 1) * p, q - p
    else:
        num, den = 0, 1
    for d in reversed(code.prefix):
        num = (num + d * den) * p
        den *= q
    diff = num * x.denominator - x.numerator * den
    return (diff > 0) - (diff < 0)


#: Grids up to 2^-FLOAT_BITS take the float Newton estimate as it is; a
#: double's 53 bits less the rounding of a Horner pass leave this many.
FLOAT_BITS = 40

#: Bits below the target grid that the fixed-point Newton steps carry, so
#: that their truncation errors rarely move the estimate across a cell edge
#: (with 8, 83 of the 16,382 estimates of a depth-14 cover at 2^-64 were one
#: cell off; with 16, none).
GUARD_BITS = 16


def _float_newton(code: Code, x: float) -> float:
    """Float Newton iterates from 1/m towards the root of series(lam) = x.

    The series is increasing and convex on (0, 1), so the iterates fall
    monotonically to the root.  The loop stops after a step below 2^-26 of
    the estimate: Newton's error after it is about that step squared, under
    a double's rounding.
    """
    m = code.m
    tail = m - 1 if code.tail is Tail.MAX else 0
    digits = code.prefix[::-1]
    lam = 1.0 / m
    for _ in range(64):
        r = 1.0 - lam
        v, dv = tail * lam / r, tail / (r * r)
        for d in digits:
            s = v + d
            v, dv = s * lam, dv * lam + s
        if not dv > 0:
            break
        step = (v - x) / dv
        lam -= step
        if step <= lam * 2.0**-26:
            break
    return lam


def _estimate_cell(code: Code, x, k: int):
    """Untrusted estimate of root * 2^k; the solver uses only its floor.

    Float Newton, then, for grids finer than a double reaches, fixed-point
    integer Newton steps on T / 2^(k + GUARD_BITS), each doubling the
    correct bits.  Nothing here is proved: the solver checks the cell with
    exact sign tests and widens it when the estimate is wrong.
    """
    lam = _float_newton(code, float(x))
    if k <= FLOAT_BITS:
        return lam * (1 << k)
    if not math.isfinite(lam):
        return lam
    prec = k + GUARD_BITS
    one = 1 << prec
    num, den = lam.as_integer_ratio()
    t = (num << prec) // den
    cap = one // code.m
    target = (x.numerator << prec) // x.denominator
    tail = code.m - 1 if code.tail is Tail.MAX else 0
    digits = code.prefix[::-1]
    bits = FLOAT_BITS
    while bits < prec:
        r = one - t
        v, dv = ((tail * t) << prec) // r, (tail << 3 * prec) // (r * r)
        for d in digits:
            s = v + (d << prec)
            v, dv = (s * t) >> prec, ((dv * t) >> prec) + s
        if dv <= 0:
            break
        t = min(t - ((v - target) << prec) // dv, cap)
        bits *= 2
    return t >> GUARD_BITS


def resolve_tol(tol) -> Q:
    """The bracket width target: DEFAULT_TOL for None, else a positive rational.

    Every cached entry point keys on the resolved value, so omitting `tol`
    and passing DEFAULT_TOL share one cache entry.
    """
    if tol is None:
        return DEFAULT_TOL
    tol = to_rational(tol)
    if tol.numerator <= 0:
        raise DomainError("tol must be positive")
    return tol


def solve_lambda(x, code: Code, tol=None) -> Bracket:
    """Bracket the unique lam in (0, 1/m] with series(code)(lam) = x.

    Deterministic for fixed inputs; raises NoRootError when the series
    cannot reach x by lam = 1/m (the coding does not occur), or when the
    code is identically zero.
    """
    x = to_rational(x)
    if not 0 < x.numerator < x.denominator:
        raise DomainError("x must lie in (0, 1)")
    tol = resolve_tol(tol)
    canon = code.canonical()
    if canon.tail is Tail.TRUNCATED:
        raise DomainError("cannot solve against a truncated code")
    if canon.tail is Tail.ZERO and not canon.prefix:
        raise NoRootError("the zero code names only the point 0")
    return _grid(x, canon.m, tol).root(canon)


def _hull(x, m: int) -> tuple[Q, Q]:
    """The hull [x/(m-1+x), 1/m] of the roots, for a checked x and m: every
    code is dominated by the all-(m-1) stream, whose root is x/(m-1+x)."""
    return x / (m - 1 + x), Q(1, m)


class _Grid:
    """The solver for one checked (x, m, tol) and the constants its solves
    share; `_bracket` caches its brackets by (grid identity, code)."""

    def __init__(self, x, m: int, tol):
        self.x, self.m = x, m
        self.hull = hull_lo, cap = _hull(x, m)
        self.whole_hull = cap - hull_lo <= tol
        # Grid 2^-k, the largest power of two <= tol (so k >= 2 unless
        # `whole_hull`); gl = floor(hull_lo 2^k) and gh = ceil(2^k/m), so the
        # signs there are certain.
        self.k = ((tol.denominator - 1) // tol.numerator).bit_length()
        self.one = 1 << self.k
        self.gl, self.gh = math.floor(hull_lo * self.one), -(-self.one // m)

    def root(self, code: Code) -> Bracket:
        """The bracket of a canonical code with an explicit tail, or NoRootError."""
        bracket = _bracket(self, code)
        if bracket is None:
            raise NoRootError(
                "series of %s reaches only %s at 1/m, below x = %s"
                % (code.describe(), eval_pi(code, self.hull[1]), self.x)
            )
        return bracket

    def endpoints(self, word: tuple[int, ...]) -> tuple[Bracket, Bracket]:
        """The end brackets of the basic interval of a checked word: the
        roots of word+max-tail and word+zero-tail."""
        m, cap = self.m, self.hull[1]
        left = self.root(Code._of(m, word, Tail.MAX).canonical())
        right = _bracket(self, Code._of(m, word, Tail.ZERO).canonical())
        if right is None:
            # Greedy spine: codings starting with this word accumulate at the
            # hull maximum, reached by the greedy coding itself.
            right = Bracket._of(cap, cap, Code._of(m, word, Tail.TRUNCATED), self.x)
        return left, right

    def solve(self, code: Code) -> Bracket | None:
        """The bracket of a canonical code with an explicit tail, or None
        where the series stays below x at 1/m.

        Every return builds its bracket with `Bracket._of`: each end is 1/m,
        the hull end x/(m-1+x), or a grid point c/2^k with gl <= c <= gh, and
        every grid end is clamped to [gl, gh] and cut back to the hull ends;
        so 0 < lo <= hi <= 1/m holds by construction.
        """
        x, m = self.x, self.m
        hull_lo, cap = self.hull
        s = _sign(code, (1, m), x)
        if s < 0:
            return None
        if s == 0:
            return Bracket._of(cap, cap, code, x)
        # Below 1/m distinct digit streams take distinct values, so no other
        # (canonical) code has its root at hull_lo.
        if code.tail is Tail.MAX and not code.prefix:
            return Bracket._of(hull_lo, hull_lo, code, x)
        if self.whole_hull:
            return Bracket._of(hull_lo, cap, code, x)
        # Every widening below stops by gl and gh; the final bracket is cut
        # back to the hull, which moves only an end at gl or gh.
        one, gl, gh = self.one, self.gl, self.gh
        estimate = _estimate_cell(code, x, self.k)
        try:
            c = math.floor(estimate)
        except (ValueError, OverflowError):  # nan or infinite
            c = gl
        lo_c = min(max(c, gl), gh - 1)
        hi_c = lo_c + 1
        step = 1
        while (s := _sign(code, (lo_c, one), x)) > 0:
            lo_c, hi_c = max(lo_c - step, gl), lo_c
            step *= 2
        if s == 0:
            return Bracket._of(Q(lo_c, one), Q(lo_c, one), code, x)
        while (s := _sign(code, (hi_c, one), x)) < 0:
            lo_c, hi_c = hi_c, min(hi_c + step, gh)
            step *= 2
        if s == 0:
            return Bracket._of(Q(hi_c, one), Q(hi_c, one), code, x)
        # integer bisection down to the one grid cell that holds the root
        while hi_c - lo_c > 1:
            mid = (lo_c + hi_c) // 2
            s = _sign(code, (mid, one), x)
            if s == 0:
                return Bracket._of(Q(mid, one), Q(mid, one), code, x)
            if s < 0:
                lo_c = mid
            else:
                hi_c = mid
        lo = hull_lo if lo_c == gl else Q(lo_c, one)
        return Bracket._of(lo, cap if hi_c == gh else Q(hi_c, one), code, x)


# One bound for all grids: at most 2^16 brackets, least recently used out.
# Threads that miss one code at once each solve it, to the same bracket.
# Reuse: 3,370 of 5,560 bracket lookups in `intersect --kmax 12` hit.
_bracket = functools.lru_cache(maxsize=1 << 16)(_Grid.solve)
# A rebuilt grid misses its old brackets. 12 grids keep every reuse over 30
# analysis-warm point pairs; 8 lose 40 of the first 2,498 hits.
_grid = functools.lru_cache(maxsize=64)(_Grid)


def refine(bracket: Bracket) -> Bracket:
    """One certified halving step: keep the half whose ends straddle the root.

    The new bracket keeps one end of `bracket` and its midpoint, so it lies
    in its parent and is built with `Bracket._of`.
    """
    if bracket.is_exact:
        return bracket
    s = (bracket.lo + bracket.hi) / 2
    sign = _sign(bracket.code, (s.numerator, s.denominator), bracket.x)
    if sign == 0:
        return Bracket._of(s, s, bracket.code, bracket.x)
    if sign < 0:
        return Bracket._of(s, bracket.hi, bracket.code, bracket.x)
    return Bracket._of(bracket.lo, s, bracket.code, bracket.x)


def refine_until(holds, *brackets):
    """Halve every bracket in lockstep until ``holds(*brackets)`` is true.

    Returns the refined brackets as a tuple, or None once `holds` has
    failed CERTIFY_BUDGET times.  Each certified inequality of the
    toolkit is such a `holds`: a rational test on the bracket ends.
    """
    for step in range(CERTIFY_BUDGET):
        if step:
            brackets = tuple(map(refine, brackets))
        if holds(*brackets):
            return brackets
    return None


# ---------------------------------------------------------------------------
# bracket comparison


def compare_brackets(a: Bracket, b: Bracket, max_steps: int = SEPARATION_CAP) -> Ordering | None:
    """Certified order of two bracketed parameters, or None when `max_steps`
    refinements leave it undecided.

    Brackets of one point (same x and alphabet) with equal canonical codes
    name the same parameter, and distinct codes of one point never do (the
    coding map is injective), so for them touching ends already decide.
    Brackets of different points decide only on strictly disjoint ends, and
    two exact brackets of one value compare EQUAL.
    """
    one_point = a.x == b.x and a.m == b.m
    if one_point and a.code.canonical() == b.code.canonical():
        return Ordering.EQUAL
    if a.is_exact and b.is_exact and a.lo == b.lo:
        # within one point, only where a capped hull endpoint meets a solved root
        return Ordering.EQUAL
    return _separate(a, b, max_steps, touching=one_point)[0]


def _separate(
    a: Bracket, b: Bracket, max_steps: int, touching: bool
) -> tuple[Ordering | None, Bracket, Bracket]:
    """Refine the wider bracket up to `max_steps` times until the two are
    disjoint, or touch if `touching`: (the order or None, refined a, b)."""
    for step in range(max_steps + 1):
        if step:
            # shrink the wider side first; exact brackets cannot shrink
            if b.is_exact or (not a.is_exact and a.width >= b.width):
                a = refine(a)
            else:
                b = refine(b)
        if a.hi < b.lo or (touching and a.hi == b.lo):
            return Ordering.LESS, a, b
        if b.hi < a.lo or (touching and b.hi == a.lo):
            return Ordering.GREATER, a, b
        if a.is_exact and b.is_exact:
            break
    return None, a, b


def separate_brackets(a: Bracket, b: Bracket) -> tuple[Bracket, Bracket]:
    """Refine until a.hi < b.lo, returning the refined pair (a must precede b)."""
    order, a, b = _separate(a, b, SEPARATION_CAP, touching=False)
    if order is None:
        raise PrecisionExhaustedError(
            "could not separate brackets for %s and %s within %d refinements"
            % (a.code.describe(), b.code.describe(), SEPARATION_CAP)
        )
    if order is not Ordering.LESS:
        raise DomainError("brackets are not in the expected order")
    return a, b
