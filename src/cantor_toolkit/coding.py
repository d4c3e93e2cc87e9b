"""Digit-level machinery: greedy base-m expansions, unique codings, membership.

For lam < 1/m the pieces lam*([0,H]+d) of the convex hull [0, H],
H = (m-1)lam/(1-lam), are pairwise disjoint, so each point of the
self-similar set has exactly one coding and the digit-extraction loop below
is deterministic.  At lam = 1/m the pieces touch and the loop reduces to
the greedy (lexicographically largest) base-m expansion.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Optional

from ._rat import Q, to_rational
from .errors import DomainError, HullViolationError
from .exact_arith import Code, Ordering, Tail

#: Remainder states tracked for cycle detection before giving up; bounds
#: memory on adversarial parameter denominators.
DEFAULT_STATE_CAP = 100_000

DEFAULT_MAX_STEPS = 256


class GreedyExpansion:
    """Lazily extended greedy base-m digit stream of a rational x in (0, 1).

    The greedy stream is the lexicographically largest expansion; for
    m-adic rationals that is the terminating (0-tail) form.  Extension is
    serialized under a lock, so concurrent readers always observe a
    consistent prefix.
    """

    def __init__(self, x, m: int):
        x = to_rational(x)
        if not 0 < x < 1:
            raise DomainError("x must lie in (0, 1)")
        if m < 2:
            raise DomainError("m must be >= 2")
        self.x = x
        self.m = m
        self._digits: list[int] = []
        self._remainder = x  # x scaled into [0,1) after the produced digits
        self._zero_from: Optional[int] = None  # 1-based index of an all-zero tail
        self._lock = threading.Lock()

    # -- digit access ---------------------------------------------------

    def _extend_to(self, n: int):
        with self._lock:
            while len(self._digits) < n:
                if self._zero_from is not None:
                    self._digits.append(0)
                    continue
                y = self._remainder * self.m
                d = min(int(y), self.m - 1)
                self._digits.append(d)
                self._remainder = y - d
                if self._remainder == 0:
                    self._zero_from = len(self._digits) + 1

    def digit(self, i: int) -> int:
        """1-based stream digit."""
        if i < 1:
            raise DomainError("digit positions are 1-based")
        if self._zero_from is not None and i >= self._zero_from:
            return 0
        self._extend_to(i)
        return self._digits[i - 1]

    def prefix(self, n: int) -> tuple[int, ...]:
        self._extend_to(n)
        return tuple(self._digits[:n])

    # -- derived indices --------------------------------------------------

    @property
    def first_defect(self) -> int:
        """Smallest position whose digit is below m-1."""
        i = 1
        while self.digit(i) == self.m - 1:
            i += 1
        return i

    @property
    def first_nonzero(self) -> int:
        i = 1
        while self.digit(i) == 0:
            i += 1
        return i

    def defect_index(self, j: int) -> int:
        """1-based j-th position whose digit is below m-1 (strictly increasing in j)."""
        if j < 1:
            raise DomainError("defect indices are 1-based")
        seen = 0
        i = 0
        while True:
            i += 1
            if self.digit(i) < self.m - 1:
                seen += 1
                if seen == j:
                    return i

    def defect_indices(self, count: int) -> tuple[int, ...]:
        return tuple(self.defect_index(j) for j in range(1, count + 1))


def greedy_expansion(x, m: int, n: int) -> GreedyExpansion:
    """Greedy expansion of x with the first n digits materialized."""
    if n < 1:
        raise DomainError("n must be >= 1")
    ge = GreedyExpansion(x, m)
    ge.prefix(n)
    return ge


# ---------------------------------------------------------------------------
# digit extraction


def _hull_max(lam, m: int) -> Q:
    return (m - 1) * lam / (1 - lam)


def _extract_digit(y, lam, m: int, hull: Q) -> Optional[int]:
    """The unique digit d with y - d*lam in [0, lam*hull], or None."""
    d = min(int(y / lam), m - 1)
    rest = y - d * lam
    if 0 <= rest <= lam * hull:
        return d
    return None


def unique_coding(x, lam, m: int, n: int) -> tuple[tuple[int, ...], Optional[int]]:
    """First n digits of the coding of x under parameter lam < 1/m.

    Returns (digits, failed_step): failed_step is None when all n digits
    exist, otherwise the 1-based step at which no digit fits (the point
    fell in a gap, so x is not in the set).
    """
    x = to_rational(x)
    lam = to_rational(lam)
    if not (0 < lam and lam * m < 1):
        raise DomainError("lam must lie in (0, 1/m)")
    if n < 1:
        raise DomainError("n must be >= 1")
    hull = _hull_max(lam, m)
    if not 0 <= x <= hull:
        raise HullViolationError("x = %s outside [0, %s]" % (x, hull))
    digits = []
    y = x
    for step in range(1, n + 1):
        d = _extract_digit(y, lam, m, hull)
        if d is None:
            return tuple(digits), step
        digits.append(d)
        y = y / lam - d
    return tuple(digits), None


class Verdict(enum.Enum):
    MEMBER = "member"
    NOT_MEMBER = "not_member"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of the certified membership test x in K(lam).

    MEMBER carries a preperiod+period decomposition whose exact replay
    reproduces x; NOT_MEMBER carries the 1-based step at which the
    remainder fell inside a gap; UNDETERMINED records the depth reached
    and is never silently treated as membership.
    """

    verdict: Verdict
    extracted_digits: tuple[int, ...]
    preperiod: Optional[tuple[int, ...]] = None
    period: Optional[tuple[int, ...]] = None
    failing_step: Optional[int] = None
    depth_reached: Optional[int] = None

    def coding_value(self, lam) -> Q:
        """Exact value of the detected eventually periodic coding at lam."""
        if self.verdict is not Verdict.MEMBER:
            raise DomainError("only MEMBER results carry a full coding")
        lam = to_rational(lam)
        acc = Q(0)
        for d in reversed(self.period):
            acc = (acc + d) * lam
        acc = acc / (1 - lam ** len(self.period)) if self.period else Q(0)
        for d in reversed(self.preperiod):
            acc = (acc + d) * lam
        return acc


def membership(x, lam, m: int, max_steps: int = DEFAULT_MAX_STEPS) -> MembershipResult:
    """Certified membership of x in the self-similar set with parameter lam.

    Tracks exact remainders: a repeated remainder proves an eventually
    periodic coding (membership), a remainder in a gap disproves it, and
    hitting max_steps yields UNDETERMINED.  lam = 1/m is allowed and always
    a member for x in [0, 1].
    """
    x = to_rational(x)
    lam = to_rational(lam)
    if not (0 < lam and lam * m <= 1):
        raise DomainError("lam must lie in (0, 1/m]")
    if max_steps < 1:
        raise DomainError("max_steps must be >= 1")
    hull = _hull_max(lam, m)
    if not 0 <= x <= hull:
        raise HullViolationError("x = %s outside [0, %s]" % (x, hull))
    digits: list[int] = []
    y = x
    seen = {y: 0}
    for step in range(1, max_steps + 1):
        d = _extract_digit(y, lam, m, hull)
        if d is None:
            return MembershipResult(
                Verdict.NOT_MEMBER, tuple(digits), failing_step=step
            )
        digits.append(d)
        y = y / lam - d
        start = seen.get(y)
        if start is not None:
            return MembershipResult(
                Verdict.MEMBER,
                tuple(digits),
                preperiod=tuple(digits[:start]),
                period=tuple(digits[start:step]),
            )
        if len(seen) < DEFAULT_STATE_CAP:
            seen[y] = step
    return MembershipResult(Verdict.UNDETERMINED, tuple(digits), depth_reached=max_steps)


# ---------------------------------------------------------------------------
# lexicographic order


def lex_compare(a: Code, b: Code) -> Ordering:
    """Lexicographic order of the induced infinite digit streams."""
    if a.m != b.m:
        raise DomainError("alphabet mismatch")
    if a.tail is Tail.TRUNCATED or b.tail is Tail.TRUNCATED:
        a_lo, a_hi = a.completions() if a.tail is Tail.TRUNCATED else (a, a)
        b_lo, b_hi = b.completions() if b.tail is Tail.TRUNCATED else (b, b)
        if lex_compare(a_hi, b_lo) is Ordering.LESS:
            return Ordering.LESS
        if lex_compare(b_hi, a_lo) is Ordering.LESS:
            return Ordering.GREATER
        if a.canonical() == b.canonical():
            return Ordering.EQUAL
        return Ordering.INCOMPARABLE
    n = max(len(a.prefix), len(b.prefix))
    for i in range(1, n + 1):
        da, db = a.digit(i), b.digit(i)
        if da != db:
            return Ordering.GREATER if da > db else Ordering.LESS
    ta, tb = a.tail_digit, b.tail_digit
    if ta == tb:
        return Ordering.EQUAL
    return Ordering.GREATER if ta > tb else Ordering.LESS
