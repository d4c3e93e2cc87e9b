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

from ._rat import Q, to_alphabet, to_int, to_point, to_rational
from .errors import DomainError, HullViolationError

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
        self.x = to_point(x, "x")
        self.m = to_alphabet(m)
        self._digits: list[int] = []
        # x = p/q scaled into [0, 1) after the produced digits is r/q
        self._remainder = self.x.numerator
        self._zero_from: Optional[int] = None  # 1-based index of an all-zero tail
        self._lock = threading.Lock()

    # -- digit access ---------------------------------------------------

    def _extend_to(self, n: int):
        """Long division of x's numerator: each digit is floor(r m / q),
        below m because r < q."""
        q, m = self.x.denominator, self.m
        with self._lock:
            while len(self._digits) < n:
                if self._zero_from is not None:
                    self._digits.append(0)
                    continue
                d, self._remainder = divmod(self._remainder * m, q)
                self._digits.append(d)
                if self._remainder == 0:
                    self._zero_from = len(self._digits) + 1

    def digit(self, i: int) -> int:
        """1-based stream digit."""
        i = to_int(i, "digit position")
        if i < 1:
            raise DomainError("digit positions are 1-based")
        if self._zero_from is not None and i >= self._zero_from:
            return 0
        self._extend_to(i)
        return self._digits[i - 1]

    def prefix(self, n: int) -> tuple[int, ...]:
        """The first n stream digits."""
        n = to_int(n, "prefix length")
        if n < 0:
            raise DomainError("prefix length must be >= 0, got %r" % (n,))
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
        j = to_int(j, "defect index j")
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


def greedy_expansion(x, m: int, n: int) -> GreedyExpansion:
    """Greedy expansion of x with the first n digits materialized."""
    n = to_int(n, "n")
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
    m = to_alphabet(m)
    if not (0 < lam and lam * m < 1):
        raise DomainError("lam must lie in (0, 1/m)")
    n = to_int(n, "n")
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


def membership(x, lam, m: int, max_steps: int = DEFAULT_MAX_STEPS) -> MembershipResult:
    """Certified membership of x in the self-similar set with parameter lam.

    Tracks exact remainders: a repeated remainder proves an eventually
    periodic coding (membership), a remainder in a gap disproves it, and
    hitting max_steps yields UNDETERMINED.  lam = 1/m is allowed and always
    a member for x in [0, 1].
    """
    x = to_rational(x)
    lam = to_rational(lam)
    m = to_alphabet(m)
    if not (0 < lam and lam * m <= 1):
        raise DomainError("lam must lie in (0, 1/m]")
    max_steps = to_int(max_steps, "max_steps")
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
