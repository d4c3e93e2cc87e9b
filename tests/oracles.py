"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the package's own algorithms: digits
come from a direct floor formula, roots from plain float bisection or
exact Fraction bisection, word counts from exhaustive enumeration, membership from a closed-interval
descent of the set construction, and sample points inside an interval from
the smallest-denominator rational there.
"""

from __future__ import annotations

import itertools
import math

from cantor_toolkit._rat import Q


def greedy_digits_longdiv(x, m: int, n: int) -> tuple[int, ...]:
    """Digit formula d_i = floor(x m^i) - m floor(x m^(i-1)), on x = p/q as
    integers: floor(x m^i) = p m^i // q."""
    x = Q(x)
    p, q = x.numerator, x.denominator
    return tuple(p * m**i // q - m * (p * m ** (i - 1) // q) for i in range(1, n + 1))


def float_series(prefix, tail_max: bool, m: int, lam: float) -> float:
    acc = (m - 1) * lam / (1 - lam) if tail_max else 0.0
    for d in reversed(prefix):
        acc = (acc + d) * lam
    return acc


def float_root(prefix, tail_max: bool, m: int, x: float, iterations: int = 200):
    """Plain float bisection for the parameter solving the digit series.

    (lo, hi) is the loop's whole state, so a step that leaves it unchanged
    is a fixed point: stopping there returns what all `iterations` steps would.
    """
    lo, hi = 1e-12, 1.0 / m
    if float_series(prefix, tail_max, m, hi) < x - 1e-13:
        return None
    for _ in range(iterations):
        mid = (lo + hi) / 2
        step = (mid, hi) if float_series(prefix, tail_max, m, mid) < x else (lo, mid)
        if step == (lo, hi):
            break
        lo, hi = step
    return (lo + hi) / 2


def exact_series(prefix, tail_max: bool, m: int, lam) -> Q:
    """The digit series at a rational `lam`, in Fractions."""
    lam = Q(lam)
    acc = (m - 1) * lam / (1 - lam) if tail_max else Q(0)
    for d in reversed(prefix):
        acc = (acc + d) * lam
    return acc


def dyadic_cell(code, x, tol):
    """The (lo, hi) a solve of `code` at `x` must return, or None with no root.

    Exact Fraction bisection over the hull [x/(m-1+x), 1/m] on the grid 2^-k,
    2^-k the largest power of two <= tol, down to the one cell holding the
    root (a root on a grid point is returned as (r, r)), cut back to the
    hull.  A root at either hull end is returned exactly, and a hull no
    wider than tol is returned whole.
    """
    m, x, tol = code.m, Q(x), Q(tol)
    tail_max = code.tail.value == "max"

    def f(lam):
        return exact_series(code.prefix, tail_max, m, lam) - x

    lo, hi = x / (m - 1 + x), Q(1, m)
    if f(hi) < 0:
        return None
    for end in (hi, lo):
        if f(end) == 0:
            return end, end
    if hi - lo <= tol:
        return lo, hi
    k = 0
    while Q(1, 2**k) > tol:
        k += 1
    a, b = math.floor(lo * 2**k), math.ceil(hi * 2**k)
    while b - a > 1:
        mid = (a + b) // 2
        v = f(Q(mid, 2**k))
        if v == 0:
            return Q(mid, 2**k), Q(mid, 2**k)
        if v < 0:
            a = mid
        else:
            b = mid
    return max(Q(a, 2**k), lo), min(Q(b, 2**k), hi)


def simplest_between(lo, hi):
    """Smallest-denominator rational in the closed interval [lo, hi]."""
    if hi < lo:
        lo, hi = hi, lo
    cl = math.ceil(lo)
    if cl <= hi:
        return Q(cl)
    fl = math.floor(lo)
    return fl + 1 / simplest_between(1 / (hi - fl), 1 / (lo - fl))


def count_words_without_zero_run(m: int, k: int, n: int) -> int:
    """Exhaustive count of length-n words over {0..m-1} avoiding k zeros in a row."""
    zeros = (0,) * k
    total = 0
    for word in itertools.product(range(m), repeat=n):
        for i in range(n - k + 1):
            if word[i : i + k] == zeros:
                break
        else:
            total += 1
    return total


def membership_oracle(x, lam, m: int, depth: int = 20) -> str:
    """Verdict from the depth-`depth` closed-interval cover of the set.

    'member'        x is an endpoint of a cover interval at some level
                    (endpoints belong to the set),
    'not_member'    x falls outside the cover at some level,
    'inconclusive'  x stays strictly inside through `depth` levels.
    """
    x, lam = Q(x), Q(lam)
    hull = (m - 1) * lam / (1 - lam)
    if x < 0 or x > hull:
        return "not_member"
    if x == 0 or x == hull:
        return "member"
    candidates = [Q(0)]  # left endpoints of level-n intervals containing x
    scale = Q(1)
    for _ in range(1, depth + 1):
        scale *= lam
        width = scale * hull
        nxt = []
        for c in candidates:
            for d in range(m):
                lo = c + d * scale
                hi = lo + width
                if lo <= x <= hi:
                    if x == lo or x == hi:
                        return "member"
                    nxt.append(lo)
        if not nxt:
            return "not_member"
        candidates = nxt
    return "inconclusive"
