"""Numerical dimension estimation: box counting over covers, local scans,
zero-run word counting, and the parameter roots feeding the dimension
lower-bound formula.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from ._rat import Q, to_alphabet, to_int, to_rational
from .coding import GreedyExpansion
from .errors import DomainError, EmptyWindowError
from .exact_arith import Bracket, Code, Tail, solve_lambda
from .lambda_set import CoverLevel, cover, hull_of


@dataclass(frozen=True)
class DimensionEstimate:
    """Box-counting estimate over one window of the parameter line.

    grid_levels holds (box size 2^-t, occupied count) for t = 1..grid_depth
    on the dyadic grid anchored at 0; the slope is fitted on the deepest
    half of the levels only, since shallow levels bias toward 1.
    """

    window: tuple[Q, Q]
    grid_levels: tuple[tuple[Q, int], ...]
    slope: float


@dataclass(frozen=True)
class LocalDimensionPoint:
    delta: Q
    estimate: DimensionEstimate
    theoretical: float


def _clipped_segments(cover: CoverLevel, window) -> list[tuple[Q, Q]]:
    a, b = window
    segments = []
    for iv in cover.intervals:
        lo = max(iv.left.lo, a)
        hi = min(iv.right.hi, b)
        if lo <= hi:
            segments.append((lo, hi))
    return segments


def box_dimension(cover_level: CoverLevel, window, grid_depth: int) -> DimensionEstimate:
    """Dyadic box-counting estimate of one cover level inside `window`."""
    # the slope is fitted on ceil(grid_depth / 2) levels, and a line needs two
    grid_depth = to_int(grid_depth, "grid_depth")
    if grid_depth < 3:
        raise DomainError("grid_depth must be >= 3")
    window = (to_rational(window[0]), to_rational(window[1]))
    if window[1] <= window[0]:
        raise DomainError("window must have positive width")
    segments = _clipped_segments(cover_level, window)
    if not segments:
        raise EmptyWindowError("no cover interval meets window %s" % (window,))
    segments.sort()
    levels = []
    for t in range(1, grid_depth + 1):
        # boxes [floor(lo 2^t), floor(hi 2^t)] of the sorted segments, merged
        occupied, last = 0, -1
        for lo, hi in segments:
            first = max((lo.numerator << t) // lo.denominator, last + 1)
            end = (hi.numerator << t) // hi.denominator
            if end >= first:
                occupied += end - first + 1
                last = end
        levels.append((Q(1, 2**t), occupied))
    slope = _fit_slope(levels, grid_depth)
    return DimensionEstimate(window=window, grid_levels=tuple(levels), slope=slope)


def _fit_slope(levels, grid_depth: int) -> float:
    keep = levels[-math.ceil(grid_depth / 2):]
    # log(2^t) from the integer: 1 / float(2^-t) overflows from t = 1024 on
    xs = [math.log(size.denominator) for size, _ in keep]
    ys = [math.log(count) for _, count in keep]
    slope = statistics.linear_regression(xs, ys).slope
    if not 0 <= slope <= 1:
        import logging  # only here: a scan that clamps nothing never loads it

        logging.getLogger(__name__).warning("box-count slope %.4f clamped to [0, 1]", slope)
        slope = min(1.0, max(0.0, slope))
    return slope


def dimension_of_parameter(m: int, lam: float) -> float:
    """Dimension log m / (-log lam) of the self-similar set at parameter lam."""
    m = to_alphabet(m)
    if not 0 < lam <= 1 / m:
        raise DomainError("lam must lie in (0, 1/m]")
    return math.log(m) / -math.log(lam)


def local_dimension_scan(
    x,
    m: int,
    lambda_center: Bracket,
    deltas,
    depth: int,
    grid_depth: int,
    tol=None,
) -> list[LocalDimensionPoint]:
    """Box-dimension estimates over shrinking windows around one parameter,
    each paired with the dimension of the self-similar set there."""
    x = to_rational(x)
    hull = hull_of(x, m)
    center = lambda_center.midpoint
    if not hull[0] <= center <= hull[1]:
        raise DomainError("scan center %s outside hull %s" % (center, hull))
    theoretical = dimension_of_parameter(m, float(center))
    deepest = cover(x, m, depth, tol)
    out = []
    for delta in deltas:
        delta = to_rational(delta)
        if delta <= 0:
            raise DomainError("delta must be positive")
        estimate = box_dimension(deepest, (center - delta, center + delta), grid_depth)
        out.append(LocalDimensionPoint(delta=delta, estimate=estimate, theoretical=theoretical))
    return out


# ---------------------------------------------------------------------------
# zero-run-restricted word counting


@dataclass(frozen=True)
class ZeroRunCount:
    m: int
    k: int
    n: int
    count: int
    growth_rate: float


def sft_count(m: int, k: int, n: int) -> ZeroRunCount:
    """Exact number of length-n words over {0..m-1} with no k consecutive
    zeros, with a growth-rate estimate from a trailing window of counts.

    Dynamic program over the trailing-zero run length (k states).
    """
    m, k, n = to_alphabet(m), to_int(k, "k"), to_int(n, "n")
    if k < 1 or n < 1:
        raise DomainError("need k >= 1, n >= 1")
    counts = _zero_run_counts(m, k, n)
    r = min(8, n - 1)
    if r >= 1 and counts[n - r] > 0:
        growth = (counts[n] / counts[n - r]) ** (1 / r)
    else:
        growth = float(counts[n])
    return ZeroRunCount(m=m, k=k, n=n, count=counts[n], growth_rate=growth)


def _zero_run_counts(m: int, k: int, n: int) -> list[int]:
    # state = current run of trailing zeros, 0..k-1
    state = [0] * k
    state[0] = 1
    totals = [1]
    for _ in range(n):
        nxt = [0] * k
        nxt[0] = (m - 1) * sum(state)
        for run in range(1, k):
            nxt[run] = state[run - 1]
        state = nxt
        totals.append(sum(state))
    return totals


# ---------------------------------------------------------------------------
# parameter roots of the raised-defect codes


def gamma_j(x, m: int, j: int, tol=None) -> Bracket:
    """Parameter whose coding is the greedy prefix with the j-th defect
    digit raised, completed by the all-(m-1) tail; increases to 1/m in j."""
    j = to_int(j, "j")
    if j < 1:
        raise DomainError("j must be >= 1")
    ge = GreedyExpansion(x, m)
    n_j = ge.defect_index(j)
    prefix = ge.prefix(n_j - 1) + (ge.digit(n_j) + 1,)
    return solve_lambda(ge.x, Code(m, prefix, Tail.MAX), tol)


def dim_lower_formula(m: int, k: int, gamma: float) -> float:
    """Dimension lower bound ((k-1) log m + log(m-1)) / (-k log gamma) for
    parameter windows [gamma, 1/m) restricted to k-bounded zero runs."""
    m = to_alphabet(m)
    if k < 1:
        raise DomainError("need k >= 1")
    if not 0 < gamma < 1:
        raise DomainError("gamma must lie in (0, 1)")
    return ((k - 1) * math.log(m) + math.log(m - 1)) / (-k * math.log(gamma))


def dim_lower_formula_bounds(m: int, k: int, gamma: Bracket) -> tuple[float, float]:
    """The formula evaluated over a bracket (it is increasing in gamma)."""
    return (
        dim_lower_formula(m, k, float(gamma.lo)),
        dim_lower_formula(m, k, float(gamma.hi)),
    )
