"""Thick Cantor subsystems of a parameter set and their intersections.

Each defect digit of the greedy expansion of x spawns a family of disjoint
basic intervals accumulating at 1/m; the Cantor subset built inside the
k-th such interval gets arbitrarily thick as k grows, which is what forces
two parameter sets to intersect.  This module constructs those subsystems,
estimates their thickness with certified rational interval arithmetic, and
searches for interleaved pairs across two points.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

from ._rat import Q, to_alphabet, to_int, to_point, to_rational
from .coding import GreedyExpansion
from .errors import DomainError, PrecisionExhaustedError
from .exact_arith import (
    Bracket,
    Code,
    Ordering,
    Tail,
    _grid,
    compare_brackets,
    eval_pi,
    refine_until,
    resolve_tol,
    separate_brackets,
    solve_lambda,
)
from .lambda_set import BasicInterval, _word_tuple


@dataclass(frozen=True)
class EkSystem:
    """The k-th thick Cantor subsystem of the parameter set of x.

    Its hull is the basic interval whose defining digits are the greedy
    prefix up to the j-th defect, with the defect digit raised to b; tol is
    the resolved bracket width its hull and every interval inside it are
    solved at.
    """

    x: Q
    m: int
    k: int
    j: int
    b: int
    n_j: int
    prefix: tuple[int, ...]
    hull: BasicInterval
    tol: Q


@dataclass(frozen=True)
class ThicknessReport:
    """Certified thickness summary of one subsystem at a finite depth.

    tau_empirical is the minimum over computed levels, an over-estimate of
    the true infimum.  tau_analytic_lower is the least bound, derived from
    the endpoint equations, over the sibling pairs of levels 1..depth: it
    bounds those levels only, and it falls as levels are added, so nothing
    shows that it bounds the levels below the scanned depth.
    newhouse_lower evaluates the same bound from the subsystem's hull ends
    alone, so it does not depend on depth.  All rational fields are
    conservative interval endpoints.
    """

    k: int
    depth: int
    per_level_min: tuple[tuple[int, Q], ...]
    tau_empirical: Q
    tau_analytic_lower: Optional[Q]
    newhouse_lower: Optional[Q]
    dim_lower: float


@dataclass(frozen=True)
class ThetaEntry:
    """Certified ratio data for one consecutive pair of subsystem hulls."""

    k: int
    theta_lo: Q
    theta_hi: Q
    size_ratio_lo: Q  # |hull(k+1)| / |hull(k)|
    size_ratio_hi: Q


@dataclass(frozen=True)
class EndpointWitness:
    k: int
    word: tuple[int, ...]
    side: str
    bracket: Bracket


@dataclass(frozen=True)
class InterleavePair:
    """Two subsystems, one per point, certified to interleave.

    The witnesses are basic-interval endpoints (genuine Cantor-set points)
    shown by bracket comparison to lie inside the other hull.
    """

    i: int
    j: int
    witness_x_in_y: EndpointWitness
    witness_y_in_x: EndpointWitness
    tau_min: Q
    meets_threshold: bool


@dataclass(frozen=True)
class IntersectionReport:
    i: int
    j: int
    tau_min: Q
    threshold_met: bool
    dim_lower: Optional[float]
    quality: str


# ---------------------------------------------------------------------------
# subsystem construction


# Reuse: 333 of 565 lookups hit over the first 500 analysis-warm benchmark ops, seed 3.
@functools.lru_cache(maxsize=1024)
def _ek_hulls_cached(x, m: int, count: int, tol) -> tuple[EkSystem, ...]:
    ge = GreedyExpansion(x, m)
    grid = _grid(x, m, tol)
    out: list[EkSystem] = []
    j = 0
    while len(out) < count:
        j += 1
        n_j = ge.defect_index(j)
        head = ge.prefix(n_j - 1)
        for b in range(m - 1, ge.digit(n_j), -1):
            prefix = head + (b,)
            hull = BasicInterval(prefix, *grid.endpoints(prefix))
            out.append(
                EkSystem(x=x, m=m, k=len(out) + 1, j=j, b=b, n_j=n_j, prefix=prefix, hull=hull, tol=tol)
            )
            if len(out) == count:
                break
    for left, right in zip(out, out[1:]):
        if compare_brackets(left.hull.right, right.hull.left) is not Ordering.LESS:
            raise PrecisionExhaustedError(
                "hull ordering of subsystems %d and %d not certified" % (left.k, right.k)
            )
    return tuple(out)


def ek_hulls(x, m: int, count: int, tol=None) -> list[EkSystem]:
    """The first `count` subsystems, in certified increasing hull order."""
    x, m = to_point(x, "x"), to_alphabet(m)
    count, tol = to_int(count, "count"), resolve_tol(tol)
    if count < 1:
        return []
    return list(_ek_hulls_cached(x, m, count, tol))


def ek_system(x, m: int, k: int, tol=None) -> EkSystem:
    k = to_int(k, "k")
    if k < 1:
        raise DomainError("k must be >= 1")
    return ek_hulls(x, m, k, tol)[k - 1]


def ek_basic_interval(system: EkSystem, word) -> BasicInterval:
    """Depth-|word| basic interval of the subsystem (its hull for the empty
    word), solved at the subsystem's tol; its word is relative to the
    subsystem."""
    word = _word_tuple(system.m, word)
    grid = _grid(system.x, system.m, system.tol)
    return BasicInterval(word, *grid.endpoints(system.prefix + word))


# ---------------------------------------------------------------------------
# certified widths and ratios


def _neighbour_gap(
    left_iv: BasicInterval, right_iv: BasicInterval
) -> tuple[BasicInterval, BasicInterval, Bracket, Bracket, Q, Q]:
    """Certify two neighbouring basic intervals and the gap between them.

    Each interval's ends are refined until its width is certified positive,
    then the gap is separated.  Returns the two refined intervals, the gap's
    end brackets, and lo <= min(|left|, |right|) / |gap| <= hi.
    """
    ivs = []
    for iv in (left_iv, right_iv):
        ends = refine_until(lambda p, q: q.lo > p.hi, iv.left, iv.right)
        if ends is None:
            raise PrecisionExhaustedError("could not certify positive width of %s" % (iv.word,))
        ivs.append(BasicInterval(iv.word, *ends))
    left, right = ivs
    gap_l, gap_r = separate_brackets(left.right, right.left)
    ratio_lo = min(left.width_lo, right.width_lo) / (gap_r.hi - gap_l.lo)
    ratio_hi = min(left.width_hi, right.width_hi) / (gap_r.lo - gap_l.hi)
    return left, right, gap_l, gap_r, ratio_lo, ratio_hi


def _sibling_pairs(m: int, n: int):
    """(w_plus, w) word pairs at level n: same parent, last digits d+1 / d."""
    for head in itertools.product(range(m), repeat=n - 1):
        for d in range(m - 2, -1, -1):
            yield head + (d + 1,), head + (d,)


def tau_report(system: EkSystem, depth: int = 3) -> ThicknessReport:
    """Finite-depth thickness report of one subsystem, built on every call."""
    depth = to_int(depth, "depth")
    if depth < 1:
        raise DomainError("depth must be >= 1")
    m = system.m
    ge = GreedyExpansion(system.x, m)
    ell = ge.first_nonzero
    per_level: list[tuple[int, Q]] = []
    analytic: Optional[Q] = None
    tau: Optional[Q] = None
    applicable = system.n_j > ell
    for n in range(1, depth + 1):
        level_min: Optional[Q] = None
        for w_plus, w in _sibling_pairs(m, n):
            left, right, gap_l, gap_r, pair_lo, _ = _neighbour_gap(
                ek_basic_interval(system, w_plus), ek_basic_interval(system, w)
            )
            level_min = pair_lo if level_min is None else min(level_min, pair_lo)
            if applicable:
                lam1, lam2 = left.left, gap_l
                lam3, lam4 = gap_r, right.right
                b1 = (1 - lam1.hi) * (1 - lam3.hi) * lam2.lo**ell / (m * lam3.hi ** (system.n_j - ell))
                b2 = (1 - lam3.hi) ** 2 * lam4.lo**ell / (m * lam3.hi ** (system.n_j - ell))
                pair_analytic = min(b1, b2)
                analytic = pair_analytic if analytic is None else min(analytic, pair_analytic)
        per_level.append((n, level_min))
        tau = level_min if tau is None else min(tau, level_min)
    newhouse = None
    if applicable:
        p_lo = system.hull.left.lo
        q_hi = system.hull.right.hi
        newhouse = (1 - q_hi) ** 2 * p_lo**ell / (m * q_hi ** (system.n_j - ell))
    dim = dim_lower_from_tau(float(tau))
    return ThicknessReport(
        k=system.k,
        depth=depth,
        per_level_min=tuple(per_level),
        tau_empirical=tau,
        tau_analytic_lower=analytic,
        newhouse_lower=newhouse,
        dim_lower=dim,
    )


def tau_estimate(x, m: int, k: int, depth: int = 3, tol=None) -> ThicknessReport:
    """Finite-depth thickness report for the k-th subsystem of x."""
    return tau_report(ek_system(x, m, k, tol), depth)


def dim_lower_from_tau(tau: float) -> float:
    """Dimension lower bound log 2 / log(2 + 1/tau) of a set of thickness tau."""
    if tau <= 0:
        raise DomainError("thickness must be positive")
    return math.log(2) / math.log(2 + 1 / tau)


def theta_sequence(x, m: int, count: int, tol=None) -> list[ThetaEntry]:
    """Certified hull/gap ratios for consecutive subsystems, k = 1..count-1."""
    count = to_int(count, "count")
    if count < 2:
        raise DomainError("count must be >= 2")
    systems = ek_hulls(x, m, count, tol)
    out = []
    for a, b in zip(systems, systems[1:]):
        ia, ib, _, _, theta_lo, theta_hi = _neighbour_gap(a.hull, b.hull)
        out.append(
            ThetaEntry(
                k=a.k,
                theta_lo=theta_lo,
                theta_hi=theta_hi,
                size_ratio_lo=ib.width_lo / ia.width_hi,
                size_ratio_hi=ib.width_hi / ia.width_lo,
            )
        )
    return out


def size_ratio_bound(m: int, first_nonzero: int) -> Q:
    """Eventual bound (2m)^(l+1)/(m-1) on consecutive hull size ratios."""
    m = to_alphabet(m)
    return Q((2 * m) ** (first_nonzero + 1), m - 1)


# ---------------------------------------------------------------------------
# certified inequality suite


def _defining_prefix_length(iv: BasicInterval) -> int:
    # The common defining prefix of the two endpoint codes: its last digit
    # always survives canonicalization on one side, so the length is the
    # larger of the two canonical prefix lengths.
    return max(len(iv.left.code.canonical().prefix), len(iv.right.code.canonical().prefix))


def certify_interval_width_bound(iv: BasicInterval) -> bool:
    """Certify width >= (1 - p) q^(L+1) for a basic interval [p, q] whose
    defining codes have an L-digit prefix.

    Equality holds exactly when the prefix is all (m-1): then p is the hull
    minimum and the bound is an identity of the endpoint equations, so that
    case is certified symbolically.
    """
    if iv.left.code.canonical() == Code(iv.left.m, (), Tail.MAX):
        return True
    L = _defining_prefix_length(iv)

    def holds(p, q):  # lower end of the width against upper end of the bound
        return q.lo - p.hi >= (1 - p.lo) * q.hi ** (L + 1)

    return refine_until(holds, iv.left, iv.right) is not None


def certify_gap_width_bound(
    left_iv: BasicInterval,
    right_iv: BasicInterval,
    nj_right: int,
    first_nonzero: int,
) -> bool:
    """Certify gap <= q^(L-l+1) * m * p^(nj-l) / (1-p) for the gap between
    two adjacent basic intervals (q = left right endpoint, p = right left
    endpoint, L = left prefix length, nj = defect position of the right
    interval's subsystem, l = first nonzero greedy position of x).

    Requires nj > l, the hypothesis under which the estimate is derived.
    """
    ell = first_nonzero
    if nj_right <= ell:
        raise DomainError("gap bound requires the defect position to exceed %d" % ell)
    m = right_iv.left.m
    L = _defining_prefix_length(left_iv)

    def holds(q, p):  # upper end of the gap against lower end of the bound
        return p.hi - q.lo <= q.lo ** (L - ell + 1) * m * p.lo ** (nj_right - ell) / (1 - p.lo)

    return refine_until(holds, left_iv.right, right_iv.left) is not None


def certify_expansion_separation(endpoints: list[Bracket], x, m: int) -> bool:
    """Certify the bi-Lipschitz lower bound on coding separation.

    For every pair of sampled endpoints lam1 < lam2 <= q (q a rational
    upper bound of the sample, below 1/m), the codings evaluated at q stay
    at least ((1-mq)x / ((m-1)q)) * (lam2 - lam1) apart, strictly.
    """
    x = to_rational(x)
    eps = []
    codes = set()
    for e in endpoints:
        canon = e.code.canonical()
        if canon in codes:
            continue
        codes.add(canon)
        below_cap = refine_until(lambda e: e.hi * m < 1, e)
        if below_cap is None:
            return False
        eps.append(below_cap[0])
    eps.sort(key=lambda e: (e.lo, e.hi))
    q = max(e.hi for e in eps)
    c = (1 - m * q) * x / ((m - 1) * q)
    values = [eval_pi(e.code, q) for e in eps]  # independent of refinement
    for (ia, a), (ib, b) in itertools.combinations(enumerate(eps), 2):
        lhs = abs(values[ia] - values[ib])
        if refine_until(lambda a, b: lhs > c * (b.hi - a.lo), a, b) is None:
            return False
    return True


# ---------------------------------------------------------------------------
# interleaving and intersections


def meets_thickness_threshold(tau: Q) -> bool:
    """Strict test tau > 1 + sqrt(2), decided in exact arithmetic."""
    return tau > 1 and (tau - 1) ** 2 > 2


# Refinements before a witness candidate that may coincide with a hull end is
# given up; the search then tries the next endpoint.
INSIDE_BUDGET = 128


def _certified_inside(e: Bracket, hull: BasicInterval) -> bool:
    """Certify hull.left <= e <= hull.right by bracket comparison.

    For endpoints of one parameter set, code identity decides the
    closed-endpoint cases; across different points only strict separation
    certifies.  An undecided comparison is not a certificate, and the caller
    skips the candidate.
    """
    lo = compare_brackets(e, hull.left, INSIDE_BUDGET)
    if lo not in (Ordering.GREATER, Ordering.EQUAL):
        return False
    return compare_brackets(e, hull.right, INSIDE_BUDGET) in (Ordering.LESS, Ordering.EQUAL)


def _witness_inside(sys_a: EkSystem, sys_b: EkSystem, depth: int) -> Optional[EndpointWitness]:
    for word in itertools.product(range(sys_a.m - 1, -1, -1), repeat=depth):
        iv = ek_basic_interval(sys_a, word)
        for side, e in (("left", iv.left), ("right", iv.right)):
            if _certified_inside(e, sys_b.hull):
                return EndpointWitness(k=sys_a.k, word=word, side=side, bracket=e)
    return None


# Refinements the disjointness pre-filter spends per order; hulls it leaves
# undecided go on to the witness search, which decides them.
DISJOINT_BUDGET = 24


def _hulls_certified_disjoint(a: EkSystem, b: EkSystem) -> bool:
    return (
        compare_brackets(a.hull.right, b.hull.left, DISJOINT_BUDGET) is Ordering.LESS
        or compare_brackets(b.hull.right, a.hull.left, DISJOINT_BUDGET) is Ordering.LESS
    )


def find_interleaved_pairs(
    x, y, m: int, kmax: int, depth: int = 6, tol=None
) -> list[InterleavePair]:
    """All (i, j) pairs of subsystems of x and y certified interleaved.

    A pair is certified by exhibiting a depth-`depth` basic-interval
    endpoint of each subsystem inside the convex hull of the other; an
    empty result at small kmax is a valid outcome.
    """
    depth = to_int(depth, "depth")
    if depth < 1:
        raise DomainError("depth must be >= 1")
    x, y, m = to_point(x, "x"), to_point(y, "y"), to_alphabet(m)
    kmax, tol = to_int(kmax, "kmax"), resolve_tol(tol)
    if kmax < 1:
        return []
    systems_x = ek_hulls(x, m, kmax, tol)
    systems_y = ek_hulls(y, m, kmax, tol)
    same = x == y
    # each subsystem's report once per search, through the module global
    report = functools.cache(lambda system: tau_report(system, depth))
    pairs = []
    for sx in systems_x:
        for sy in systems_y:
            if same and sx.k == sy.k:
                witness_x = EndpointWitness(sx.k, (), "left", sx.hull.left)
                witness_y = EndpointWitness(sy.k, (), "left", sy.hull.left)
            else:
                if _hulls_certified_disjoint(sx, sy):
                    continue
                witness_x = _witness_inside(sx, sy, depth)
                witness_y = _witness_inside(sy, sx, depth)
                if witness_x is None or witness_y is None:
                    continue
            tau_min = min(report(sx).tau_empirical, report(sy).tau_empirical)
            pairs.append(
                InterleavePair(
                    i=sx.k,
                    j=sy.k,
                    witness_x_in_y=witness_x,
                    witness_y_in_x=witness_y,
                    tau_min=tau_min,
                    meets_threshold=meets_thickness_threshold(tau_min),
                )
            )
    pairs.sort(key=lambda p: (p.i, p.j))
    return pairs


def reverify_pair(pair: InterleavePair, x, y, m: int, tol) -> bool:
    """Re-run an interleave certificate from freshly solved brackets.

    Both witnesses and both hulls are re-bracketed at the given tolerance
    (a different tolerance routes around every cached bracket), so the
    containments are certified along an independent refinement path.
    """
    x, y = to_rational(x), to_rational(y)
    tol = to_rational(tol)
    sx = ek_system(x, m, pair.i, tol)
    sy = ek_system(y, m, pair.j, tol)
    fresh_x = solve_lambda(x, pair.witness_x_in_y.bracket.code, tol)
    fresh_y = solve_lambda(y, pair.witness_y_in_x.bracket.code, tol)
    return _certified_inside(fresh_x, sy.hull) and _certified_inside(fresh_y, sx.hull)


def intersection_report(pair: InterleavePair) -> IntersectionReport:
    """Dimension consequence of one interleaved pair.

    Above the 1+sqrt(2) threshold the intersection contains a Cantor set of
    thickness on the order of sqrt(tau_min); the reported dimension bound
    applies the thickness-dimension inequality to that value and is flagged
    as order-of, not certified, because the underlying constant is
    qualitative.
    """
    if not pair.meets_threshold:
        return IntersectionReport(pair.i, pair.j, pair.tau_min, False, None, "order-of")
    dim = dim_lower_from_tau(math.sqrt(float(pair.tau_min)))
    return IntersectionReport(pair.i, pair.j, pair.tau_min, True, dim, "order-of")
