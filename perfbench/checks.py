"""Output checks that do not trust the package.

Every check here recomputes what it needs with its own exact ``Fraction``
arithmetic, or with the reference routines in ``tests/oracles.py``; none of
them calls back into ``cantor_toolkit``.  A check returns a list of error
strings, empty when the output is correct.  Exact rational strings are never
compared byte for byte: a kernel change may legitimately move a bracket as
long as it still certifies the same root.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as F

import oracles

#: Absolute slack allowed between a float-bisection root and a bracket.
FLOAT_SLACK = 1e-9

#: Own bisection steps allowed when certifying an order between two brackets.
OWN_REFINE_CAP = 400


def frac(value) -> F:
    """Exact copy of a package rational (Fraction or gmpy2.mpq)."""
    return F(int(value.numerator), int(value.denominator))


def series(prefix, tail_max: bool, m: int, lam: F) -> F:
    """Own exact Horner evaluation of a digit series at ``lam``."""
    acc = F(m - 1) * lam / (1 - lam) if tail_max else F(0)
    for d in reversed(prefix):
        acc = (acc + d) * lam
    return acc


def tail_name(code) -> str:
    return code.tail.value  # "zero", "max" or "trunc"


def stream_equal(prefix_a, tail_a: int, prefix_b, tail_b: int) -> bool:
    """Do two digit streams (word + constant tail digit) coincide?"""
    if tail_a != tail_b:
        return False
    n = max(len(prefix_a), len(prefix_b))
    for i in range(n):
        da = prefix_a[i] if i < len(prefix_a) else tail_a
        db = prefix_b[i] if i < len(prefix_b) else tail_b
        if da != db:
            return False
    return True


class OwnBracket:
    """A plain copy of a bracket: [lo, hi] around the root of
    series(prefix, tail) = x, refined here by midpoint bisection."""

    __slots__ = ("lo", "hi", "prefix", "tail_max", "m", "x")

    def __init__(self, lo, hi, prefix, tail_max, m, x):
        self.lo, self.hi = lo, hi
        self.prefix, self.tail_max, self.m, self.x = prefix, tail_max, m, x

    @classmethod
    def of(cls, bracket):
        code = bracket.code
        return cls(
            frac(bracket.lo),
            frac(bracket.hi),
            tuple(code.prefix),
            tail_name(code) == "max",
            code.m,
            frac(bracket.x),
        )

    def refine(self) -> bool:
        """One own bisection step; False when the bracket cannot shrink."""
        if self.lo == self.hi:
            return False
        mid = (self.lo + self.hi) / 2
        v = series(self.prefix, self.tail_max, self.m, mid)
        if v == self.x:
            self.lo = self.hi = mid
        elif v < self.x:
            self.lo = mid
        else:
            self.hi = mid
        return True


def own_less(a: OwnBracket, b: OwnBracket, strict: bool) -> bool:
    """Certify a < b (or a <= b) by refining own copies of both brackets."""
    for _ in range(OWN_REFINE_CAP):
        if a.hi < b.lo or (not strict and a.hi <= b.lo):
            return True
        if b.hi <= a.lo:
            return False
        wa, wb = a.hi - a.lo, b.hi - b.lo
        if not (a.refine() if wa >= wb else b.refine()):
            if not (b.refine() if wa >= wb else a.refine()):
                return False
    return False


def check_bracket(bracket, what: str, x=None) -> list[str]:
    """Certified sign change of one returned bracket, re-checked exactly.

    The series of a nonzero digit code is strictly increasing in lam, so
    series(lo) <= x <= series(hi) proves the root lies in [lo, hi].  A
    truncated code marks the capped hull maximum 1/m of the greedy spine:
    there the 0-tail completion must fall short of x at 1/m.
    """
    code = bracket.code
    m = code.m
    lo, hi, bx = frac(bracket.lo), frac(bracket.hi), frac(bracket.x)
    errors = []
    if x is not None and bx != x:
        errors.append("%s: bracket is for x=%s, expected %s" % (what, bx, x))
    if not (0 < lo <= hi and hi * m <= 1):
        return errors + ["%s: bracket [%s, %s] outside (0, 1/m]" % (what, lo, hi)]
    prefix = tuple(code.prefix)
    tail = tail_name(code)
    if tail == "trunc":
        cap = F(1, m)
        if not (lo == hi == cap):
            errors.append("%s: truncated-code bracket is not the exact cap 1/m" % what)
        elif not series(prefix, False, m, cap) < bx <= series(prefix, True, m, cap):
            errors.append("%s: capped endpoint but the 0-tail completion reaches x" % what)
        return errors
    tail_max = tail == "max"
    if lo == hi:
        if series(prefix, tail_max, m, lo) != bx:
            errors.append("%s: exact bracket %s is not a root" % (what, lo))
        return errors
    if not series(prefix, tail_max, m, lo) <= bx <= series(prefix, tail_max, m, hi):
        errors.append("%s: no sign change on [%s, %s]" % (what, lo, hi))
        return errors
    root = oracles.float_root(prefix, tail_max, m, float(bx), iterations=80)
    if root is None or not float(lo) - FLOAT_SLACK <= root <= float(hi) + FLOAT_SLACK:
        errors.append("%s: float-bisection root %r outside [%r, %r]" % (what, root, float(lo), float(hi)))
    return errors


# ---------------------------------------------------------------------------
# covers


def greedy_prefix(x: F, m: int, n: int) -> tuple[int, ...]:
    return oracles.greedy_digits_longdiv(x, m, n)


def first_defect(digits, m: int):
    for i, d in enumerate(digits, start=1):
        if d < m - 1:
            return i
    return None


def admissible_count(digits, m: int, n: int) -> int:
    """Number of length-n words w with w+(m-1)^inf >= greedy stream:
    exactly the words >= the greedy n-prefix, counted in closed form."""
    value = 0
    for d in digits[:n]:
        value = value * m + d
    return m**n - value


def admissible_words_desc(digits, m: int, n: int) -> list[tuple[int, ...]]:
    """Independent enumeration: all length-n words >= the greedy prefix,
    in descending order (ascending parameter order)."""
    floor_value = 0
    for d in digits[:n]:
        floor_value = floor_value * m + d
    words = []
    for value in range(m**n - 1, floor_value - 1, -1):
        word = []
        for _ in range(n):
            value, d = divmod(value, m)
            word.append(d)
        words.append(tuple(reversed(word)))
    return words


def check_cover(level, x: F, m: int, depth: int) -> list[str]:
    errors = []
    if level.m != m or level.depth != depth or frac(level.x) != x:
        errors.append("cover: header (x, m, depth) does not match the request")
    hull = (x / (m - 1 + x), F(1, m))
    if tuple(frac(v) for v in level.hull) != hull:
        errors.append("cover: hull differs from [x/(m-1+x), 1/m]")
    digits = greedy_prefix(x, m, depth)
    ell = first_defect(digits, m)
    expected = admissible_words_desc(digits, m, depth) if ell and depth >= ell else []
    words = [tuple(iv.word) for iv in level.intervals]
    if words != expected:
        errors.append(
            "cover: %d intervals, independent enumeration gives %d (or words differ)"
            % (len(words), len(expected))
        )
        return errors
    for iv in level.intervals:
        w = tuple(iv.word)
        left, right = iv.left, iv.right
        if not stream_equal(tuple(left.code.prefix), _tail_digit(left.code), w, m - 1):
            errors.append("cover: left endpoint of %s solves the wrong code" % (w,))
        rt = tail_name(right.code)
        if rt == "trunc":
            if tuple(right.code.prefix) != w:
                errors.append("cover: capped right endpoint of %s has the wrong prefix" % (w,))
        elif not stream_equal(tuple(right.code.prefix), _tail_digit(right.code), w, 0):
            errors.append("cover: right endpoint of %s solves the wrong code" % (w,))
        errors += check_bracket(left, "cover %s left" % (w,), x)
        errors += check_bracket(right, "cover %s right" % (w,), x)
        if not frac(left.lo) <= frac(right.hi):
            errors.append("cover: interval %s has its endpoints reversed" % (w,))
    if level.intervals:
        if not frac(level.intervals[0].left.lo) <= hull[0] <= frac(level.intervals[0].left.hi):
            errors.append("cover: first interval does not start at the hull minimum")
    if len(level.gaps) != max(0, len(level.intervals) - 1):
        errors.append("cover: %d gaps for %d intervals" % (len(level.gaps), len(level.intervals)))
    for i, (a, b) in enumerate(zip(level.intervals, level.intervals[1:])):
        if not frac(a.right.hi) < frac(b.left.lo):
            errors.append("cover: gap %d is not certified nonempty" % i)
        ga, gb = level.gaps[i]
        if (frac(ga.lo), frac(ga.hi), frac(gb.lo), frac(gb.hi)) != (
            frac(a.right.lo), frac(a.right.hi), frac(b.left.lo), frac(b.left.hi)
        ):
            errors.append("cover: gap %d brackets differ from the interval endpoints" % i)
    return errors


def _tail_digit(code) -> int:
    return code.m - 1 if tail_name(code) == "max" else 0


# ---------------------------------------------------------------------------
# thickness analyses


def float_interval(prefix, m: int, x: float):
    """Float endpoints of the basic interval with this defining prefix."""
    lo = oracles.float_root(prefix, True, m, x, iterations=80)
    hi = oracles.float_root(prefix, False, m, x, iterations=80)
    return lo, hi


def check_hulls(systems, x: F, m: int, count: int) -> list[str]:
    errors = []
    if len(systems) != count:
        return ["ek_hulls: %d systems, asked for %d" % (len(systems), count)]
    digits = greedy_prefix(x, m, 64)
    for s in systems:
        errors += check_bracket(s.hull.left, "hull %d left" % s.k, x)
        errors += check_bracket(s.hull.right, "hull %d right" % s.k, x)
        n_j = s.n_j
        if tuple(s.prefix) != tuple(digits[: n_j - 1]) + (s.b,) or not s.b > digits[n_j - 1]:
            errors.append("hull %d: prefix is not the greedy prefix with a raised defect" % s.k)
    for a, b in zip(systems, systems[1:]):
        if not own_less(OwnBracket.of(a.hull.right), OwnBracket.of(b.hull.left), strict=False):
            errors.append("hulls %d, %d: order not certified by own refinement" % (a.k, b.k))
    return errors


def _sibling_pairs(m: int, n: int):
    for head in itertools.product(range(m), repeat=n - 1):
        for d in range(m - 2, -1, -1):
            yield head + (d + 1,), head + (d,)


def float_tau_levels(system, x: float, depth: int) -> list[float]:
    """Float thickness ratio per level: min over sibling pairs of
    min(|I+|, |I|) / gap, from float-bisection endpoints."""
    out = []
    for n in range(1, depth + 1):
        best = math.inf
        for w_plus, w in _sibling_pairs(system.m, n):
            a_lo, a_hi = float_interval(tuple(system.prefix) + w_plus, system.m, x)
            b_lo, b_hi = float_interval(tuple(system.prefix) + w, system.m, x)
            if None in (a_lo, a_hi, b_lo, b_hi):
                return []
            gap = b_lo - a_hi
            if gap <= 0:
                return []
            best = min(best, (a_hi - a_lo) / gap, (b_hi - b_lo) / gap)
        out.append(best)
    return out


def check_tau(report, system, x: F, k: int, depth: int) -> list[str]:
    """The certified per-level minima must be lower bounds of the float
    ratios (up to float error), and tau_empirical their minimum."""
    errors = []
    if report.k != k or report.depth != depth or len(report.per_level_min) != depth:
        return ["tau %d: report shape does not match the request" % k]
    levels = [frac(v) for _, v in report.per_level_min]
    if frac(report.tau_empirical) != min(levels):
        errors.append("tau %d: tau_empirical is not the minimum of the levels" % k)
    if not all(v > 0 for v in levels):
        errors.append("tau %d: nonpositive thickness level" % k)
    floats = float_tau_levels(system, float(x), depth)
    for n, (cert, approx) in enumerate(zip(levels, floats), start=1):
        if float(cert) > approx * (1 + 1e-6) + 1e-9:
            errors.append("tau %d level %d: certified lower %r exceeds float ratio %r" % (k, n, float(cert), approx))
    analytic = report.tau_analytic_lower
    if analytic is not None and frac(analytic) > frac(report.tau_empirical):
        errors.append("tau %d: analytic lower bound exceeds the empirical thickness" % k)
    return errors


def check_theta(entries, systems, x: F) -> list[str]:
    errors = []
    if len(entries) != len(systems) - 1:
        return ["theta: %d entries for %d systems" % (len(entries), len(systems))]
    xf = float(x)
    for e, a, b in zip(entries, systems, systems[1:]):
        lo, hi = frac(e.theta_lo), frac(e.theta_hi)
        if not 0 < lo <= hi:
            errors.append("theta %d: bounds out of order" % e.k)
            continue
        a_lo, a_hi = float_interval(tuple(a.prefix), a.m, xf)
        b_lo, b_hi = float_interval(tuple(b.prefix), b.m, xf)
        if None in (a_lo, a_hi, b_lo, b_hi):
            continue
        gap = b_lo - a_hi
        approx = min((a_hi - a_lo) / gap, (b_hi - b_lo) / gap)
        if not float(lo) * (1 - 1e-6) - 1e-9 <= approx <= float(hi) * (1 + 1e-6) + 1e-9:
            errors.append("theta %d: float ratio %r outside [%r, %r]" % (e.k, approx, float(lo), float(hi)))
    return errors


def _inside(witness, hull, same_point: bool) -> bool:
    e = OwnBracket.of(witness)
    left, right = OwnBracket.of(hull.left), OwnBracket.of(hull.right)
    if same_point:
        lo_ok = stream_equal(e.prefix, _own_tail(e), left.prefix, _own_tail(left)) or own_less(left, e, strict=False)
        hi_ok = stream_equal(e.prefix, _own_tail(e), right.prefix, _own_tail(right)) or own_less(e, right, strict=False)
        return lo_ok and hi_ok
    return own_less(left, e, strict=True) and own_less(e, right, strict=True)


def _own_tail(b: OwnBracket) -> int:
    return b.m - 1 if b.tail_max else 0


def check_interleave(pairs, sys_x, sys_y, x: F, y: F, kmax: int) -> list[str]:
    """Every reported pair must carry two witnesses that own refinement
    places inside the other subsystem's hull."""
    errors = []
    same = x == y
    by_k_x = {s.k: s for s in sys_x}
    by_k_y = {s.k: s for s in sys_y}
    seen = set()
    for p in pairs:
        if not (1 <= p.i <= kmax and 1 <= p.j <= kmax) or (p.i, p.j) in seen:
            errors.append("interleave: bad or repeated pair (%d, %d)" % (p.i, p.j))
            continue
        seen.add((p.i, p.j))
        wx, wy = p.witness_x_in_y.bracket, p.witness_y_in_x.bracket
        errors += check_bracket(wx, "witness x of (%d,%d)" % (p.i, p.j), x)
        errors += check_bracket(wy, "witness y of (%d,%d)" % (p.i, p.j), y)
        if same and p.i == p.j:
            continue
        if not _inside(wx, by_k_y[p.j].hull, same):
            errors.append("interleave (%d,%d): x witness not inside the y hull" % (p.i, p.j))
        if not _inside(wy, by_k_x[p.i].hull, same):
            errors.append("interleave (%d,%d): y witness not inside the x hull" % (p.i, p.j))
        tau = frac(p.tau_min)
        if p.meets_threshold != (tau > 1 and (tau - 1) ** 2 > 2):
            errors.append("interleave (%d,%d): meets_threshold disagrees with tau_min" % (p.i, p.j))
    return errors


def check_gamma(bracket, x: F, m: int, j: int) -> list[str]:
    errors = check_bracket(bracket, "gamma %d" % j, x)
    digits = greedy_prefix(x, m, 64)
    positions = [i for i, d in enumerate(digits, start=1) if d < m - 1]
    n_j = positions[j - 1]
    expected = tuple(digits[: n_j - 1]) + (digits[n_j - 1] + 1,)
    if not stream_equal(tuple(bracket.code.prefix), _tail_digit(bracket.code), expected, m - 1):
        errors.append("gamma %d: solves the wrong code" % j)
    return errors


def check_scan(points, m: int, center: F, deltas, grid_depth: int) -> list[str]:
    """Window, box-count structure and the slope fit, recomputed here."""
    errors = []
    if len(points) != len(deltas):
        return ["scan: %d points for %d deltas" % (len(points), len(deltas))]
    theory = math.log(m) / -math.log(float(center))
    for pt, delta in zip(points, deltas):
        est = pt.estimate
        if frac(pt.delta) != delta or tuple(frac(v) for v in est.window) != (center - delta, center + delta):
            errors.append("scan %s: window differs from center +- delta" % delta)
        counts = [c for _, c in est.grid_levels]
        sizes = [frac(s) for s, _ in est.grid_levels]
        if sizes != [F(1, 2**t) for t in range(1, grid_depth + 1)]:
            errors.append("scan %s: grid sizes are not 2^-t" % delta)
            continue
        for prev, cur in zip(counts, counts[1:]):
            if not prev <= cur <= 2 * prev:
                errors.append("scan %s: box counts not nested (%d -> %d)" % (delta, prev, cur))
                break
        keep = est.grid_levels[-math.ceil(grid_depth / 2):]
        xs = [math.log(1 / float(s)) for s, _ in keep]
        ys = [math.log(c) for _, c in keep]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / sum((a - mx) ** 2 for a in xs)
        slope = min(1.0, max(0.0, slope))
        if abs(slope - est.slope) > 1e-9:
            errors.append("scan %s: slope %r, own fit %r" % (delta, est.slope, slope))
        if abs(pt.theoretical - theory) > 1e-12:
            errors.append("scan %s: theoretical dimension %r, expected %r" % (delta, pt.theoretical, theory))
    return errors


# ---------------------------------------------------------------------------
# codings and membership


def hull_max(lam: F, m: int) -> F:
    return (m - 1) * lam / (1 - lam)


def fits(y: F, d: int, lam: F, hull: F) -> bool:
    rest = y - d * lam
    return 0 <= rest <= lam * hull


def replay_digits(x: F, lam: F, m: int, digits) -> tuple[bool, F]:
    """Follow the digits from x; False when one of them does not fit."""
    hull = hull_max(lam, m)
    y = x
    for d in digits:
        if not (0 <= d < m and fits(y, d, lam, hull)):
            return False, y
        y = y / lam - d
    return True, y


def periodic_value(preperiod, period, lam: F) -> F:
    acc = F(0)
    for d in reversed(period):
        acc = (acc + d) * lam
    acc = acc / (1 - lam ** len(period)) if period else F(0)
    for d in reversed(preperiod):
        acc = (acc + d) * lam
    return acc


def check_membership(result, x: F, lam: F, m: int, max_steps: int, expected: str, oracle: str) -> list[str]:
    """Verdict against the planted truth and the cover oracle, plus an own
    replay of the certificate the verdict carries."""
    verdict = result.verdict.value
    errors = []
    if verdict != expected:
        errors.append("membership(%s, %s, m=%d): verdict %s, expected %s" % (x, lam, m, verdict, expected))
    if oracle != "inconclusive" and verdict != "undetermined" and verdict != oracle:
        errors.append("membership(%s, %s): verdict %s, cover oracle says %s" % (x, lam, verdict, oracle))
    if verdict == "member":
        if periodic_value(result.preperiod, result.period, lam) != x:
            errors.append("membership(%s, %s): MEMBER coding does not replay to x" % (x, lam))
    elif verdict == "not_member":
        ok, y = replay_digits(x, lam, m, result.extracted_digits)
        hull = hull_max(lam, m)
        if not ok or result.failing_step != len(result.extracted_digits) + 1:
            errors.append("membership(%s, %s): NOT_MEMBER digits do not replay" % (x, lam))
        elif any(fits(y, d, lam, hull) for d in range(m)):
            errors.append("membership(%s, %s): a digit fits at the reported failing step" % (x, lam))
    else:
        ok, _ = replay_digits(x, lam, m, result.extracted_digits)
        if not ok or result.depth_reached != max_steps or len(result.extracted_digits) != max_steps:
            errors.append("membership(%s, %s): UNDETERMINED record is inconsistent" % (x, lam))
    return errors


def check_unique_coding(out, x: F, lam: F, m: int, n: int) -> list[str]:
    digits, failed_step = out
    ok, y = replay_digits(x, lam, m, digits)
    if not ok:
        return ["unique_coding(%s, %s): digits do not replay" % (x, lam)]
    if failed_step is None:
        return [] if len(digits) == n else ["unique_coding(%s, %s): %d digits, asked %d" % (x, lam, len(digits), n)]
    if failed_step != len(digits) + 1 or any(fits(y, d, lam, hull_max(lam, m)) for d in range(m)):
        return ["unique_coding(%s, %s): failing step %s is not a gap" % (x, lam, failed_step)]
    return []


def check_greedy(digits, x: F, m: int, n: int) -> list[str]:
    if tuple(digits) != tuple(oracles.greedy_digits_longdiv(x, m, n)):
        return ["greedy_expansion(%s, m=%d): digits differ from the long-division oracle" % (x, m)]
    return []
