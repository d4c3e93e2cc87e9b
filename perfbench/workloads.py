"""The four workloads: seeded inputs, one operation at a time, each paired
with the check of its output.

An operation is an ``Op``: ``fn()`` calls the package and returns its
result, ``check(result)`` returns a list of errors (see ``checks.py``),
``count(result)`` is the number of certified basic intervals the result
carries, and ``cycle_end`` marks where a run may stop without skewing the
workload's mix.  ``TAIL`` is the percentile a workload's op_tail_s reads:
the highest with at least ten samples beyond it in a 35 s run, fixed so
that a program completing more or fewer operations reads the same
percentile.  Package functions are looked up through the package
namespace at call time, so the tracer's wrappers see every call.  The
package only ever receives the generated inputs.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from types import SimpleNamespace

import checks
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


class Op:
    __slots__ = ("kind", "fn", "check", "count", "cycle_end")

    def __init__(self, kind, fn, check, count, cycle_end=True):
        self.kind, self.fn, self.check, self.count, self.cycle_end = kind, fn, check, count, cycle_end


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


def _q(ct, value: F):
    return ct.Q(value.numerator, value.denominator)


def _distinct_point(rng, seen, qmin=5, qmax=4096) -> F:
    while True:
        q = rng.randint(qmin, qmax)
        x = F(rng.randint(1, q - 1), q)
        if x not in seen:
            seen.add(x)
            return x


def depth_for_count(x: F, m: int, lo: int, hi: int, max_depth: int = 14):
    """Smallest depth whose admissible-word count reaches `lo`, if that
    count stays <= `hi` (closed-form count, so this costs no solving)."""
    digits = checks.greedy_prefix(x, m, max_depth)
    ell = checks.first_defect(digits, m)
    if ell is None:
        return None
    for n in range(ell, max_depth + 1):
        count = checks.admissible_count(digits, m, n)
        if count >= lo:
            return n if count <= hi else None
    return None


# ---------------------------------------------------------------------------
# cover-cold


class CoverCold:
    """One cover() per operation, each of a distinct point x = p/q.

    The (m, tol) configurations rotate in a fixed order so every run has the
    same mix, and the depth is chosen per point so each cover has exactly
    COUNT[m, bits] basic intervals.  The counts make the four configurations
    cost about the same (a 2^-40 cover of 2n intervals costs what a 2^-64
    cover of n does), so the latencies form one mode and their median does
    not sit in a gap between two.
    """

    name = "cover-cold"
    IN_PROCESS = True
    setup_import = "cantor_toolkit"
    CONFIGS = ((2, 40), (2, 64), (3, 40), (3, 64))
    COUNT = {(2, 40): 8, (2, 64): 4, (3, 40): 9, (3, 64): 4}
    TAIL = 95.0
    PREFIX_CYCLES = 12

    def ops(self, ct, seed: int):
        rng = _rng(self.name, seed)
        seen: set = set()
        i = 0
        while True:
            m, bits = self.CONFIGS[i % len(self.CONFIGS)]
            while True:
                x = _distinct_point(rng, seen)
                count = self.COUNT[m, bits]
                depth = depth_for_count(x, m, count, count)
                if depth is not None:
                    break
            i += 1
            yield self._op(ct, x, m, depth, bits)

    @staticmethod
    def _op(ct, x, m, depth, bits):
        xq, tol = _q(ct, x), ct.Q(1, 2**bits)
        return Op(
            "cover.m%d.tol%d" % (m, bits),
            lambda: ct.cover(xq, m, depth, tol),
            lambda r: checks.check_cover(r, x, m, depth),
            lambda r: len(r.intervals),
        )


# ---------------------------------------------------------------------------
# analysis-warm


def _defects(x: F, m: int, count: int, within: int):
    digits = checks.greedy_prefix(x, m, within)
    positions = [i for i, d in enumerate(digits, start=1) if d < m - 1]
    return positions[:count] if len(positions) >= count else None


class AnalysisWarm:
    """A chain of point pairs, each run through the analysis calls in the
    order a user would issue them.  Consecutive pairs share a point, and the
    calls of one pair reuse and re-refine each other's brackets.

    The first pair is the paper's (1/2, 2/5), the second an m=3 pair, the
    rest seeded m=2 pairs.
    """

    name = "analysis-warm"
    IN_PROCESS = True
    setup_import = "cantor_toolkit"
    K = {2: 4, 3: 2}  # subsystems per point
    DEPTH = {2: 3, 3: 2}  # thickness / witness depth
    GAMMAS = 3
    SCAN_COUNT = (6, 12)  # cover size of the local dimension scan
    SCAN_DELTAS = (F(1, 8), F(1, 16), F(1, 32))
    GRID_DEPTH = 10
    REVERIFY_TOL = F(1, 2**80)
    TAIL = 95.0
    PREFIX_CYCLES = 2  # pairs

    def _point_ok(self, x: F, m: int) -> bool:
        positions = _defects(x, m, self.K[m] + self.GAMMAS, 10)
        return (
            positions is not None
            and positions[0] > 1
            and depth_for_count(x, m, *self.SCAN_COUNT) is not None
        )

    def _point(self, rng, seen, m: int) -> F:
        while True:
            x = _distinct_point(rng, seen, 5, 64)
            if self._point_ok(x, m):
                return x

    def pairs(self, seed: int):
        rng = _rng(self.name, seed)
        seen = {F(1, 2), F(2, 5)}
        yield F(1, 2), F(2, 5), 2
        yield self._point(rng, seen, 3), self._point(rng, seen, 3), 3
        prev = F(2, 5)
        while True:
            nxt = self._point(rng, seen, 2)
            yield prev, nxt, 2
            prev = nxt

    def ops(self, ct, seed: int):
        for x, y, m in self.pairs(seed):
            yield from self._pair_ops(ct, x, y, m)

    def _pair_ops(self, ct, x, y, m):
        K, D = self.K[m], self.DEPTH[m]
        xq, yq = _q(ct, x), _q(ct, y)
        st: dict = {}
        siblings = sum(m ** (n - 1) * (m - 1) for n in range(1, D + 1))

        def hulls(key, p, pq):
            def fn():
                st[key] = ct.ek_hulls(pq, m, K)
                return st[key]

            return Op("ek_hulls", fn, lambda r: checks.check_hulls(r, p, m, K), len, False)

        yield hulls("hx", x, xq)
        yield hulls("hy", y, yq)
        for k in range(1, K + 1):
            yield Op(
                "tau_estimate",
                lambda k=k: ct.tau_estimate(xq, m, k, D),
                lambda r, k=k: checks.check_tau(r, st["hx"][k - 1], x, k, D),
                lambda r: 2 * siblings,
                False,
            )
        yield Op(
            "theta_sequence",
            lambda: ct.theta_sequence(xq, m, K),
            lambda r: checks.check_theta(r, st["hx"], x),
            lambda r: len(r) + 1,
            False,
        )

        def interleave():
            st["pairs"] = ct.find_interleaved_pairs(xq, yq, m, K, D)
            return st["pairs"]

        yield Op(
            "find_interleaved_pairs",
            interleave,
            lambda r: checks.check_interleave(r, st["hx"], st["hy"], x, y, K),
            lambda r: 2 * len(r),
            False,
        )
        tol = _q(ct, self.REVERIFY_TOL)
        for pair in st.get("pairs", ()):
            yield Op(
                "reverify_pair",
                lambda pair=pair: ct.reverify_pair(pair, xq, yq, m, tol),
                lambda r, pair=pair: [] if r is True else ["reverify (%d,%d) failed" % (pair.i, pair.j)],
                lambda r: 2,
                False,
            )
        for j in range(1, self.GAMMAS + 1):
            yield Op(
                "gamma_j",
                lambda j=j: ct.gamma_j(xq, m, j),
                lambda r, j=j: checks.check_gamma(r, x, m, j),
                lambda r: 1,
                False,
            )
        depth = depth_for_count(x, m, *self.SCAN_COUNT)
        cap = ct.Q(1, m)
        center = ct.Bracket(cap, cap, ct.Code(m, (), ct.Tail.TRUNCATED), xq)
        deltas = [_q(ct, d) for d in self.SCAN_DELTAS]
        digits = checks.greedy_prefix(x, m, depth)
        yield Op(
            "local_dimension_scan",
            lambda: ct.local_dimension_scan(xq, m, center, deltas, depth, self.GRID_DEPTH),
            lambda r: checks.check_scan(r, m, F(1, m), self.SCAN_DELTAS, self.GRID_DEPTH),
            lambda r: checks.admissible_count(digits, m, depth),
            True,
        )


# ---------------------------------------------------------------------------
# membership-batch


def _primitive(word) -> bool:
    n = len(word)
    return all(word != word[p:] + word[:p] for p in range(1, n) if n % p == 0)


class MembershipBatch:
    """Seeded (x, lambda) verdicts plus unique_coding and greedy_expansion
    calls, cycling through a fixed pool.  The verdict mix is balanced by
    construction: planted short-period codings (MEMBER, some at lambda =
    1/m), points the cover oracle excludes (NOT_MEMBER), and planted codings
    whose period exceeds MAX_STEPS (UNDETERMINED)."""

    name = "membership-batch"
    IN_PROCESS = True
    setup_import = "cantor_toolkit"
    POOL = 1000
    MAX_STEPS = 48
    CODING_DIGITS = 24
    GREEDY_DIGITS = 32
    PATTERN = ("member", "unique", "not_member", "greedy", "deep")
    TAIL = 99.9
    PREFIX_CYCLES = 400  # 2000 operations

    def pool(self, seed: int):
        rng = _rng(self.name, seed)
        items = []
        for i in range(self.POOL):
            kind = self.PATTERN[i % len(self.PATTERN)]
            m = rng.choice((2, 3))
            items.append((kind, m) + self._inputs(rng, kind, m))
        return items

    @staticmethod
    def _lam(rng, m: int, b_min: int = 5) -> F:
        while True:
            b = rng.randint(b_min, 40)
            lam = F(rng.randint(1, b), b)
            if 0 < lam * m < 1:
                return lam

    def _planted(self, rng, m, lam, pre_len, per_len):
        while True:
            pre = tuple(rng.randrange(m) for _ in range(pre_len))
            per = tuple(rng.randrange(m) for _ in range(per_len))
            x = checks.periodic_value(pre, per, lam)
            if 0 < x and _primitive(per):
                return x

    def _inputs(self, rng, kind, m):
        if kind == "member":
            if rng.random() < 0.25:
                q = rng.randint(2, 12)
                return F(rng.randint(1, q - 1), q), F(1, m), "member"
            lam = self._lam(rng, m)
            x = self._planted(rng, m, lam, rng.randint(0, 3), rng.randint(1, 4))
            return x, lam, "member"
        if kind == "deep":
            # one size for all deep items: they are the tail of the batch
            lam = self._lam(rng, m, 31)
            return self._planted(rng, m, lam, 1, self.MAX_STEPS + 8), lam, "undetermined"
        if kind == "not_member":
            lam = self._lam(rng, m)
            hull = checks.hull_max(lam, m)
            while True:
                q = rng.randint(3, 60)
                x = F(rng.randint(1, q - 1), q)
                if x < hull and oracles.membership_oracle(x, lam, m) == "not_member":
                    return x, lam, "not_member"
        if kind == "unique":
            lam = self._lam(rng, m)
            if rng.random() < 0.5:
                return self._planted(rng, m, lam, 2, rng.randint(3, 9)), lam, None
            return F(rng.randint(1, 99), 100) * checks.hull_max(lam, m), lam, None
        q = rng.randint(3, 200)
        return F(rng.randint(1, q - 1), q), None, None

    def ops(self, ct, seed: int):
        items = [self._item_op(ct, item) for item in self.pool(seed)]
        first: dict = {}
        pattern = len(self.PATTERN)
        i = 0
        while True:
            idx = i % len(items)
            kind, fn, check, count = items[idx]

            def checked(r, idx=idx, check=check):
                if idx in first:
                    return [] if r == first[idx] else ["repeat of pool item %d changed its output" % idx]
                errors = check(r)
                if not errors:
                    first[idx] = r
                return errors

            i += 1
            yield Op(kind, fn, checked, count, i % pattern == 0)

    def _item_op(self, ct, item):
        kind, m, x, lam, expected = item
        xq = _q(ct, x)
        if kind == "greedy":
            n = self.GREEDY_DIGITS
            return (
                "greedy_expansion",
                lambda: tuple(ct.greedy_expansion(xq, m, n).prefix(n)),
                lambda r: checks.check_greedy(r, x, m, n),
                lambda r: n,
            )
        lq = _q(ct, lam)
        if kind == "unique":
            n = self.CODING_DIGITS
            return (
                "unique_coding",
                lambda: ct.unique_coding(xq, lq, m, n),
                lambda r: checks.check_unique_coding(r, x, lam, m, n),
                lambda r: len(r[0]),
            )
        oracle = oracles.membership_oracle(x, lam, m)
        steps = self.MAX_STEPS
        return (
            "membership." + expected,
            lambda: ct.membership(xq, lq, m, max_steps=steps),
            lambda r: checks.check_membership(r, x, lam, m, steps, expected, oracle),
            lambda r: len(r.extracted_digits),
        )


# ---------------------------------------------------------------------------
# cli-readme


def child_env() -> dict:
    """Environment of every process the benchmark starts: the package from
    src/, and CANTOR_TOOLKIT_THREADS removed."""
    env = dict(os.environ)
    env.pop("CANTOR_TOOLKIT_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


class CliReadme:
    """The README's five commands, each a fresh ``python -m
    cantor_toolkit.cli`` subprocess.  The three expensive ones run at a
    reduced size (their verbatim cost is in README.md); the seed shuffles the order of the
    commands within each cycle."""

    name = "cli-readme"
    IN_PROCESS = False
    setup_import = "cantor_toolkit.cli"
    COMMANDS = {
        "cover_svg": "cover --m 2 --x 1/2 --depth 4 --format svg --out {svg}",
        "cover_json": "cover --m 2 --x 1/2 --depth 2 --format json",
        "thickness": "thickness --m 2 --x 1/2 --kmax 3 --depth 2",
        "intersect": "intersect --m 2 --x 1/2 --y 2/5 --kmax 3 --depth 2",
        "dimension": "dimension --m 2 --x 1/2 --at 1/m --deltas 1/8,1/16,1/32 --depth 4 --grid-depth 16",
        "membership": "membership --m 2 --x 1/2 --lambda 2/5",
    }
    TIMEOUT_S = 120
    TAIL = 90.0
    PREFIX_CYCLES = 1

    def __init__(self):
        self.svg_path = os.path.join(OUT_DIR, "cover.svg")

    def argv(self, label: str) -> list[str]:
        return self.COMMANDS[label].format(svg=self.svg_path).split()

    def ops(self, ct, seed: int, traced_dir=None):
        rng = _rng(self.name, seed)
        labels = list(self.COMMANDS)
        cycle = 0
        while True:
            rng.shuffle(labels)
            for pos, label in enumerate(labels):
                span_file = None
                if traced_dir is not None:
                    span_file = os.path.join(traced_dir, "c%d-%s.json" % (cycle, label))
                yield Op(
                    "cli." + label,
                    lambda label=label, span_file=span_file: self.run(label, span_file),
                    lambda r, label=label: self.check(label, r),
                    lambda r, label=label: self.count(label),
                    pos == len(labels) - 1,
                )
            cycle += 1

    def run(self, label: str, span_file=None):
        """Run one command; returns its (stdout, stderr)."""
        if span_file is None:
            cmd = [sys.executable, "-m", "cantor_toolkit.cli"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "clitrace.py"), span_file]
        if label == "cover_svg" and os.path.exists(self.svg_path):
            os.remove(self.svg_path)
        proc = subprocess.run(
            cmd + self.argv(label),
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=self.TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError("%s exited %d: %s" % (label, proc.returncode, proc.stderr.strip()[-300:]))
        return proc.stdout, proc.stderr

    # -- output checks ----------------------------------------------------

    def check(self, label, result) -> list[str]:
        out, err = result
        errors = ["%s wrote to stderr: %s" % (label, err.strip()[:200])] if err.strip() else []
        return errors + getattr(self, "_check_" + label)(out)

    def count(self, label) -> int:
        digits = checks.greedy_prefix(F(1, 2), 2, 8)
        if label == "cover_svg":
            return sum(checks.admissible_count(digits, 2, n) for n in range(2, 5))
        if label == "cover_json":
            return checks.admissible_count(digits, 2, 2)
        if label == "thickness":
            return 3 * (1 + 2 * (1 + 2))
        if label == "dimension":
            return checks.admissible_count(digits, 2, 4)
        if label == "membership":
            return 11
        return 2 * 3  # intersect: the three hulls of each point

    def _check_cover_svg(self, _out) -> list[str]:
        import xml.etree.ElementTree as ET

        try:
            root = ET.parse(self.svg_path).getroot()
        except (OSError, ET.ParseError) as exc:
            return ["cover_svg: unreadable SVG (%s)" % exc]
        ns = "{http://www.w3.org/2000/svg}"
        rects = root.findall(ns + "rect")
        labels = [t.text for t in root.findall(ns + "text")]
        errors = []
        if len(rects) != 1 + self.count("cover_svg"):
            errors.append("cover_svg: %d bars, independent enumeration gives %d" % (len(rects), 1 + self.count("cover_svg")))
        if labels[1:] != ["n=2", "n=3", "n=4"]:
            errors.append("cover_svg: level rows %r" % (labels[1:],))
        for r in rects:
            x0, w = float(r.get("x")), float(r.get("width"))
            if not (60 - 1e-6 <= x0 and x0 + w <= 1060 + 0.5):
                errors.append("cover_svg: bar outside the hull width")
                break
        return errors

    def _check_cover_json(self, out) -> list[str]:
        import json

        import jsonschema

        payload = json.loads(out)
        with open(os.path.join(SRC, "cantor_toolkit", "schemas", "cover.schema.json")) as fh:
            schema = json.load(fh)
        try:
            jsonschema.validate(payload, schema)
        except jsonschema.ValidationError as exc:
            return ["cover_json: schema violation: %s" % exc.message]
        digits = checks.greedy_prefix(F(1, 2), 2, 2)
        words = ["".join(map(str, w)) for w in checks.admissible_words_desc(digits, 2, 2)]
        if [iv["word"] for iv in payload["intervals"]] != words:
            return ["cover_json: words differ from the independent enumeration"]
        slack = 10.0 ** -payload["digits"]
        errors = []
        for iv in payload["intervals"]:
            word = tuple(int(c) for c in iv["word"])
            lo = oracles.float_root(word, True, 2, 0.5)
            hi = oracles.float_root(word, False, 2, 0.5)
            hi = 0.5 if hi is None else hi
            if abs(float(iv["lo"]) - lo) > slack or abs(float(iv["hi"]) - hi) > slack:
                errors.append("cover_json: interval %s endpoints off the float roots" % iv["word"])
        return errors

    def _check_thickness(self, out) -> list[str]:
        rows = [line.split() for line in out.splitlines()[2:]]
        if [r[0] for r in rows] != ["1", "2", "3"]:
            return ["thickness: rows %r" % ([r[0] for r in rows],)]
        digits = checks.greedy_prefix(F(1, 2), 2, 16)
        positions = [i for i, d in enumerate(digits, start=1) if d == 0][:3]
        errors = []
        for row, n_j in zip(rows, positions):
            system = SimpleNamespace(m=2, prefix=tuple(digits[: n_j - 1]) + (1,))
            approx = min(checks.float_tau_levels(system, 0.5, 2))
            if abs(float(row[1]) - approx) > 1e-5 + 1e-4 * approx:
                errors.append("thickness k=%s: tau %s, float estimate %r" % (row[0], row[1], approx))
        return errors

    def _check_intersect(self, out) -> list[str]:
        lines = out.splitlines()
        if not lines or not lines[-1].startswith("best dim_lower:"):
            return ["intersect: no summary line"]
        errors = []
        for line in lines[1:-1]:
            if "=" not in line:
                continue
            fields = dict(part.split("=", 1) for part in line.strip().strip("()").replace(")", "").replace(",", "").split())
            i, j, tau = int(fields["i"]), int(fields["j"]), F(fields["tau_min"])
            met = tau > 1 and (tau - 1) ** 2 > 2
            if not (1 <= i <= 3 and 1 <= j <= 3) or fields["threshold_met"] != str(met):
                errors.append("intersect: inconsistent row %r" % line)
        return errors

    def _check_dimension(self, out) -> list[str]:
        rows = [line.split() for line in out.splitlines()[2:]]
        if [r[0] for r in rows] != ["1/8", "1/16", "1/32"]:
            return ["dimension: rows %r" % ([r[0] if r else "" for r in rows],)]
        errors = []
        for r in rows:
            if not 0 <= float(r[1]) <= 1 or r[2] != "1.0000":
                errors.append("dimension: row %r out of range" % (r,))
        return errors

    def _check_membership(self, out) -> list[str]:
        x, lam = F(1, 2), F(2, 5)
        oracle = oracles.membership_oracle(x, lam, 2)
        lines = out.splitlines()
        verdict = lines[0].rsplit(": ", 1)[-1] if lines else ""
        if verdict != "not_member" or oracle not in ("not_member", "inconclusive"):
            return ["membership: verdict %r, cover oracle %r" % (verdict, oracle)]
        step = int(lines[1].split()[-1])
        hull = checks.hull_max(lam, 2)
        y = x
        for _ in range(step - 1):
            fitting = [d for d in range(2) if checks.fits(y, d, lam, hull)]
            if len(fitting) != 1:
                return ["membership: own replay leaves the set before step %d" % step]
            y = y / lam - fitting[0]
        if any(checks.fits(y, d, lam, hull) for d in range(2)):
            return ["membership: a digit fits at the reported failing step %d" % step]
        return []


WORKLOADS = {w.name: w for w in (CoverCold(), AnalysisWarm(), MembershipBatch(), CliReadme())}
