"""Outside-in tracing: spans around the calls into each layer of the package.

The tracer replaces each layer's public functions at every module attribute
the package looks them up under (for example ``lambda_set.solve_lambda``,
``thickness.refine`` and the ``exact_arith.eval_pi`` global that the solver
reads on every step), so calls between layers are recorded as well as the
benchmark's own calls.  Spans stay in memory with their parent's id and are
written out once, at the end; self times are derived from them afterwards.
No package source is changed.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
from fractions import Fraction as F
from time import perf_counter

#: span name -> [(module, attribute), ...] of every binding to replace.
BINDINGS = {
    "exact_arith.eval": [("exact_arith", "eval_pi"), ("thickness", "eval_pi"), ("", "eval_pi")],
    "exact_arith.split": [("exact_arith", "simplest_between"), ("", "simplest_between")],
    "exact_arith.solve": [
        ("exact_arith", "solve_lambda"),
        ("lambda_set", "solve_lambda"),
        ("thickness", "solve_lambda"),
        ("dimension", "solve_lambda"),
        ("cli", "solve_lambda"),
        ("", "solve_lambda"),
    ],
    "exact_arith.refine": [("exact_arith", "refine"), ("thickness", "refine"), ("", "refine")],
    "exact_arith.compare": [
        ("thickness", "compare_brackets"),
        ("thickness", "compare_bracket_values"),
        ("", "compare_brackets"),
        ("", "compare_bracket_values"),
    ],
    "exact_arith.separate": [("lambda_set", "separate_brackets"), ("thickness", "separate_brackets")],
    "coding.membership": [("coding", "membership"), ("cli", "membership"), ("", "membership")],
    "coding.unique": [("coding", "unique_coding"), ("", "unique_coding")],
    "coding.greedy": [("coding", "greedy_expansion"), ("", "greedy_expansion")],
    "lambda_set.cover": [("lambda_set", "cover"), ("dimension", "cover"), ("cli", "cover"), ("", "cover")],
    "lambda_set.interval": [("lambda_set", "interval_for_prefix"), ("thickness", "interval_for_prefix")],
    "thickness.hulls": [("thickness", "ek_hulls"), ("cli", "ek_hulls"), ("", "ek_hulls")],
    "thickness.basic": [("thickness", "ek_basic_interval"), ("", "ek_basic_interval")],
    "thickness.tau": [("thickness", "tau_estimate"), ("cli", "tau_estimate"), ("", "tau_estimate")],
    "thickness.theta": [("thickness", "theta_sequence"), ("", "theta_sequence")],
    "thickness.interleave": [
        ("thickness", "find_interleaved_pairs"),
        ("cli", "find_interleaved_pairs"),
        ("", "find_interleaved_pairs"),
    ],
    "thickness.reverify": [("thickness", "reverify_pair"), ("", "reverify_pair")],
    "dimension.scan": [
        ("dimension", "local_dimension_scan"),
        ("cli", "local_dimension_scan"),
        ("", "local_dimension_scan"),
    ],
    "dimension.box": [("dimension", "box_dimension"), ("", "box_dimension")],
    "dimension.gamma": [("dimension", "gamma_j"), ("", "gamma_j")],
    "cli.render": [
        ("output", name)
        for name in (
            "cover_payload",
            "cover_csv",
            "cover_text",
            "cover_svg",
            "thickness_payload",
            "thickness_csv",
            "thickness_text",
            "interleave_payload",
            "interleave_text",
            "dimension_payload",
            "dimension_csv",
            "dimension_text",
            "membership_payload",
            "membership_text",
            "to_json",
        )
    ],
}

#: Layers whose recursion through their own global collapses into one span.
COLLAPSE = {"exact_arith.split"}

TOL40 = F(1, 2**40)
TOL64 = F(1, 2**64)


def _den_bits(bracket) -> int:
    return max(int(bracket.lo.denominator).bit_length(), int(bracket.hi.denominator).bit_length())


def _tol_class(args, kwargs) -> str:
    tol = kwargs.get("tol", args[2] if len(args) > 2 else None)
    if tol is None:
        return "64"
    tol = F(int(tol.numerator), int(tol.denominator))
    return "40" if tol == TOL40 else "64" if tol == TOL64 else "other"


def _meta(name, args, kwargs, result):
    """Small per-span facts read off the arguments and the result."""
    if name == "exact_arith.solve":
        return (_tol_class(args, kwargs), _den_bits(result))
    if name == "exact_arith.refine":
        return _den_bits(result)
    if name == "coding.membership":
        return result.verdict.value
    if name == "lambda_set.cover":
        return len(result.gaps)
    if name == "thickness.interleave":
        kmax = kwargs["kmax"] if "kmax" in kwargs else args[3]
        return (kmax * kmax, len(result))
    if name == "thickness.reverify":
        return bool(result)
    if name == "dimension.box":
        return sum(count for _, count in result.grid_levels)
    return None


class Tracer:
    """Spans as (parent, name, start, end, error, meta) rows, in call order."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.interleave_calls: list = []  # (args, kwargs, result) for the threshold audit
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        collapse = name in COLLAPSE
        keep_calls = name == "thickness.interleave"
        calls = self.interleave_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if collapse and stack and spans[stack[-1]] == name:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(name)  # placeholder until the span closes
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (parent, name, t0, t1, type(exc).__name__, None)
                raise
            t1 = perf_counter()
            stack.pop()
            spans[sid] = (parent, name, t0, t1, None, _meta(name, args, kwargs, result))
            if keep_calls:
                calls.append((args, kwargs, result))
            return result

        return wrapper

    def install(self, modules: dict):
        """Replace every binding; `modules` maps short names ('' = the package)."""
        wrappers = {}
        for name, bindings in BINDINGS.items():
            for mod_name, attr in bindings:
                mod = modules.get(mod_name)
                if mod is None or not hasattr(mod, attr):
                    continue
                original = getattr(mod, attr)
                key = (name, id(original))  # one wrapper per function, shared by its bindings
                if key not in wrappers:
                    wrappers[key] = self._wrap(name, original)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrappers[key])

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def rows(self) -> list:
        """All spans; call once every traced call has returned."""
        return self.spans


def package_modules():
    import cantor_toolkit
    from cantor_toolkit import cli, coding, dimension, exact_arith, lambda_set, output, thickness

    return {
        "": cantor_toolkit,
        "exact_arith": exact_arith,
        "coding": coding,
        "lambda_set": lambda_set,
        "thickness": thickness,
        "dimension": dimension,
        "cli": cli,
        "output": output,
    }


def write_spans(path: str, rows: list):
    """Spans as one JSON document: parent ids index into the same list."""
    with gzip.open(path, "wt", encoding="ascii") as fh:
        json.dump(
            {
                "fields": ["parent", "name", "start_s", "end_s", "error"],
                "spans": [[p, n, round(a, 9), round(b, 9), e] for p, n, a, b, e, _ in rows],
            },
            fh,
        )


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _children(rows):
    kids = [[] for _ in rows]
    for i, row in enumerate(rows):
        if row[0] >= 0:
            kids[row[0]].append(i)
    return kids


def layer_metrics(rows: list) -> dict:
    """Counts, self times and ratios per layer, derived from the spans."""
    kids = _children(rows)
    dur = [r[3] - r[2] for r in rows]
    self_t = [dur[i] - sum(dur[c] for c in kids[i]) for i in range(len(rows))]
    names = [r[1] for r in rows]

    def spans_of(name):
        return [i for i, n in enumerate(names) if n == name]

    def calls(name):
        return len(spans_of(name))

    def self_s(name, with_children=()):
        total = 0.0
        for i in spans_of(name):
            total += self_t[i]
            total += sum(self_t[c] for c in kids[i] if names[c] in with_children)
        return total

    solves = spans_of("exact_arith.solve")
    # a hit returns a bracket without evaluating the series; the zero code's
    # immediate NoRootError is not one
    hits = sum(
        1
        for i in solves
        if rows[i][4] is None and not any(names[c] == "exact_arith.eval" for c in kids[i])
    )
    by_tol = {"40": [], "64": []}
    den_bits = 0
    for i in solves:
        meta = rows[i][5]
        if meta is not None:
            by_tol.get(meta[0], []).append(dur[i])
            den_bits = max(den_bits, meta[1])
    for i in spans_of("exact_arith.refine"):
        if rows[i][5] is not None:
            den_bits = max(den_bits, rows[i][5])

    thickness_callers = {"thickness.interleave", "thickness.reverify"}
    exhausted = sum(
        1
        for i in spans_of("exact_arith.compare")
        if rows[i][4] == "PrecisionExhaustedError"
        and rows[i][0] >= 0
        and names[rows[i][0]] in thickness_callers
        and rows[rows[i][0]][4] is None
    )

    member = [rows[i][5] for i in spans_of("coding.membership")]

    gap_refines = gaps = 0
    for i in spans_of("lambda_set.cover"):
        separations = [c for c in kids[i] if names[c] == "exact_arith.separate"]
        if separations and rows[i][5] is not None:
            gaps += rows[i][5]
            gap_refines += sum(
                1 for s in separations for c in kids[s] if names[c] == "exact_arith.refine"
            )

    tested = certified = 0
    for i in spans_of("thickness.interleave"):
        if rows[i][5] is not None:
            tested += rows[i][5][0]
            certified += rows[i][5][1]
    reverified = [rows[i][5] for i in spans_of("thickness.reverify") if rows[i][5] is not None]

    return {
        "exact_arith.eval.calls": calls("exact_arith.eval"),
        "exact_arith.eval.self_s": self_s("exact_arith.eval"),
        "exact_arith.split.calls": calls("exact_arith.split"),
        "exact_arith.split.self_s": self_s("exact_arith.split"),
        "exact_arith.solve.calls": len(solves),
        "exact_arith.solve.self_s": self_s("exact_arith.solve"),
        "exact_arith.solve.tol40.p50_s": statistics.median(by_tol["40"]) if by_tol["40"] else 0.0,
        "exact_arith.solve.tol64.p50_s": statistics.median(by_tol["64"]) if by_tol["64"] else 0.0,
        "exact_arith.solve.hit_ratio": hits / len(solves) if solves else 0.0,
        "exact_arith.refine.calls": calls("exact_arith.refine"),
        "exact_arith.refine.self_s": self_s("exact_arith.refine"),
        "exact_arith.compare.calls": calls("exact_arith.compare") + calls("exact_arith.separate"),
        "exact_arith.compare.self_s": self_s("exact_arith.compare") + self_s("exact_arith.separate"),
        "exact_arith.compare.exhausted": exhausted,
        "exact_arith.bracket.max_den_bits": den_bits,
        "coding.membership.calls": len(member),
        "coding.membership.self_s": self_s("coding.membership"),
        "coding.membership.undetermined_ratio": (
            sum(1 for v in member if v == "undetermined") / len(member) if member else 0.0
        ),
        "coding.greedy.calls": calls("coding.greedy"),
        "coding.greedy.self_s": self_s("coding.greedy"),
        "coding.unique.calls": calls("coding.unique"),
        "coding.unique.self_s": self_s("coding.unique"),
        "lambda_set.cover.calls": calls("lambda_set.cover"),
        "lambda_set.cover.self_s": self_s("lambda_set.cover", ("lambda_set.interval",)),
        "lambda_set.gap.refines_per_gap": gap_refines / gaps if gaps else 0.0,
        "thickness.tau.self_s": self_s("thickness.tau", ("thickness.basic",)),
        "thickness.interleave.self_s": self_s("thickness.interleave", ("thickness.basic",)),
        "thickness.interleave.pairs_tested": tested,
        "thickness.interleave.certified_ratio": certified / tested if tested else 0.0,
        "thickness.reverify.ok_ratio": sum(reverified) / len(reverified) if reverified else 0.0,
        "dimension.scan.self_s": self_s("dimension.scan"),
        "dimension.box.self_s": self_s("dimension.box"),
        "dimension.box.grid_cells": sum(rows[i][5] or 0 for i in spans_of("dimension.box")),
        "cli.render.self_s": self_s("cli.render"),
    }


def threshold_uncertified(interleave_calls) -> int:
    """Pairs reported `meets_threshold` whose certified analytic thickness
    bound does not exceed 1+sqrt(2) for both subsystems.  Runs with the
    tracer removed, after the measured work."""
    import cantor_toolkit as ct

    count = 0
    for args, kwargs, pairs in interleave_calls:
        params = dict(zip(("x", "y", "m", "kmax", "depth", "tol"), args))
        params.update(kwargs)
        depth = params.get("depth", 6)
        tol = params.get("tol")
        for p in pairs:
            if not p.meets_threshold:
                continue
            lows = [
                ct.tau_estimate(params["x"], params["m"], p.i, depth, tol).tau_analytic_lower,
                ct.tau_estimate(params["y"], params["m"], p.j, depth, tol).tau_analytic_lower,
            ]
            if any(t is None or not (t > 1 and (t - 1) ** 2 > 2) for t in lows):
                count += 1
    return count
