"""Report serialization: JSON payloads, CSV tables, and the cover diagram SVG.

The *_payload builders are the only code that turns an analysis value into
a string: exact rationals become "p/q" strings (lossless round-trip), and
approximations become decimal strings tagged by the top-level "digits" field.
Every format is rendered from that payload dict (JSON prints it; the CSV,
text and SVG renderers take it and only lay out its strings), so a change to
how a value is printed touches one builder per command.
All outputs are byte-deterministic for a fixed configuration.
"""

from __future__ import annotations

import io
import json
from typing import TYPE_CHECKING, Optional

from ._rat import Q, dec_str, dec_to_rational, rat_str
from .errors import DomainError

if TYPE_CHECKING:  # annotations only: rendering one report loads no other analysis
    from .coding import MembershipResult
    from .dimension import LocalDimensionPoint
    from .exact_arith import Bracket
    from .lambda_set import CoverLevel
    from .thickness import EkSystem, InterleavePair, IntersectionReport, ThicknessReport


def _word_str(word) -> str:
    return ",".join(str(d) for d in word) if any(d > 9 for d in word) else "".join(
        str(d) for d in word
    )


def _bracket_mid_dec(bracket: Bracket, digits: int) -> str:
    return dec_str(bracket.midpoint, digits)


# ---------------------------------------------------------------------------
# cover


def cover_payload(cover: CoverLevel, digits: int) -> dict:
    return {
        "x": rat_str(cover.x),
        "m": cover.m,
        "depth": cover.depth,
        "digits": digits,
        "hull": [rat_str(cover.hull[0]), rat_str(cover.hull[1])],
        "intervals": [
            {
                "word": _word_str(iv.word),
                "lo": _bracket_mid_dec(iv.left, digits),
                "hi": _bracket_mid_dec(iv.right, digits),
            }
            for iv in cover.intervals
        ],
        "gaps": [
            [_bracket_mid_dec(lo, digits), _bracket_mid_dec(hi, digits)]
            for lo, hi in cover.gaps
        ],
    }


def cover_csv(payload: dict) -> str:
    out = io.StringIO()
    out.write("word,lo,hi\n")
    for iv in payload["intervals"]:
        out.write("%s,%s,%s\n" % (iv["word"], iv["lo"], iv["hi"]))
    return out.getvalue()


def cover_text(payload: dict) -> str:
    lines = [
        "cover of x=%s, m=%d, depth %d" % (payload["x"], payload["m"], payload["depth"]),
        "hull [%s, %s]" % tuple(payload["hull"]),
    ]
    for iv in payload["intervals"]:
        lines.append("  %-16s [%s, %s]" % (iv["word"], iv["lo"], iv["hi"]))
    lines.append("gaps:")
    for lo, hi in payload["gaps"]:
        lines.append("  (%s, %s)" % (lo, hi))
    return "\n".join(lines) + "\n"


SVG_PLOT_WIDTH = 1000
SVG_MARGIN = 60
SVG_ROW_HEIGHT = 28
SVG_BAR_HEIGHT = 8


def cover_svg(levels: list[dict]) -> str:
    """Construction diagram of cover payloads: one hull bar plus one row of
    interval bars per cover level, on a fixed 1000-unit hull width.

    Bar positions come from the payloads' decimal interval ends, so the
    diagram is pixel-stable across runs.
    """
    if not levels:
        raise DomainError("need at least one cover level")
    levels = sorted(levels, key=lambda c: c["depth"])
    digits = levels[0]["digits"]
    hull_lo, hull_hi = (Q(end) for end in levels[0]["hull"])
    # A rendering step narrower than the hull keeps the two rounded hull
    # endpoints apart, so the span below is positive.
    if Q(1, 10**digits) >= hull_hi - hull_lo:
        raise DomainError("digits=%d too coarse for the hull [%s, %s]" % (digits, *levels[0]["hull"]))
    lo_dec = dec_to_rational(dec_str(hull_lo, digits))
    hi_dec = dec_to_rational(dec_str(hull_hi, digits))
    span = hi_dec - lo_dec

    def xpos(value_dec: str) -> float:
        return SVG_MARGIN + float((dec_to_rational(value_dec) - lo_dec) / span) * SVG_PLOT_WIDTH

    rows = len(levels) + 1
    height = SVG_MARGIN + rows * SVG_ROW_HEIGHT + SVG_MARGIN // 2
    width = SVG_PLOT_WIDTH + 2 * SVG_MARGIN
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<style>text{font-family:monospace;font-size:11px}</style>',
    ]
    y = SVG_MARGIN

    def bar(x0: float, x1: float, y: int, color: str):
        parts.append(
            '<rect x="%.2f" y="%d" width="%.2f" height="%d" fill="%s"/>'
            % (x0, y, max(x1 - x0, 0.5), SVG_BAR_HEIGHT, color)
        )

    bar(SVG_MARGIN, SVG_MARGIN + SVG_PLOT_WIDTH, y, "#888888")
    parts.append(
        '<text x="%d" y="%d">hull [%s, %s]</text>'
        % (4, y + SVG_BAR_HEIGHT, dec_str(hull_lo, digits), dec_str(hull_hi, digits))
    )
    for cov in levels:
        y += SVG_ROW_HEIGHT
        for iv in cov["intervals"]:
            bar(xpos(iv["lo"]), xpos(iv["hi"]), y, "#1f3f7f")
        parts.append('<text x="%d" y="%d">n=%d</text>' % (4, y + SVG_BAR_HEIGHT, cov["depth"]))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# thickness


def _opt_rat(value: Optional[Q]) -> Optional[str]:
    return None if value is None else rat_str(value)


def thickness_payload(
    x, m: int, systems: list[EkSystem], reports: list[ThicknessReport], digits: int
) -> dict:
    entries = []
    for system, report in zip(systems, reports):
        entries.append(
            {
                "k": report.k,
                "defect_ordinal": system.j,
                "raised_digit": system.b,
                "defect_position": system.n_j,
                "hull": {
                    "lo": _bracket_mid_dec(system.hull.left, digits),
                    "hi": _bracket_mid_dec(system.hull.right, digits),
                },
                "depth": report.depth,
                "per_level_min": [[n, rat_str(v)] for n, v in report.per_level_min],
                "tau_empirical": rat_str(report.tau_empirical),
                "tau_analytic_lower": _opt_rat(report.tau_analytic_lower),
                "newhouse_lower": _opt_rat(report.newhouse_lower),
                "dim_lower": _dec_float(report.dim_lower, digits),
            }
        )
    return {"x": rat_str(x), "m": m, "digits": digits, "reports": entries}


def _dec_float(value: float, digits: int) -> str:
    return "%.*f" % (digits, value)


def thickness_csv(payload: dict) -> str:
    out = io.StringIO()
    out.write("k,tau_empirical,tau_analytic_lower,newhouse_lower,dim_lower\n")
    for entry in payload["reports"]:
        out.write(
            "%d,%s,%s,%s,%s\n"
            % (
                entry["k"],
                entry["tau_empirical"],
                entry["tau_analytic_lower"] or "",
                entry["newhouse_lower"] or "",
                entry["dim_lower"],
            )
        )
    return out.getvalue()


def thickness_text(payload: dict) -> str:
    digits = payload["digits"]
    lines = ["thickness of subsystems of x=%s, m=%d" % (payload["x"], payload["m"])]
    lines.append("%4s %14s %22s %18s %10s" % ("k", "tau_empirical", "tau_analytic_lower", "newhouse_lower", "dim_lower"))
    for entry in payload["reports"]:
        lines.append(
            "%4d %14s %22s %18s %10s"
            % (
                entry["k"],
                _dec_float(float(Q(entry["tau_empirical"])), digits),
                _dec_float(float(Q(entry["tau_analytic_lower"])), digits)
                if entry["tau_analytic_lower"]
                else "-",
                _dec_float(float(Q(entry["newhouse_lower"])), digits)
                if entry["newhouse_lower"]
                else "-",
                entry["dim_lower"],
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# interleaving


def _witness_payload(witness, digits: int) -> dict:
    return {
        "k": witness.k,
        "word": _word_str(witness.word),
        "side": witness.side,
        "value": _bracket_mid_dec(witness.bracket, digits),
        "lo": rat_str(witness.bracket.lo),
        "hi": rat_str(witness.bracket.hi),
    }


def interleave_payload(
    x,
    y,
    m: int,
    kmax: int,
    pairs: list[InterleavePair],
    reports: list[IntersectionReport],
    digits: int,
) -> dict:
    entries = []
    best: Optional[float] = None
    for pair, report in zip(pairs, reports):
        if report.dim_lower is not None:
            best = report.dim_lower if best is None else max(best, report.dim_lower)
        entries.append(
            {
                "i": pair.i,
                "j": pair.j,
                "tau_min": rat_str(pair.tau_min),
                "meets_threshold": pair.meets_threshold,
                "witness_x_in_y": _witness_payload(pair.witness_x_in_y, digits),
                "witness_y_in_x": _witness_payload(pair.witness_y_in_x, digits),
                "report": {
                    "threshold_met": report.threshold_met,
                    "dim_lower": None
                    if report.dim_lower is None
                    else _dec_float(report.dim_lower, digits),
                    "quality": report.quality,
                },
            }
        )
    return {
        "x": rat_str(x),
        "y": rat_str(y),
        "m": m,
        "kmax": kmax,
        "digits": digits,
        "pairs": entries,
        "best_dim_lower": None if best is None else _dec_float(best, digits),
    }


def interleave_text(payload: dict) -> str:
    lines = [
        "interleaved subsystem pairs of x=%s and y=%s (m=%d, kmax=%d)"
        % (payload["x"], payload["y"], payload["m"], payload["kmax"])
    ]
    if not payload["pairs"]:
        lines.append("  none found at this search size")
    for entry in payload["pairs"]:
        lines.append(
            "  (i=%d, j=%d) tau_min=%s threshold_met=%s dim_lower=%s"
            % (
                entry["i"],
                entry["j"],
                entry["tau_min"],
                entry["report"]["threshold_met"],
                entry["report"]["dim_lower"] or "-",
            )
        )
    lines.append("best dim_lower: %s" % (payload["best_dim_lower"] or "-"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dimension


def dimension_payload(x, m: int, scan: list[LocalDimensionPoint], digits: int) -> dict:
    return {
        "x": rat_str(x),
        "m": m,
        "digits": digits,
        "scan": [
            {
                "delta": rat_str(point.delta),
                "window": [rat_str(point.estimate.window[0]), rat_str(point.estimate.window[1])],
                "slope": point.estimate.slope,
                "theoretical": point.theoretical,
                "grid_levels": [
                    [rat_str(size), count] for size, count in point.estimate.grid_levels
                ],
            }
            for point in scan
        ],
    }


def dimension_csv(payload: dict) -> str:
    out = io.StringIO()
    out.write("delta,size,count\n")
    for entry in payload["scan"]:
        for size, count in entry["grid_levels"]:
            out.write("%s,%s,%d\n" % (entry["delta"], size, count))
    return out.getvalue()


def dimension_text(payload: dict) -> str:
    lines = ["local dimension scan of x=%s, m=%d" % (payload["x"], payload["m"])]
    lines.append("%10s %10s %12s" % ("delta", "slope", "theoretical"))
    for entry in payload["scan"]:
        lines.append(
            "%10s %10.4f %12.4f" % (entry["delta"], entry["slope"], entry["theoretical"])
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# membership


def membership_payload(x, lam, m: int, result: MembershipResult) -> dict:
    return {
        "x": rat_str(x),
        "lambda": rat_str(lam),
        "m": m,
        "verdict": result.verdict.value,
        "extracted_digits": _word_str(result.extracted_digits),
        "preperiod": None if result.preperiod is None else _word_str(result.preperiod),
        "period": None if result.period is None else _word_str(result.period),
        "failing_step": result.failing_step,
        "depth_reached": result.depth_reached,
    }


def membership_text(payload: dict) -> str:
    from .coding import Verdict

    lines = [
        "membership of x=%s in the set with parameter %s (m=%d): %s"
        % (payload["x"], payload["lambda"], payload["m"], payload["verdict"])
    ]
    if payload["verdict"] == Verdict.MEMBER.value:
        lines.append("  preperiod %r period %r" % (payload["preperiod"], payload["period"]))
    elif payload["verdict"] == Verdict.NOT_MEMBER.value:
        lines.append("  remainder fell in a gap at step %d" % payload["failing_step"])
    else:
        lines.append(
            "  inconclusive after %d steps (raise --max-steps to push further)"
            % payload["depth_reached"]
        )
    return "\n".join(lines) + "\n"


def to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
