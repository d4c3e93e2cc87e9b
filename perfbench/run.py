#!/usr/bin/env python3
"""cantor-toolkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (cover-cold, analysis-warm, membership-batch, cli-readme;
see perfbench/README.md) from the root of a source checkout, with the
package imported from ``src/`` and ``CANTOR_TOOLKIT_THREADS`` removed from
the environment.  One closed-loop client issues each operation when the
previous one has returned and been checked; only the time inside operations
is on the clock.  Every output is checked independently of the package, and
a failed check counts as a failed operation.  Timings are scaled to a
reference host speed measured between operations (see speed.py); the
wall-clock values go to the record.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run over a fixed, seed-determined prefix of the workload.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A full record (environment, samples, errors) goes to
.perfbench_out/.  Exits 2 without a result when the package sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from time import perf_counter

import layertrace
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
sys.path[:0] = [SRC, TESTS]
try:
    import workloads
except ImportError:  # not a checkout: main() reports it
    workloads = None

#: A timed run also stops after this many times --seconds of wall-clock
#: operation time, so that a slow host cannot stretch it without bound.
WALL_CAP = 1.5
#: Fresh interpreters started per run to measure set-up time.
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
MAX_ERRORS_KEPT = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "intervals_per_s": "1/s",
    "peak_rss_mb": "MB",
}

CLI_COMMANDS = ("cover_svg", "cover_json", "thickness", "intersect", "dimension", "membership")

PER_LAYER_UNITS = {
    "exact_arith.eval.calls": "count",
    "exact_arith.eval.self_s": "s",
    "exact_arith.split.calls": "count",
    "exact_arith.split.self_s": "s",
    "exact_arith.solve.calls": "count",
    "exact_arith.solve.self_s": "s",
    "exact_arith.solve.tol40.p50_s": "s",
    "exact_arith.solve.tol64.p50_s": "s",
    "exact_arith.solve.hit_ratio": "ratio",
    "exact_arith.refine.calls": "count",
    "exact_arith.refine.self_s": "s",
    "exact_arith.compare.calls": "count",
    "exact_arith.compare.self_s": "s",
    "exact_arith.compare.exhausted": "count",
    "exact_arith.bracket.max_den_bits": "bits",
    "coding.membership.calls": "count",
    "coding.membership.self_s": "s",
    "coding.membership.undetermined_ratio": "ratio",
    "coding.greedy.calls": "count",
    "coding.greedy.self_s": "s",
    "coding.unique.calls": "count",
    "coding.unique.self_s": "s",
    "lambda_set.cover.calls": "count",
    "lambda_set.cover.self_s": "s",
    "lambda_set.gap.refines_per_gap": "ratio",
    "thickness.tau.self_s": "s",
    "thickness.interleave.self_s": "s",
    "thickness.interleave.pairs_tested": "count",
    "thickness.interleave.certified_ratio": "ratio",
    "thickness.reverify.ok_ratio": "ratio",
    "thickness.threshold_uncertified": "count",
    "dimension.scan.self_s": "s",
    "dimension.box.self_s": "s",
    "dimension.box.grid_cells": "count",
    "cli.import_s": "s",
    **{"cli.%s.wall_s" % c: "s" for c in CLI_COMMANDS},
    "cli.render.self_s": "s",
    "tracing.overhead_ratio": "ratio",
}


def percentile(latencies, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(latencies)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def measure_setup(module: str):
    """Time from starting a fresh interpreter until `module` is imported,
    read against the shared monotonic clock: (median scaled to the
    reference speed, wall-clock samples, reference samples)."""
    code = (
        "import sys, time\nimport %s\n"
        "sys.stdout.write(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))" % module
    )
    env = workloads.child_env()
    meter = speed.Meter(spawn_env=env)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError("importing %s failed: %s" % (module, proc.stderr.strip()[-500:]))
        samples.append(float(proc.stdout) - t0)
        meter.finish(len(samples))
    return statistics.median(meter.normalize(samples)), samples, meter.samples


def run_ops(ops, seconds=None, cycles=None, meter=None):
    """Closed loop with one client over `ops`; stops at a cycle boundary
    once `seconds` of operation time or `cycles` cycles are done.  With a
    speed.Meter, the reference is sampled between operations, off the
    clock, and `seconds` counts scaled operation time, up to WALL_CAP times
    as much wall-clock time."""
    latencies = []
    by_kind: dict = {}
    failed = intervals = done_cycles = 0
    errors: list[str] = []
    on_clock = 0.0
    for op in ops:
        t0 = perf_counter()
        try:
            result = op.fn()
            problems = None
        except Exception as exc:  # a failed operation is data, not a crash
            problems = ["%s raised %s: %s" % (op.kind, type(exc).__name__, str(exc)[:300])]
        dt = perf_counter() - t0
        on_clock += dt
        latencies.append(dt)
        by_kind.setdefault(op.kind, []).append(dt)
        if problems is None:
            try:
                problems = op.check(result)
                if not problems:
                    intervals += op.count(result)
            except Exception as exc:
                problems = ["checking %s raised %s: %s" % (op.kind, type(exc).__name__, exc)]
        if problems:
            failed += 1
            errors.extend(problems[: max(0, MAX_ERRORS_KEPT - len(errors))])
        if meter is not None:
            meter.after(len(latencies), dt)
        if op.cycle_end:
            done_cycles += 1
            clock = on_clock if meter is None else max(meter.scaled_s, on_clock / WALL_CAP)
            if (seconds is not None and clock >= seconds) or (
                cycles is not None and done_cycles >= cycles
            ):
                break
    if meter is not None:
        meter.finish(len(latencies))
    return {
        "latencies": latencies,
        "attempted": len(latencies),
        "failed": failed,
        "intervals": intervals,
        "on_clock_s": on_clock,
        "errors": errors,
        "by_kind": {k: [len(v), statistics.median(v)] for k, v in sorted(by_kind.items())},
    }


def environment(seed: int, threads_before) -> dict:
    from cantor_toolkit import _rat

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "rational_backend": "gmpy2.mpq" if _rat.HAVE_GMPY2 else "fractions.Fraction",
        "have_gmpy2": bool(_rat.HAVE_GMPY2),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "CANTOR_TOOLKIT_THREADS": "forced unset",
        "CANTOR_TOOLKIT_THREADS_before": threads_before,
        "fresh_process": True,
    }


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_probe(workload: str, seed: int) -> dict:
    """The workload's fixed prefix, untraced, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        env=workloads.child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError("probe failed: %s" % proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(wl, ct, args) -> tuple[dict, dict, dict]:
    setup_s, setup_samples, setup_refs = measure_setup(wl.setup_import)
    if wl.IN_PROCESS:
        run_probe(wl.name, args.seed)  # sets the children's peak RSS
    meter = speed.Meter(None if wl.IN_PROCESS else workloads.child_env())
    loop = run_ops(wl.ops(ct, args.seed), seconds=args.seconds, meter=meter)

    def timings(latencies):
        clock = sum(latencies)
        return {
            "ops_per_s": loop["attempted"] / clock,
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": percentile(latencies, wl.TAIL),
            "intervals_per_s": loop["intervals"] / clock,
        }

    scaled = timings(meter.normalize(loop["latencies"]))
    wall = timings(loop["latencies"])
    metrics = {"setup_s": setup_s, **scaled, "peak_rss_mb": children_peak_rss_mb()}
    record = {
        "tail_percentile": wl.TAIL,
        "samples_beyond_tail": loop["attempted"] - math.ceil(wl.TAIL / 100.0 * loop["attempted"]),
        "wall_clock": {"setup_s": statistics.median(setup_samples), **wall},
        "reference_s": {"nominal": meter.nominal, "median": statistics.median(meter.samples)},
        "setup_samples_s": setup_samples,
        "setup_reference_s": setup_refs,
        "latencies_s": loop["latencies"],
        "reference_at": meter.at,
        "reference_samples_s": meter.samples,
        "peak_rss_from": "fresh process running the fixed prefix" if wl.IN_PROCESS else "cli subprocesses",
    }
    return metrics, record, loop


def traced_run(wl, ct, args) -> tuple[dict, dict, dict]:
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    if not wl.IN_PROCESS:
        plain = run_ops(wl.ops(ct, args.seed), cycles=wl.PREFIX_CYCLES)
        walls = {}
        for op, dt in zip(wl.ops(ct, args.seed), plain["latencies"]):
            walls[op.kind] = dt
        for command in CLI_COMMANDS:
            metrics["cli.%s.wall_s" % command] = walls.get("cli." + command, 0.0)
        span_dir = os.path.join(workloads.OUT_DIR, "cli-spans")
        shutil.rmtree(span_dir, ignore_errors=True)
        os.makedirs(span_dir)
        loop = run_ops(wl.ops(ct, args.seed, traced_dir=span_dir), cycles=wl.PREFIX_CYCLES)
        rows, imports, uncertified = [], [], 0
        for name in sorted(os.listdir(span_dir)):
            with open(os.path.join(span_dir, name), encoding="ascii") as fh:
                child = json.load(fh)
            base = len(rows)
            for parent, sname, t0, t1, err, meta in child["spans"]:
                rows.append((parent + base if parent >= 0 else -1, sname, t0, t1, err, meta))
            imports.append(child["import_s"])
            uncertified += child["threshold_uncertified"]
        metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
        baseline = plain["on_clock_s"]
    else:
        baseline = run_probe(wl.name, args.seed)["on_clock_s"]
        tracer = layertrace.Tracer()
        tracer.install(layertrace.package_modules())
        try:
            loop = run_ops(wl.ops(ct, args.seed), cycles=wl.PREFIX_CYCLES)
        finally:
            tracer.uninstall()
        rows = tracer.rows()
        uncertified = layertrace.threshold_uncertified(tracer.interleave_calls)
    metrics.update(layertrace.layer_metrics(rows))
    metrics["thickness.threshold_uncertified"] = uncertified
    metrics["tracing.overhead_ratio"] = loop["on_clock_s"] / baseline
    spans_path = os.path.join(workloads.OUT_DIR, "spans-%s-seed%d.json.gz" % (wl.name, args.seed))
    layertrace.write_spans(spans_path, rows)
    record = {
        "untraced_prefix_s": baseline,
        "spans": len(rows),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return metrics, record, loop


def probe_main(wl, ct, args) -> int:
    loop = run_ops(wl.ops(ct, args.seed), cycles=wl.PREFIX_CYCLES)
    print(json.dumps({k: v for k, v in loop.items() if k != "latencies"}))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if workloads is None:
        print("error: run from a cantor-toolkit checkout (src/ and tests/oracles.py missing)", file=sys.stderr)
        return 2
    threads_before = os.environ.pop("CANTOR_TOOLKIT_THREADS", None)
    import cantor_toolkit as ct

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print("error: unknown workload %r (one of %s)" % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    if args.probe:
        return probe_main(wl, ct, args)
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    if args.trace:
        metrics, record, loop = traced_run(wl, ct, args)
        units = PER_LAYER_UNITS
    else:
        metrics, record, loop = timed_run(wl, ct, args)
        units = END_TO_END_UNITS
    env = environment(args.seed, threads_before)
    result = {
        "correct": loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record_path = os.path.join(workloads.OUT_DIR, "result-%s-seed%d-trace%d.json" % (wl.name, args.seed, args.trace))
    with open(record_path, "w", encoding="ascii") as fh:
        json.dump(
            {
                "workload": wl.name,
                "seconds": args.seconds,
                "env": env,
                **record,
                "loop": {k: v for k, v in loop.items() if k != "latencies"},
                "result": result,
            },
            fh,
            indent=1,
        )
    print("workload %s  seed %d  trace %d" % (wl.name, args.seed, args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print("  %-40s %.6g %s" % (name, metrics[name], unit))
    if not args.trace:
        print("  op_tail_s is p%g of %d samples, %d beyond it" % (record["tail_percentile"], loop["attempted"], record["samples_beyond_tail"]))
        ref = record["reference_s"]
        print("  times above are scaled to a reference of %g s; it took %.6g s here; wall clock:" % (ref["nominal"], ref["median"]))
        for name, value in record["wall_clock"].items():
            print("  %-40s %.6g %s" % (name, value, units[name]))
    print("  fail_ratio %.6g (%d of %d operations failed)" % (loop["failed"] / loop["attempted"], loop["failed"], loop["attempted"]))
    for err in loop["errors"]:
        print("  FAILED: " + err)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
