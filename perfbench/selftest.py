#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/selftest.py

1. A corrupted bracket and a flipped verdict are caught by the output
   checks and counted as failed operations.
2. Every workload runs at a tiny size, untraced and traced, and its result
   line names exactly the metrics declared in BENCHMARK.json.
3. A directory holding only BENCHMARK.json and perfbench/ makes the
   benchmark exit nonzero without printing a result.

Exits 0 when all pass.  Scratch files go under .perfbench_out/.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run
import workloads

failures: list[str] = []


def expect(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def fault_injection(ct):
    def first_op(name):
        return next(workloads.WORKLOADS[name].ops(ct, 0))

    def corrupt_cover(op):
        good = op.fn
        def fn():
            level = good()
            iv = level.intervals[-1]
            shift = (ct.Q(1, level.m) - iv.left.hi) / 2
            moved = ct.Bracket(iv.left.lo + shift, iv.left.hi + shift, iv.left.code, iv.left.x)
            return dataclasses.replace(level, intervals=level.intervals[:-1] + (dataclasses.replace(iv, left=moved),))
        return workloads.Op(op.kind, fn, op.check, op.count)

    def flip_verdict(op):
        good = op.fn
        def fn():
            result = good()
            flipped = ct.Verdict.NOT_MEMBER if result.verdict is ct.Verdict.MEMBER else ct.Verdict.MEMBER
            return dataclasses.replace(result, verdict=flipped)
        return workloads.Op(op.kind, fn, op.check, op.count)

    cases = (
        ("corrupted cover bracket", "cover-cold", corrupt_cover),
        ("flipped membership verdict", "membership-batch", flip_verdict),
    )
    for what, name, spoil in cases:
        # each call builds a fresh generator, so no check has seen the output before
        clean = run.run_ops([first_op(name)], cycles=1)
        spoiled = run.run_ops([spoil(first_op(name)), first_op(name)], cycles=2)
        expect(clean["failed"] == 0, "%s: the unmodified operation passes its check" % name)
        expect(
            spoiled["failed"] == 1 and spoiled["attempted"] == 2,
            "%s is caught and counted (fail_ratio %d/%d: %s)"
            % (what, spoiled["failed"], spoiled["attempted"], "; ".join(spoiled["errors"])[:160]),
        )


def smoke(declared):
    for name in ("cover-cold", "analysis-warm", "membership-batch", "cli-readme"):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
                 "--seed", "0", "--seconds", "0.2", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=180,
            )
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                result = {}
            want = declared["per_layer" if trace else "end_to_end"]
            expect(
                proc.returncode == 0
                and set(result) == {"correct", "attempted", "failed", "metrics"}
                and result["correct"] is True
                and result["attempted"] >= 1
                and set(result["metrics"]) == want,
                "smoke %s --trace %d (exit %d, %s)" % (name, trace, proc.returncode, proc.stderr.strip()[-200:]),
            )


def bare_directory():
    bare = os.path.join(workloads.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cover-cold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "bare directory exits %d with no result" % proc.returncode)


def main() -> int:
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    import cantor_toolkit as ct

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {key: {m["name"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    expect(declared["end_to_end"] == set(run.END_TO_END_UNITS), "BENCHMARK.json end_to_end matches run.py")
    expect(declared["per_layer"] == set(run.PER_LAYER_UNITS), "BENCHMARK.json per_layer matches run.py")
    expect({w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS), "BENCHMARK.json workloads exist")
    fault_injection(ct)
    smoke(declared)
    bare_directory()
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
