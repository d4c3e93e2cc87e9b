"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose CPU speed drifts: an identical
pure-Python ``Fraction`` loop has taken from 1.7 to 2.8 ms per call on one
2-vCPU Xeon container within a few minutes, with process CPU time equal to
wall time throughout.  Between two runs a minute apart the whole program
moves by 10-25 %, so a wall-clock time alone measures the host as much as
the program.

The timed run therefore samples a fixed reference kernel between
operations, off the clock: exact bisection of a digit series with
``fractions.Fraction``, the same kind of work as ``exact_arith``, written
here with the standard library only, so no change to the package can move
it.  The reference runs the way the workload does.  For operations inside
the benchmark's process, ``sample()`` times the kernel there.  For
operations that are fresh interpreters (the CLI commands, and set-up),
``spawn_sample()`` times a fresh interpreter that runs the kernel, so
process start-up is in the reference too.

``Meter.normalize`` scales each operation's time by the probe's nominal
time over the mean of the two samples taken just before and just after
it.  The result is the operation's time on a host that runs the reference
in the nominal time; a change to the package moves it as it moves
wall-clock time on a steady host.

    python3 perfbench/speed.py    runs the kernel as spawn_sample() does
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from fractions import Fraction as F
from time import perf_counter

#: About the time sample() and spawn_sample() take on the 2-vCPU Xeon
#: (2.0 GHz, Python 3.11) container the workloads were tuned on.
REFERENCE_S = 0.010
SPAWN_REFERENCE_S = 0.130

#: Operation time between two samples.  Operations are never split, so a
#: workload of 0.1 s operations samples after each one.  Sampling every
#: 0.9 s instead widened the spread of cli-readme's metrics across runs
#: from 0.03-0.07 to 0.08-0.12 of their medians.
EVERY_S = 0.1

_WORD = (1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1)
_X = F(3, 7)
_STEPS = 64
_REPEATS = 2
#: Kernel runs in a spawned sample: enough that start-up and arithmetic
#: share its time about as they share a CLI command's.
_SPAWN_REPEATS = 12
_TIMEOUT_S = 60


def _kernel() -> F:
    """Bisect sum(d_i lam^i) = _X for lam in [1/4, 1/2], exactly."""
    lo, hi = F(1, 4), F(1, 2)
    for _ in range(_STEPS):
        mid = (lo + hi) / 2
        acc = F(0)
        for d in reversed(_WORD):
            acc = (acc + d) * mid
        if acc < _X:
            lo = mid
        else:
            hi = mid
    return lo


def sample() -> float:
    """Seconds the kernel takes in this process now.  One untimed run
    first: the first run after a child process exits is up to twice as
    slow."""
    _kernel()
    t0 = perf_counter()
    for _ in range(_REPEATS):
        _kernel()
    return perf_counter() - t0


def spawn_sample(env: dict) -> float:
    """Seconds a fresh interpreter, started with `env`, takes to run the
    kernel and exit."""
    t0 = perf_counter()
    subprocess.run([sys.executable, __file__], env=env, capture_output=True, check=True, timeout=_TIMEOUT_S)
    return perf_counter() - t0


class Meter:
    """The reference samples of one run of operations."""

    def __init__(self, spawn_env=None):
        """With `spawn_env`, samples are spawn_sample(spawn_env)."""
        if spawn_env is None:
            self.probe, self.nominal = sample, REFERENCE_S
        else:
            self.probe, self.nominal = (lambda: spawn_sample(spawn_env)), SPAWN_REFERENCE_S
        self.at = [0]  # samples[k] was taken just before operation at[k]
        self.samples = [self.probe()]
        self.scaled_s = 0.0  # operation time so far, scaled by the last sample
        self._since = 0.0

    def scale(self, seconds: float, samples) -> float:
        """`seconds` measured while the reference took mean(samples)."""
        return seconds * self.nominal / statistics.fmean(samples)

    def after(self, done: int, dt: float):
        """Operation number `done` - 1 took `dt`; sample if EVERY_S is up."""
        self.scaled_s += self.scale(dt, self.samples[-1:])
        self._since += dt
        if self._since >= EVERY_S:
            self.finish(done)

    def finish(self, done: int):
        """Sample after operation `done` - 1 unless that was just done."""
        if self.at[-1] != done:
            self.at.append(done)
            self.samples.append(self.probe())
            self._since = 0.0

    def normalize(self, latencies):
        """Scale each latency by the samples just before and after it."""
        out = []
        for i, dt in enumerate(latencies):
            k = bisect.bisect_right(self.at, i)  # the first sample after operation i
            out.append(self.scale(dt, self.samples[k - 1 : k + 1]))
        return out


if __name__ == "__main__":
    for _ in range(_SPAWN_REPEATS):
        _kernel()
