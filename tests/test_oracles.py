"""The reference computations themselves: a faster oracle must return
exactly what its plain form returned."""

import random

import pytest

from oracles import float_root, float_series


def float_root_every_step(prefix, tail_max, m, x, iterations):
    """float_root as a plain loop that runs all `iterations` bisection steps."""
    lo, hi = 1e-12, 1.0 / m
    if float_series(prefix, tail_max, m, hi) < x - 1e-13:
        return None
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if float_series(prefix, tail_max, m, mid) < x:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@pytest.mark.parametrize("iterations", [80, 200])
@pytest.mark.parametrize("tail_max", [True, False])
@pytest.mark.parametrize("m", [2, 3])
def test_float_root_stopping_at_a_fixed_point_changes_no_result(m, tail_max, iterations):
    rng = random.Random(20 * m + 2 * iterations + tail_max)
    for _ in range(150):
        prefix = tuple(rng.randrange(m) for _ in range(rng.randrange(1, 16)))
        # mostly points with a root (the series at a random parameter), some arbitrary
        if rng.random() < 0.8:
            x = float_series(prefix, tail_max, m, rng.uniform(1e-6, 1.0 / m))
        else:
            x = rng.random()
        expected = float_root_every_step(prefix, tail_max, m, x, iterations)
        got = float_root(prefix, tail_max, m, x, iterations)
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.hex() == expected.hex(), (prefix, x)
