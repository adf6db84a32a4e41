"""Summary statistics used by the benchmark, kept free of any program import
so they can be tested on synthetic data."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10
FIT_SIZES = 3  # distinct sizes a ladder needs for a slope


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count); with the samples sorted,
    the value is the one with exactly TAIL_BEYOND samples after it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    k = n - TAIL_BEYOND  # 1-based rank of the reported sample
    return sorted(values)[k - 1], 100.0 * k / n, n


def slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    if len(xs) != len(ys) or len(set(xs)) < 2:
        raise ValueError("a slope needs at least two distinct x values")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    sxx = sum((a - mx) ** 2 for a in lx)
    return sxy / sxx


def largest_slope(points):
    """``points`` maps a group to [(size, time), ...]; the largest slope
    over groups with at least FIT_SIZES distinct sizes."""
    slopes = [slope(*zip(*pts)) for pts in points.values()
              if len({x for x, _ in pts}) >= FIT_SIZES]
    if not slopes:
        raise ValueError("no group has enough distinct sizes for a fit")
    return max(slopes)
