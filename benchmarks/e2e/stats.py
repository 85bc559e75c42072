"""Sample summaries shared by run.py and compare.py."""

from __future__ import annotations

import statistics


def summary(samples, unit):
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them
    (one sample is its own quartiles); every sample is kept."""
    samples = [float(value) for value in samples]
    if len(samples) > 1:
        q1, _median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "unit": unit, "n": len(samples),
        "median": statistics.median(samples), "q1": q1, "q3": q3,
        "samples": samples,
    }


def spread(entry):
    """Interquartile distance as a share of the median."""
    return (entry["q3"] - entry["q1"]) / entry["median"]


def percentile(samples, percent):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * percent // 100))    # ceil
    return ordered[int(rank) - 1]
