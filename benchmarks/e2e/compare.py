#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``: A is the base, B the
candidate.

``python3 benchmarks/e2e/compare.py A.json B.json``

One row per end-to-end metric × workload: both medians with their
quartiles, the ratio B/A, and a verdict against the bound
BENCHMARK.json fixes for the metric:

``worse``       B's median is worse than A's by more than the bound
``better``      ... better by more than the bound
``within``      neither
``unresolved``  the run-to-run spread (interquartile distance over the
                median, of either file) is wider than the bound, so the
                medians cannot tell — unless every run of one file
                beats every run of the other

``fail_ratio`` has no bound: any rise is ``worse``.  Exit code 1 on any
``worse``, and exit code 2 without a table when either file lacks the
end-to-end figures of a workload BENCHMARK.json names.  This is the
tool for the A/A check (two runs of one commit must show no ``worse``)
and for every before/after.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import spread  # noqa: E402

BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json"
)


def verdict(a, b, bound, lower_is_better=True):
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    a_runs = [sign * value for value in a["samples"]]
    b_runs = [sign * value for value in b["samples"]]
    separated = max(b_runs) < min(a_runs) or min(b_runs) > max(a_runs)
    if max(spread(a), spread(b)) > bound and not separated:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"


class Incomplete(ValueError):
    pass


def compare(a_report, b_report, benchmark):
    """Rows ``(workload, metric, a, b, ratio, verdict)``; *a*/*b* are
    summary dicts (or fail ratios for the ``fail_ratio`` rows)."""
    rows = []
    for name in (workload["name"] for workload in benchmark["workloads"]):
        a_run = a_report["workloads"].get(name, {})
        b_run = b_report["workloads"].get(name, {})
        for label, run in (("A", a_run), ("B", b_run)):
            if "end_to_end" not in run:
                raise Incomplete(
                    f"file {label} has no end-to-end run of {name}")
        for spec in benchmark["end_to_end"]:
            a = a_run["end_to_end"][spec["name"]]
            b = b_run["end_to_end"][spec["name"]]
            rows.append((
                name, spec["name"], a, b, b["median"] / a["median"],
                verdict(a, b, spec["bound"], spec["better"] == "lower"),
            ))
        a_fail, b_fail = a_run["fail_ratio"], b_run["fail_ratio"]
        rows.append((
            name, "fail_ratio", a_fail, b_fail, None,
            "worse" if b_fail > a_fail else "within",
        ))
    return rows


def _cell(entry):
    if isinstance(entry, dict):
        return (f"{entry['median']:.5g} [{entry['q1']:.5g}"
                f"..{entry['q3']:.5g}] {entry['unit']}")
    return f"{entry:.5g}"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as a_file, open(argv[2]) as b_file, \
            open(BENCHMARK) as benchmark_file:
        reports = json.load(a_file), json.load(b_file)
        benchmark = json.load(benchmark_file)
    try:
        rows = compare(*reports, benchmark)
    except Incomplete as missing:
        print(f"cannot compare: {missing}", file=sys.stderr)
        return 2
    print(f"{'workload':16s} {'metric':13s} {'A (base)':34s} "
          f"{'B':34s} {'B/A':>7s}  verdict")
    for name, metric, a, b, ratio, result in rows:
        ratio_text = "" if ratio is None else f"{ratio:7.4f}"
        print(f"{name:16s} {metric:13s} {_cell(a):34s} {_cell(b):34s} "
              f"{ratio_text:>7s}  {result}")
    return 1 if any(row[5] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
