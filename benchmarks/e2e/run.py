#!/usr/bin/env python3
"""End-to-end benchmark of the coupled embedded-cluster stack.

Two ways in, one set of measurements:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, one run; the last line of stdout is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}`` holding the
    end-to-end metrics (``--trace 0``) or the per-layer metrics
    (``--trace 1``) that BENCHMARK.json names.

``python3 benchmarks/e2e/run.py --seed 4 --repeats 3 --out FILE``
    All five workloads ``--repeats`` times, every layer metric, a
    traced run of each workload and the cross-workload figures; prints
    every metric by name with unit and sample count and writes one
    JSON result file (the input of compare.py).  ``--quick`` shrinks it
    to a smoke run; ``--layers`` / ``--trace`` run only that section.

Every measurement happens in a fresh child process (child.py), one at
a time, each run to its end before the next starts.  Exit code 1 if
any op, correctness check or residue check failed.  See README.md for
the workloads and the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import check  # noqa: E402
from stats import percentile, summary  # noqa: E402
from workloads import (  # noqa: E402
    E2E_PLACEMENT, OPS_PER_10S, PROCESSES, TRACE_PLACEMENT, ops_for,
)

WORKLOADS = tuple(OPS_PER_10S)
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "cpu_s": "s",
    "peak_rss_mib": "MiB",
}
#: figures that need two workloads' runs, so only the full command has
#: them; everything else it prints is named in BENCHMARK.json
DERIVED = (
    "coupling.overlap_ratio", "perfmodel.pred_over_measured.direct",
    "perfmodel.pred_over_measured.jungle",
)
#: traced runs record ~500 spans per bridge step: one process times a
#: quarter of the ops of an end-to-end run's processes together
TRACE_OPS_DIVISOR = 4
CHILD_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(spec):
    """One child.py process, run to its end: its RESULT payload."""
    spec = dict(spec, t0=time.perf_counter())
    label = f"child {spec['mode']}:{spec.get('workload', '')}"
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise ChildFailed(
                f"{label} still running after {CHILD_TIMEOUT_S} s"
            ) from None
        finally:
            # the whole process group: any pilot the child left behind
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    for line in stdout.splitlines():
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise ChildFailed(
        f"{label} exited with code {proc.returncode} and no RESULT")


def tally(*records):
    """``(attempted, failed, failed checks)`` over finished records."""
    checks = [c for record in records for c in record["checks"]]
    failed = [c for c in checks if not c["ok"]]
    return (
        sum(record["ops_attempted"] for record in records) + len(checks),
        sum(record["ops_failed"] for record in records) + len(failed),
        failed,
    )


def _reference_key(name, seed, ops, scale):
    family = "cluster" if name.startswith("cluster") else name
    return family, seed, ops, scale


def run_workload(name, seed, seconds, scale, references, processes):
    """One end-to-end run: *processes* children, one after the other,
    each setting up and timing the same ops, plus the ``direct``
    reference the equivalence oracle needs (unless *references*
    already holds it).  ``setup_s``, ``wall_s`` and ``cpu_s`` are the
    median process's, ``peak_rss_mib`` the largest, ``op_p50_ms`` the
    median of every process's ops pooled.  A process with a failed op
    is counted as failed and left out of the figures."""
    ops = ops_for(name, seconds, scale)
    spec = {
        "mode": "run", "workload": name, "seed": seed, "scale": scale,
        "placement": E2E_PLACEMENT[name], "ops": ops, "trace": False,
    }
    key = _reference_key(name, seed, ops, scale)
    results = []
    checks = []
    for _ in range(processes):
        result = run_child(spec)
        results.append(result)
        checks += result["checks"]
        if result["ops_failed"]:
            continue
        if spec["placement"] == "direct":
            references[key] = result["state"]
        if name in check.EQUIVALENCE_RTOL:
            if key not in references:
                references[key] = run_child(
                    dict(spec, placement="direct")
                )["state"]
            checks += check.equal_states(
                "equivalence", result["state"], references[key],
                check.EQUIVALENCE_RTOL[name],
            )
    clean = [result for result in results if not result["ops_failed"]]
    if not clean:
        raise ChildFailed(f"{name}: an op failed in every process")
    pooled = [d for result in clean for d in result["durations_s"]]
    return {
        "ops": ops, "processes": processes,
        "values": {
            "setup_s": statistics.median(r["setup_s"] for r in clean),
            "wall_s": statistics.median(
                sum(r["durations_s"]) for r in clean),
            "op_p50_ms": 1e3 * statistics.median(pooled),
            "cpu_s": statistics.median(r["cpu_s"] for r in clean),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in clean),
        },
        "exempt_threads": max(r["exempt_threads"] for r in results),
        "ops_attempted": sum(r["ops_attempted"] for r in results),
        "ops_failed": sum(r["ops_failed"] for r in results),
        "checks": checks,
    }


def trace_workload(name, seed, seconds, scale):
    """The traced run and its untraced twin, both in-process on
    TRACE_PLACEMENT; per-layer metrics of this workload."""
    ops = ops_for(
        name, seconds * PROCESSES[name] / TRACE_OPS_DIVISOR, scale)
    os.makedirs(OUT_DIR, exist_ok=True)
    spec = {
        "mode": "run", "workload": name, "seed": seed, "scale": scale,
        "placement": TRACE_PLACEMENT[name], "ops": ops, "trace": True,
        "trace_out": os.path.join(OUT_DIR, f"trace_{name}.json"),
    }
    traced = run_child(spec)
    plain = run_child(dict(spec, trace=False))
    if traced["ops_failed"] or plain["ops_failed"]:
        raise ChildFailed(f"{name}: an op failed in the traced run")
    done = len(plain["durations_s"])
    metrics = {
        key: {"value": value, "unit": "ratio", "n": ops}
        for key, value in traced["budget"].items()
    }
    metrics["trace.spans_per_op"]["unit"] = "count"
    metrics["trace.overhead_ratio"] = {
        "value": sum(traced["durations_s"]) / sum(plain["durations_s"]),
        "unit": "ratio", "n": ops,
    }
    metrics["rpc.frames_per_op"] = {
        "value": plain["frames"] / done, "unit": "count", "n": done}
    metrics["rpc.bytes_per_op"] = {
        "value": plain["bytes"] / done, "unit": "B", "n": done}
    metrics["coupling.op_p95_ms"] = {
        "value": percentile(plain["durations_s"], 95) * 1e3,
        "unit": "ms", "n": done}
    return {
        "metrics": metrics, "ops_attempted": 2 * ops, "ops_failed": 0,
        "checks": traced["checks"] + plain["checks"],
    }


def measure_layers(seed, scale):
    os.makedirs(OUT_DIR, exist_ok=True)
    result = run_child({
        "mode": "layers", "seed": seed, "scale": scale,
        "work_dir": OUT_DIR,
    })
    return {
        "metrics": result["metrics"], "ops_attempted": 0, "ops_failed": 0,
        "checks": result["checks"],
    }


# -- the driver's contract: one workload, one JSON line ---------------------


def driver_mode(args):
    if args.trace:
        layers = measure_layers(args.seed, 1.0)
        traced = trace_workload(args.workload, args.seed, args.seconds, 1.0)
        attempted, failed, failed_checks = tally(layers, traced)
        metrics = {**layers["metrics"], **traced["metrics"]}
    else:
        run = run_workload(args.workload, args.seed, args.seconds, 1.0, {},
                           PROCESSES[args.workload])
        attempted, failed, failed_checks = tally(run)
        print(f"daemon threads exempt from the residue check: "
              f"{run['exempt_threads']}", file=sys.stderr)
        metrics = {
            key: {"value": value, "unit": END_TO_END_UNITS[key]}
            for key, value in run["values"].items()
        }
    for failure in failed_checks:
        print(f"FAILED {failure['name']}: {failure['detail']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            key: {"value": entry["value"], "unit": entry["unit"]}
            for key, entry in metrics.items()
        },
    }))
    return 1 if failed else 0


# -- the full command -------------------------------------------------------


def _git_commit():
    try:
        return subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance(args, scale):
    load = os.getloadavg()[0]
    return {
        "host": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "load_1min_before": load,
        },
        "git_commit": _git_commit(),
        "seed": args.seed, "repeats": args.repeats,
        "seconds": args.seconds, "scale": scale,
        # recorded, never silently: a busy host makes every time here
        # an upper bound rather than a measurement
        "noisy": load > os.cpu_count(),
    }


def perfmodel_ratios(measured_iteration_s, scale):
    """CostModel.iteration_time for the cluster workloads' size and
    placement over the measured seconds per iteration — tracked, never
    gated."""
    sys.path.insert(0, SRC)
    from repro.jungle import make_desktop_jungle
    from repro.jungle.perfmodel import (
        CostModel, IterationWorkload, Placement,
    )

    jungle = make_desktop_jungle()
    desktop = jungle.host("desktop")
    workload = IterationWorkload(
        n_stars=max(8, round(96 * scale)), n_gas=max(32, round(256 * scale))
    )
    out = {}
    for name, channel in (("direct", "direct"), ("jungle", "ibis")):
        if name not in measured_iteration_s:
            continue
        placement = Placement(coupler_host=desktop)
        for role in ("gravity", "hydro", "se", "coupling"):
            placement.assign(role, desktop, channel=channel)
        predicted = CostModel(jungle).iteration_time(
            workload, placement, schedule="dag"
        )["total_s"]
        out[f"perfmodel.pred_over_measured.{name}"] = {
            "value": predicted / measured_iteration_s[name],
            "unit": "ratio", "n": 1,
        }
    return out


def _row(scope, name, entry):
    value = entry.get("median", entry.get("value"))
    spread_text = ""
    if "q1" in entry and entry["n"] > 1:
        spread_text = f"  [{entry['q1']:.6g} .. {entry['q3']:.6g}]"
    print(f"{scope:16s} {name:40s} {value:14.6g} {entry['unit']:7s}"
          f" n={entry['n']}{spread_text}")


def full_mode(args):
    scale = 0.25 if args.quick else 1.0
    if args.quick:
        args.repeats, args.seconds = 1, args.seconds * scale
    sections = {"e2e", "layers", "trace"}
    if args.layers or args.trace:
        sections = {s for s, on in (("layers", args.layers),
                                    ("trace", args.trace)) if on}
    report = {"provenance": provenance(args, scale),
              "workloads": {name: {} for name in WORKLOADS}}
    failures = []
    references = {}
    runs, traces, layers = {}, {}, None

    if "layers" in sections:
        layers = measure_layers(args.seed, scale)
    for name in WORKLOADS:
        if "e2e" in sections:
            runs[name] = [
                run_workload(name, args.seed, args.seconds, scale,
                             references,
                             1 if args.quick else PROCESSES[name])
                for _ in range(args.repeats)
            ]
        if "trace" in sections:
            traces[name] = trace_workload(
                name, args.seed, args.seconds, scale
            )
    for name, repeats in runs.items():
        attempted, failed, failed_checks = tally(*repeats)
        failures += [(name, f) for f in failed_checks]
        report["workloads"][name].update({
            "placement": E2E_PLACEMENT[name], "ops": repeats[0]["ops"],
            "processes": repeats[0]["processes"],
            "exempt_threads": max(run["exempt_threads"] for run in repeats),
            "end_to_end": {
                metric: summary(
                    [run["values"][metric] for run in repeats], unit)
                for metric, unit in END_TO_END_UNITS.items()
            },
            "attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted,
        })
    for name, traced in traces.items():
        failures += [(name, f) for f in tally(traced)[2]]
        report["workloads"][name]["per_layer"] = traced["metrics"]
    if layers:
        failures += [("layers", f) for f in tally(layers)[2]]
        report["layers"] = layers["metrics"]

    derived = {}
    walls = {
        name.partition("_")[2]:
            entry["end_to_end"]["wall_s"]["median"] / entry["ops"]
        for name, entry in report["workloads"].items()
        if name.startswith("cluster") and "end_to_end" in entry
    }
    if len(walls) == 2:
        derived["coupling.overlap_ratio"] = {
            "value": walls["jungle"] / walls["direct"],
            "unit": "ratio", "n": args.repeats,
        } if os.cpu_count() >= 2 else "unresolved"
    derived.update(perfmodel_ratios(walls, scale))
    report["derived"] = derived
    report["provenance"]["host"]["load_1min_after"] = os.getloadavg()[0]

    for name, entry in report["workloads"].items():
        for metric, value in entry.get("end_to_end", {}).items():
            _row(name, metric, value)
        if "fail_ratio" in entry:
            _row(name, "fail_ratio", {
                "value": entry["fail_ratio"], "unit": "ratio",
                "n": entry["attempted"]})
            _row(name, "residue.exempt_threads", {
                "value": entry["exempt_threads"], "unit": "count",
                "n": args.repeats * entry["processes"]})
        for metric, value in entry.get("per_layer", {}).items():
            _row(name, metric, value)
    for metric, value in report.get("layers", {}).items():
        _row("layers", metric, value)
    for metric, value in derived.items():
        if isinstance(value, dict):
            _row("derived", metric, value)
        else:
            print(f"{'derived':16s} {metric:40s} {value}")
    if report["provenance"]["noisy"]:
        print("NOISY: load average above nproc when the run started")
    for scope, failure in failures:
        print(f"FAILED {scope} {failure['name']}: {failure['detail']}")
    if args.out:
        with open(args.out, "w") as out:
            json.dump(report, out, indent=1)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args()
    if not os.path.isdir(SRC):
        print(f"no program to measure: {SRC} is missing", file=sys.stderr)
        return 2
    try:
        if args.workload:
            return driver_mode(args)
        return full_mode(args)
    except ChildFailed as failure:
        print(f"FAILED {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
