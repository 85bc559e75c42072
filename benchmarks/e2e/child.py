"""One measurement in a fresh process, so ``cpu_s`` and
``peak_rss_mib`` belong to this run alone.

``python child.py '<spec json>'`` — spawned by run.py, never by hand.
The spec names the mode; the one line ``RESULT {...}`` is the outcome:

* ``run``    — set up, time the ops, check, stop the codes, look for
  residue;
* ``layers`` — the per-layer measurements of layers.py.

``setup_s`` counts from the parent's clock reading just before the
spawn (``spec["t0"]``; ``perf_counter`` is system-wide on Linux), so
it includes interpreter start and every import.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
sys.path.insert(0, HERE)


def _transport_totals(channels):
    frames = octets = 0
    for channel in channels:
        stats = channel.transport_stats
        frames += stats["frames_sent"] + stats["frames_received"]
        octets += stats["bytes_sent"] + stats["bytes_received"]
    return frames, octets


def _cpu_seconds(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run(spec):
    import check
    from workloads import force_imports, new_workload

    baseline = check.residue_baseline()
    workload = new_workload(
        spec["workload"], spec["placement"], spec["seed"], spec["scale"]
    )
    tracer = None
    if spec["trace"]:
        import trace

        force_imports()
        tracer = trace.Tracer()
        trace.install(tracer)
    workload.setup()
    setup_s = time.perf_counter() - spec["t0"]

    op = tracer.wrap(workload.op, "op", "op") if tracer else workload.op
    frames0, octets0 = _transport_totals(workload.channels())
    durations = []
    failed_ops = 0
    for index in range(spec["ops"]):
        if tracer:
            tracer.op_id = index
        start = time.perf_counter()
        try:
            op()
        except Exception:  # noqa: BLE001 - a failed op is a counted result
            traceback.print_exc()
            failed_ops += 1
            break               # the models' state is no longer defined
        durations.append(time.perf_counter() - start)
    if tracer:
        tracer.op_id = -1
    self_cpu_s = _cpu_seconds(resource.RUSAGE_SELF)
    frames1, octets1 = _transport_totals(workload.channels())

    checks = []
    state = {}
    if not failed_ops:
        try:
            state = workload.final_state()
            checks = [check.check(*c) for c in workload.self_checks()]
        except Exception:  # noqa: BLE001 - counted, not fatal
            traceback.print_exc()
            checks.append(check.check(
                "final_state", False, traceback.format_exc(limit=1)
            ))
    links = workload.placement.links
    workload.placement.stop_codes()

    result = {
        "setup_s": setup_s,
        "durations_s": durations,
        "ops_attempted": len(durations) + failed_ops,
        "ops_failed": failed_ops,
        "cpu_s": self_cpu_s + _cpu_seconds(resource.RUSAGE_CHILDREN),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) / 1024.0,
        "frames": frames1 - frames0,
        "bytes": octets1 - octets0,
        "state": state,
    }
    residue, result["exempt_threads"] = check.residue_checks(baseline, links)
    result["checks"] = checks + residue
    if tracer and durations:
        result["budget"] = tracer.budget()
        tracer.write_chrome_trace(spec["trace_out"])
    return result


def main():
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "layers":
        import layers

        result = layers.measure_all(
            spec["scale"], spec["seed"], spec["work_dir"]
        )
    else:
        result = run(spec)
    print(f"RESULT {json.dumps(result)}", flush=True)


if __name__ == "__main__":
    main()
