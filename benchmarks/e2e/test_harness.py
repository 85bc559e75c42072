"""Harness self-test: ``pytest benchmarks/e2e -q`` (about a minute;
outside ``testpaths``, so the tier-1 run does not collect it).

Runs the full command in ``--quick`` mode once and checks the contract
between what it prints, what it writes and what BENCHMARK.json names.
"""

import json
import os
import re
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

sys.path.insert(0, HERE)
import check  # noqa: E402
from run import DERIVED  # noqa: E402


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """``(report, stdout, path)`` of one ``run.py --quick``."""
    path = str(tmp_path_factory.mktemp("e2e") / "quick.json")
    proc = subprocess.run(
        [sys.executable, RUN, "--quick", "--out", path],
        capture_output=True, text=True, timeout=280,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(path) as handle:
        return json.load(handle), proc.stdout, path


def test_output_names_are_exactly_benchmark_json_names(quick, benchmark_json):
    report, stdout, _path = quick
    end_to_end = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert set(report["workloads"]) == {
        w["name"] for w in benchmark_json["workloads"]
    }
    for name, run in report["workloads"].items():
        assert {k: v["unit"] for k, v in run["end_to_end"].items()} \
            == end_to_end, name
        produced = {**report["layers"], **run["per_layer"]}
        assert {k: v["unit"] for k, v in produced.items()} == per_layer, name
        assert run["failed"] == 0 and run["fail_ratio"] == 0.0, name
    # the only names outside BENCHMARK.json: figures that need two
    # workloads' runs, which no single-workload run can report
    assert set(report["derived"]) == set(DERIVED)
    printed = set(re.findall(r"^\S+\s+(\S+)", stdout, flags=re.M))
    for name in [*end_to_end, *per_layer, *DERIVED, "fail_ratio",
                 "residue.exempt_threads"]:
        assert NAME.fullmatch(name), name
        assert name in printed, name


def test_provenance_block(quick):
    provenance = quick[0]["provenance"]
    assert provenance["noisy"] in (True, False)
    assert {"nproc", "platform", "python", "numpy", "scipy",
            "load_1min_before", "load_1min_after"} <= set(provenance["host"])
    assert {"git_commit", "seed", "repeats"} <= set(provenance)
    for run in quick[0]["workloads"].values():
        for entry in run["end_to_end"].values():
            assert entry["n"] == len(entry["samples"]) == provenance["repeats"]


def test_compare_against_itself_is_within_everywhere(quick):
    path = quick[2]
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), path, path],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = [line.split()[-1] for line in proc.stdout.splitlines()[1:]]
    assert len(verdicts) == 5 * 6 and set(verdicts) == {"within"}


def test_residue_check_exempts_a_bounded_set_of_daemon_threads():
    """One link: 2 accept loops and one _serve/_read_responses pair
    pass and are counted; one more, or a named thread, fails."""
    baseline = check.residue_baseline()
    stop = threading.Event()

    def leak(name):
        threading.Thread(target=stop.wait, name=name, daemon=True).start()

    def threads_ok(links):
        checks, exempt = check.residue_checks(baseline, links, timeout=0.1)
        return checks[2]["ok"], exempt

    try:
        for name in ("Thread-1 (_accept_loop)", "Thread-2 (_accept_loop)",
                     "Thread-3 (_serve)", "Thread-4 (_read_responses)"):
            leak(name)
        assert threads_ok(links=1) == (True, 4)
        assert threads_ok(links=0) == (False, 0)
        leak("Thread-5 (_serve)")
        assert threads_ok(links=1) == (False, 4)
        assert threads_ok(links=2) == (True, 5)
        leak("sockets-worker")
        assert threads_ok(links=2) == (False, 5)
    finally:
        stop.set()


def test_compare_refuses_a_file_without_every_workload(quick, tmp_path):
    path = quick[2]
    with open(path) as handle:
        report = json.load(handle)
    del report["workloads"]["state_push"]["end_to_end"]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(report))
    for pair in ((path, str(partial)), (str(partial), path)):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "compare.py"), *pair],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2 and "state_push" in proc.stderr


@pytest.mark.parametrize("trace", [0, 1])
def test_single_workload_contract_line(trace, benchmark_json):
    """What the driver runs: the last stdout line is one JSON object
    with exactly the contract's keys and BENCHMARK.json's metrics."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "state_pull", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = benchmark_json["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in wanted}
    assert all(set(v) == {"value", "unit"}
               for v in result["metrics"].values())
