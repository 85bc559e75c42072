"""Self-tests for the repro.analysis invariant checker.

Each rule family must detect its seeded-bug fixture (and stay quiet on
the clean fixture), the baseline workflow must round-trip, the
committed tree must be baseline-clean, and the lockwatch runtime
companion must record real acquisition orders and cross-validate them
against the static lock graph.
"""

import importlib.util
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.analysis import Baseline, Finding, Project, analyze, run_rules
from repro.analysis import lockwatch
from repro.analysis.locks import build_lock_graph

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
REPO = Path(__file__).parents[1]


def _keys(findings):
    return [finding.key for finding in findings]


# -- rule families against seeded fixtures -----------------------------------


class TestRuleFamilies:
    def test_deadlock_cycle_detected(self):
        keys = _keys(analyze(
            str(FIXTURES / "deadlock.py"), rules=["lock-order"]
        ))
        cycle = [k for k in keys if k.startswith("lock-order:cycle:")]
        assert len(cycle) == 1
        assert "_accounts" in cycle[0] and "_audit_log" in cycle[0]

    def test_send_section_acquisition_detected(self):
        keys = _keys(analyze(
            str(FIXTURES / "deadlock.py"), rules=["lock-order"]
        ))
        assert any(
            k.startswith("lock-order:send-section:")
            and "_send_lock" in k
            for k in keys
        )

    def test_reader_thread_blocking_detected(self):
        findings = analyze(
            str(FIXTURES / "reader_block.py"), rules=["reader-blocking"]
        )
        assert len(findings) == 1
        key = findings[0].key
        assert "_reader_loop" in key
        assert key.endswith("->result@reader_block.py::"
                            "BlockingChannel._deliver")

    def test_orphaned_magic_constant_detected(self):
        keys = _keys(analyze(
            str(FIXTURES / "orphan_magic.py"),
            rules=["frame-conformance"],
        ))
        assert any("magic" in k and "MAGIC_ORPHAN" in k for k in keys)
        # the constant that IS packed and compared stays quiet
        assert not any("MAGIC_USED" in k for k in keys)

    def test_frame_kind_missing_from_table_detected(self):
        keys = _keys(analyze(
            str(FIXTURES / "frame_table.py"),
            rules=["frame-conformance"],
        ))
        # the table's key is a dispatch arm; the kind it lacks is not
        assert keys == ["frame-conformance:unhandled:orphan"]

    def test_leaked_shm_segment_detected(self):
        findings = analyze(
            str(FIXTURES / "leak_shm.py"), rules=["resource-lifecycle"]
        )
        assert _keys(findings) == [
            "lifecycle:shm:leak_shm.py::LeakyArena.__init__"
        ]

    def test_clean_fixture_has_no_findings(self):
        assert analyze(str(FIXTURES / "clean.py")) == []

    def test_unknown_rule_rejected(self):
        project = Project([FIXTURES / "clean.py"])
        with pytest.raises(KeyError, match="no-such-rule"):
            run_rules(project, ["no-such-rule"])


# -- baseline workflow -------------------------------------------------------


class TestBaseline:
    def _finding(self, key):
        return Finding(
            rule="demo", path="x.py", line=1, message="m", key=key
        )

    def test_split_and_stale(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.write(path, [self._finding("a"), self._finding("b")])
        baseline = Baseline.load(path)
        new, accepted = baseline.split(
            [self._finding("b"), self._finding("c")]
        )
        assert _keys(new) == ["c"]
        assert _keys(accepted) == ["b"]
        assert baseline.stale_keys([self._finding("b")]) == ["a"]

    def test_committed_tree_is_baseline_clean(self):
        """The CI gate, as a test: the checker over src/repro finds
        nothing beyond the committed, justified baseline."""
        findings = analyze(str(REPO / "src" / "repro"))
        baseline = Baseline.load(REPO / "analysis-baseline.json")
        new, _ = baseline.split(findings)
        assert new == []
        # and every baseline entry is still live (no stale mutes)
        assert baseline.stale_keys(findings) == []
        # the baseline is reviewed, not a mute button
        for key, justification in baseline.entries.items():
            assert len(justification) > 40, key

    def test_cli_exits_zero_on_committed_tree(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src/repro"],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_cli_flags_seeded_fixture(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.analysis",
                str(FIXTURES / "deadlock.py"),
                "--baseline", str(tmp_path / "none.json"),
            ],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "lock-order:cycle:" in proc.stdout


# -- lockwatch runtime companion ---------------------------------------------


@pytest.fixture
def watched_pair():
    """Import the runtime fixture with the watcher installed, yielding
    a fresh Pair whose locks are instrumented."""
    was_installed = lockwatch.installed()
    lockwatch.install()
    lockwatch.reset()
    spec = importlib.util.spec_from_file_location(
        "runtime_pair", FIXTURES.parent / "repro" / "runtime_pair.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    try:
        yield module.Pair()
    finally:
        lockwatch.reset()
        if not was_installed:       # REPRO_LOCKWATCH=1 runs keep it
            lockwatch.uninstall()


class TestLockwatch:
    def _graph(self):
        return build_lock_graph(
            Project([FIXTURES.parent / "repro" / "runtime_pair.py"])
        )

    def test_consistent_order_validates_clean(self, watched_pair):
        watched_pair.forward()
        findings, stats = lockwatch.validate_report(
            {"edges": lockwatch.report()}, self._graph()
        )
        assert findings == []
        assert stats["observed"] == 1
        assert stats["matched"] == 1

    def test_reversed_order_is_a_divergence(self, watched_pair):
        watched_pair.forward()
        # a second thread takes the same pair the other way around —
        # exactly the latent deadlock the cross-validation exists for
        def backward():
            with watched_pair._second:
                with watched_pair._first:
                    pass

        thread = threading.Thread(target=backward)
        thread.start()
        thread.join(timeout=5)
        findings, stats = lockwatch.validate_report(
            {"edges": lockwatch.report()}, self._graph()
        )
        assert stats["matched"] == 2
        keys = _keys(findings)
        assert any(k.startswith("lockwatch:order:") for k in keys)
        assert any(k.startswith("lockwatch:conflict:") for k in keys)

    def test_untracked_locks_stay_raw(self, watched_pair):
        # created from a non-repro path (this test file): unwrapped
        lock = threading.Lock()
        assert not isinstance(lock, lockwatch._WatchedLock)
        assert isinstance(
            watched_pair._first, lockwatch._WatchedLock
        )

    def test_dump_round_trips(self, watched_pair, tmp_path):
        watched_pair.forward()
        out = tmp_path / "lockwatch.json"
        lockwatch.dump(out)
        data = json.loads(out.read_text())
        assert data["version"] == 1
        findings, stats = lockwatch.validate_report(
            data, self._graph()
        )
        assert findings == []
        assert stats["matched"] == 1

    def test_install_is_idempotent_and_reversible(self):
        was_installed = lockwatch.installed()
        lockwatch.install()
        lockwatch.install()
        assert lockwatch.installed()
        lockwatch.uninstall()
        assert not lockwatch.installed()
        assert threading.Lock is lockwatch._REAL_LOCK
        if was_installed:           # REPRO_LOCKWATCH=1 runs keep it
            lockwatch.install()
