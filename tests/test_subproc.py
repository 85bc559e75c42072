"""Tests for the subprocess channel and channel-lifecycle fixes.

Covers the true off-process worker path (spawn, bootstrap, the hello
handshake, pipelining/batching), the worker-death fault paths
(killed child, crashing worker, failing constructor — all surfacing as
:class:`ConnectionLostError` with the child's exit code and stderr
tail, never a hang), the daemon's subprocess pilot mode, and the three
channel-lifecycle bugfixes (wedged-worker stop warning + idempotent
stop, per-factory kwarg validation in ``new_channel``, constructor
failure cleanup in ``SocketChannel``).
"""

import functools
import os
import signal
import threading
import time

import pytest

from repro.codes.base import CodeStateError
from repro.codes.testing import (
    CrashingInterface,
    FailingInterface,
    SleepCode,
    SleepInterface,
    WedgedStopInterface,
)
from repro.distributed import IbisDaemon
from repro.distributed.channel import DistributedChannel
from repro.rpc import (
    ConnectionLostError,
    ProtocolError,
    RemoteError,
    SocketChannel,
    SubprocessChannel,
    new_channel,
    wait_all,
)

pytestmark = pytest.mark.network

#: keep shutdown escalation fast in tests — none of these workers is
#: expected to need the full production timeouts
FAST = {"stop_timeout": 5.0, "kill_timeout": 5.0}


def _sleep_factory(cost_s=0.01):
    return functools.partial(SleepInterface, cost_s=cost_s)


@pytest.fixture
def channel():
    ch = SubprocessChannel(_sleep_factory(), **FAST)
    yield ch
    try:
        ch.stop()
    except ProtocolError:
        pass


class TestSubprocessChannel:
    def test_worker_is_another_process(self, channel):
        assert channel.pid != os.getpid()
        assert channel.worker_pid == channel.pid

    def test_call_roundtrip(self, channel):
        assert channel.call("get_model_time") == 0.0
        channel.call("evolve_model", 0.5)
        assert channel.call("get_model_time") == 0.5

    def test_wire_v2_negotiated(self, channel):
        assert channel.wire_caps == {"cancel": True}

    def test_pipelined_async_calls(self, channel):
        reqs = [
            channel.async_call("get_parameter", "cost_s")
            for _ in range(8)
        ]
        assert wait_all(reqs) == [0.01] * 8

    def test_batched_mcall(self, channel):
        with channel.batch():
            a = channel.async_call("parameter_names")
            b = channel.async_call("get_model_time")
        assert a.result() == ["cost_s"]
        assert b.result() == 0.0

    def test_unknown_method_is_remote_error(self, channel):
        with pytest.raises(RemoteError):
            channel.call("no_such_method")

    def test_factory_registered(self):
        ch = new_channel("subprocess", _sleep_factory(), **FAST)
        try:
            assert isinstance(ch, SubprocessChannel)
        finally:
            ch.stop()

    def test_stop_is_idempotent(self):
        ch = SubprocessChannel(_sleep_factory(), **FAST)
        ch.stop()
        assert ch._proc.returncode == 0
        ch.stop()       # second stop: no-op, no error, no hang

    def test_calls_after_stop_raise(self):
        ch = SubprocessChannel(_sleep_factory(), **FAST)
        ch.stop()
        with pytest.raises(ProtocolError):
            ch.call("get_model_time")


class TestWorkerDeath:
    def test_constructor_failure_reported_and_reaped(self):
        with pytest.raises(RemoteError, match="refused to construct"):
            SubprocessChannel(
                functools.partial(FailingInterface), **FAST
            )

    def test_killed_child_fails_inflight_call(self):
        ch = SubprocessChannel(_sleep_factory(cost_s=30.0), **FAST)
        req = ch.async_call("evolve_model", 1.0)
        time.sleep(0.2)
        os.kill(ch.pid, signal.SIGKILL)
        with pytest.raises(ConnectionLostError) as excinfo:
            req.result(timeout=15)
        assert excinfo.value.returncode == -signal.SIGKILL
        # channel is dead: stop() reaps and re-surfaces the crash
        with pytest.raises(ConnectionLostError):
            ch.stop()
        ch.stop()       # and is idempotent afterwards

    def test_crash_carries_exit_code_and_stderr_tail(self):
        ch = SubprocessChannel(
            functools.partial(
                CrashingInterface, exit_code=9,
                stderr_message="sprocket failure in sector 7",
            ),
            **FAST,
        )
        req = ch.async_call("crash")
        with pytest.raises(ConnectionLostError) as excinfo:
            req.result(timeout=15)
        assert excinfo.value.returncode == 9
        assert "sector 7" in excinfo.value.stderr_tail
        assert "sector 7" in str(excinfo.value)
        with pytest.raises(ConnectionLostError, match="sector 7"):
            ch.stop()

    def test_orphan_reaper_terminates_children(self):
        from repro.rpc import subproc

        ch = SubprocessChannel(_sleep_factory(), **FAST)
        assert ch._proc.poll() is None
        subproc._reap_orphans()
        assert ch._proc.wait(timeout=10) is not None


class TestHighlevelOverSubprocess:
    def test_evolve_and_stop(self):
        from repro.units import nbody_system

        code = SleepCode(
            channel_type="subprocess", cost_s=0.01,
            channel_options=FAST,
        )
        code.evolve_model(1 | nbody_system.time)
        assert code.model_time.value_in(nbody_system.time) == 1.0
        code.stop()
        assert code.stopped

    def test_kill_mid_evolve_resyncs_and_shuts_down(self):
        from repro.units import nbody_system

        code = SleepCode(
            channel_type="subprocess", cost_s=30.0,
            channel_options=FAST,
        )
        future = code.evolve_model.async_(1 | nbody_system.time)
        time.sleep(0.2)
        assert code._inflight.inflight == "evolve_model"
        os.kill(code.channel.pid, signal.SIGKILL)
        with pytest.raises(ConnectionLostError):
            future.result(timeout=15)
        # the failed join retired the in-flight transition
        assert code._inflight.inflight is None
        # cleanup path: absorbs the crash, releases the code, no hang
        t0 = time.perf_counter()
        code.shutdown()
        assert time.perf_counter() - t0 < FAST["stop_timeout"] + \
            FAST["kill_timeout"] + 5.0
        assert code.stopped
        with pytest.raises(CodeStateError):
            code.evolve_model(2 | nbody_system.time)

    def test_exit_unwinding_never_masks_body_exception(self):
        """A crashed child makes stop() raise; during exception
        unwinding __exit__ must force the shutdown instead, so the
        body's error propagates and the code is released."""
        from repro.units import nbody_system

        with pytest.raises(ValueError, match="body failure"):
            with SleepCode(
                channel_type="subprocess", cost_s=30.0,
                channel_options=FAST,
            ) as code:
                future = code.evolve_model.async_(
                    1 | nbody_system.time
                )
                time.sleep(0.2)
                os.kill(code.channel.pid, signal.SIGKILL)
                with pytest.raises(ConnectionLostError):
                    future.result(timeout=15)
                raise ValueError("body failure")
        assert code.stopped


class TestDaemonSubprocessPilots:
    def test_daemon_mode_spawns_real_processes(self):
        with IbisDaemon(worker_mode="subprocess") as daemon:
            ch = DistributedChannel(_sleep_factory(), daemon=daemon)
            try:
                meta = ch._request(("list_workers",)).result()
                entry = meta[ch.worker_id]
                assert entry["mode"] == "subprocess"
                assert entry["pid"] not in (None, os.getpid())
                assert entry["code"] == "SleepInterface"
                ch.call("evolve_model", 0.25)
                assert ch.call("get_model_time") == 0.25
            finally:
                ch.stop()

    def test_per_channel_mode_overrides_daemon_default(self):
        with IbisDaemon() as daemon:       # thread-mode default
            ch = DistributedChannel(
                _sleep_factory(), daemon=daemon,
                worker_mode="subprocess",
            )
            try:
                meta = ch._request(("list_workers",)).result()
                assert meta[ch.worker_id]["mode"] == "subprocess"
            finally:
                ch.stop()

    def test_thread_mode_unchanged(self):
        with IbisDaemon() as daemon:
            ch = DistributedChannel(_sleep_factory(), daemon=daemon)
            try:
                meta = ch._request(("list_workers",)).result()
                assert meta[ch.worker_id]["mode"] == "thread"
                assert meta[ch.worker_id]["pid"] is None
            finally:
                ch.stop()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="worker mode"):
            IbisDaemon(worker_mode="carrier-pigeon")


class TestSocketStopLifecycle:
    """Satellite bugfix: wedged workers warn instead of leaking
    silently, and repeated stop() is idempotent."""

    def test_wedged_worker_stop_warns_naming_channel(self):
        ch = SocketChannel(
            functools.partial(WedgedStopInterface, wedge_s=2.0),
            stop_timeout=0.3,
        )
        with pytest.warns(RuntimeWarning, match="sockets channel"):
            ch.stop()

    def test_repeated_stop_is_idempotent(self):
        ch = SocketChannel(SleepInterface)
        ch.stop()
        t0 = time.perf_counter()
        ch.stop()       # no second remote stop, no join, no warning
        assert time.perf_counter() - t0 < 1.0

    def test_clean_stop_does_not_warn(self):
        import warnings as warnings_mod

        ch = SocketChannel(SleepInterface)
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            ch.stop()


class TestChannelKwargValidation:
    """Satellite bugfix: unknown channel options raise a ValueError
    naming the channel type and keyword, not a bare TypeError."""

    def test_mpi_rejects_sockets_only_kwargs(self):
        with pytest.raises(ValueError, match="'mpi'.*stop_timeout"):
            new_channel("mpi", SleepInterface, stop_timeout=1.0)

    def test_error_lists_valid_options(self):
        with pytest.raises(ValueError, match="valid options"):
            new_channel("direct", SleepInterface, bogus=1)

    def test_valid_kwargs_still_accepted(self):
        ch = new_channel("sockets", SleepInterface, stop_timeout=5.0)
        try:
            assert ch._stop_timeout == 5.0
        finally:
            ch.stop()

    def test_subprocess_rejects_unknown_kwargs(self):
        with pytest.raises(
            ValueError, match="'subprocess'.*'daemon'"
        ):
            new_channel("subprocess", SleepInterface, daemon=object())


class TestSocketConstructorCleanup:
    """Satellite bugfix: a failed SocketChannel constructor closes the
    listener and lets the worker thread exit instead of leaking both."""

    def _worker_threads(self):
        return [
            t for t in threading.enumerate()
            if t.name == "sockets-worker" and t.is_alive()
        ]

    def test_handshake_failure_leaks_nothing(self, monkeypatch):
        before = len(self._worker_threads())

        def _boom(self, max_version, capabilities=None):
            raise RuntimeError("handshake exploded")

        monkeypatch.setattr(
            SocketChannel, "_negotiate_hello", _boom
        )
        with pytest.raises(RuntimeError, match="handshake exploded"):
            SocketChannel(SleepInterface)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if len(self._worker_threads()) <= before:
                break
            time.sleep(0.05)
        assert len(self._worker_threads()) <= before
