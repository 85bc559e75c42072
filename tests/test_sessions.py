"""Multi-session daemon tests: isolation, warm pool, admission
control, accounting, idle reaping, shutdown, construction, CLI."""

import os
import socket
import subprocess
import sys
import threading
import time
import types
import warnings

import pytest

import repro.distributed.channel as channel_mod
from repro.codes import PhiGRAPE
from repro.codes.testing import ArrayEchoInterface, SleepInterface
from repro.distributed import (
    DistributedChannel,
    IbisDaemon,
    Session,
    connect,
)
from repro.distributed.session import (
    AdmissionController,
    WarmWorkerPool,
)
from repro.rpc import (
    TRANSPORT_STAT_KEYS,
    DirectChannel,
    ProtocolError,
    RemoteError,
    SocketChannel,
    merge_transport_stats,
    send_frame,
)
from repro.rpc.subproc import SubprocessChannel, _child_env
from repro.units import nbody_system, units

pytestmark = pytest.mark.network


@pytest.fixture(scope="module")
def daemon():
    d = IbisDaemon()
    d.start()
    yield d
    d.shutdown()


# -- session lifecycle and isolation ----------------------------------------


class TestSessionLifecycle:
    def test_connect_grants_distinct_sessions(self, daemon):
        with connect(daemon, name="alice") as s1, \
                connect(daemon, name="bob") as s2:
            assert isinstance(s1, Session)
            assert s1.id != s2.id
            assert s1.token != s2.token
            assert s1.status()["session"]["name"] == "alice"

    def test_code_places_pilot_and_accounts(self, daemon):
        with connect(daemon) as session:
            ch = session.code(ArrayEchoInterface)
            assert ch.session_id == session.id
            assert ch.call("scale", 3.0, 4.0) == 12.0
            info = session.status()["session"]
            assert list(info["workers"]) == [ch.worker_id]
            acct = info["accounting"]
            assert acct["calls"] >= 1
            assert acct["bytes_in"] > 0
            assert acct["bytes_out"] > 0
            assert acct["compute_s"] >= 0.0

    def test_community_code_through_session(self, daemon):
        conv = nbody_system.nbody_to_si(
            1000.0 | units.MSun, 1.0 | units.parsec
        )
        with connect(daemon) as session:
            gravity = session.code(PhiGRAPE, conv)
            assert gravity.channel.session_id == session.id
            assert gravity.channel.worker_id in \
                session.status()["session"]["workers"]

    def test_sessions_cannot_see_each_others_pilots(self, daemon):
        with connect(daemon) as s1, connect(daemon) as s2:
            ch1 = s1.code(ArrayEchoInterface)
            ch2 = s2.code(ArrayEchoInterface)
            # each session lists only its own pilots
            assert list(s1.status()["session"]["workers"]) == \
                [ch1.worker_id]
            assert list(s2.status()["session"]["workers"]) == \
                [ch2.worker_id]
            # addressing the other tenant's worker id fails
            with pytest.raises(RemoteError):
                s2._link._request(
                    ("call", ch1.worker_id, "scale", (1.0, 1.0), {},
                     s2.id)
                ).result(timeout=10)
            # forging the other tenant's session id fails too: the
            # frame sid must match the hello-authenticated session
            with pytest.raises(RemoteError) as err:
                s2._link._request(
                    ("call", ch1.worker_id, "scale", (1.0, 1.0), {},
                     s1.id)
                ).result(timeout=10)
            assert err.value.exc_class == "ProtocolError"

    def test_second_connection_joins_via_token(self, daemon):
        with connect(daemon) as session:
            ch1 = session.code(ArrayEchoInterface)
            # a separate TCP connection presenting the token lands in
            # the same namespace (this is how every pilot channel of a
            # session shares its accounting)
            ch2 = DistributedChannel(
                ArrayEchoInterface, session=session,
            )
            info = session.status()["session"]
            assert set(info["workers"]) == \
                {ch1.worker_id, ch2.worker_id}
            ch2.stop()

    def test_bad_join_token_is_rejected(self, daemon):
        fake = types.SimpleNamespace(
            address=tuple(daemon.address), token="forged-token"
        )
        with pytest.raises(RemoteError):
            channel_mod._DaemonLink(
                address=daemon.address, session=fake,
            )

    def test_max_sessions_limit(self):
        with IbisDaemon(max_sessions=1) as d:
            with connect(d):
                with pytest.raises(RemoteError):
                    connect(d)
            # released sessions free the slot: the empty session is
            # dropped when its last connection goes away
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                try:
                    connect(d).close()
                    break
                except RemoteError:
                    time.sleep(0.02)
            else:
                pytest.fail("session slot never freed")

    def test_close_session_stops_pilots(self):
        with IbisDaemon() as d:
            session = connect(d)
            ch = session.code(ArrayEchoInterface)
            assert ch.call("scale", 2.0, 2.0) == 4.0
            session.close()
            with pytest.raises(ProtocolError):
                session.echo(b"x")
            assert not d._sessions

    def test_closed_session_rejects_code(self, daemon):
        session = connect(daemon)
        session.close()
        with pytest.raises(ProtocolError):
            session.code(ArrayEchoInterface)

    def test_old_style_channels_are_isolated_sessions(self, daemon):
        # pre-session entry point: each direct channel gets its own
        # implicit single-tenant session
        a = DistributedChannel(ArrayEchoInterface, daemon=daemon)
        b = DistributedChannel(ArrayEchoInterface, daemon=daemon)
        try:
            assert list(
                a._request(("list_workers",)).result()
            ) == [a.worker_id]
            assert list(
                b._request(("list_workers",)).result()
            ) == [b.worker_id]
        finally:
            a.stop()
            b.stop()


# -- warm pool ---------------------------------------------------------------


class TestWarmPool:
    def test_warm_and_cold_results_identical(self):
        with IbisDaemon(warm_pool=1) as d:
            assert d.warm_pool.ready(1, timeout=30)
            with connect(d) as session:
                warm = session.code(
                    ArrayEchoInterface, channel_type="subprocess"
                )
                cold = session.code(
                    ArrayEchoInterface, channel_type="subprocess"
                )
                assert warm.call("checksum", list(range(64))) == \
                    cold.call("checksum", list(range(64)))
                info = session.status()["session"]
                acct = info["accounting"]
                assert acct["warm_hits"] == 1
                assert acct["cold_spawns"] == 1
                flags = {
                    meta["warm"]
                    for meta in info["workers"].values()
                }
                assert flags == {True, False}

    def test_pool_refills_after_claim(self):
        pool = WarmWorkerPool(1, preload=[])
        try:
            assert pool.ready(1, timeout=30)
            first = pool.claim()
            assert first is not None
            assert pool.ready(1, timeout=30)  # background refill
            first.activate(ArrayEchoInterface)
            assert first.call("scale", 2.0, 8.0) == 16.0
            first.stop()
        finally:
            pool.stop()
        assert pool.claim() is None          # stopped pool never serves

    def test_dead_parked_worker_is_skipped(self):
        pool = WarmWorkerPool(1, preload=[])
        try:
            assert pool.ready(1, timeout=30)
            with pool._lock:
                parked = pool._idle[0]
            parked._proc.kill()
            parked._proc.wait()
            claimed = pool.claim()
            # the dead child was detected: either the claim found the
            # freshly refilled healthy worker or (pool momentarily
            # empty) reported a miss — it NEVER hands out a corpse
            if claimed is not None:
                assert claimed.alive()
                claimed.stop()
        finally:
            pool.stop()

    def test_warm_channel_discard_is_quick(self):
        ch = SubprocessChannel(warm=True)
        start = time.monotonic()
        ch.stop()
        assert time.monotonic() - start < 5.0
        assert not ch.alive()


# -- admission control -------------------------------------------------------


class TestAdmission:
    def test_fifo_within_session_round_robin_across(self):
        admission = AdmissionController(slots=1)
        admission.acquire("X")              # occupy the only slot
        order = []
        lock = threading.Lock()

        def waiter(sid, label):
            admission.acquire(sid)
            with lock:
                order.append(label)
            admission.release()

        threads = []
        # arrival order: A1, A2, A3, B1 (sleep fixes queue order)
        for sid, label in [("A", "A1"), ("A", "A2"), ("A", "A3"),
                           ("B", "B1")]:
            t = threading.Thread(target=waiter, args=(sid, label))
            t.start()
            threads.append(t)
            time.sleep(0.05)
        admission.release()                 # X frees the slot
        for t in threads:
            t.join(timeout=10)
        # FIFO within A; round-robin interleaves B despite arriving
        # last — one chatty session cannot starve another
        assert order == ["A1", "B1", "A2", "A3"]

    def test_overload_flag_and_queue_delay(self):
        admission = AdmissionController(slots=1, warn_load=0.8)
        delay, overloaded = admission.acquire("A")
        assert not overloaded               # idle daemon: no warning
        result = {}

        def queued():
            result["grant"] = admission.acquire("B")

        t = threading.Thread(target=queued)
        t.start()
        time.sleep(0.15)
        admission.release()
        t.join(timeout=10)
        delay, overloaded = result["grant"]
        assert overloaded                   # slot was busy: load 1.0
        assert delay >= 0.1
        admission.release()

    def test_close_cancels_waiters_and_drains(self):
        admission = AdmissionController(slots=1)
        admission.acquire("A")
        errors = []

        def waiter():
            try:
                admission.acquire("B")
            except RuntimeError as exc:
                errors.append(exc)

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.1)

        def finish():
            time.sleep(0.2)
            admission.release()

        threading.Thread(target=finish).start()
        assert admission.close(drain_timeout=5.0)   # drained in bound
        t.join(timeout=10)
        assert len(errors) == 1
        with pytest.raises(RuntimeError):
            admission.acquire("C")

    def test_acquire_timeout(self):
        admission = AdmissionController(slots=1)
        admission.acquire("A")
        with pytest.raises(TimeoutError):
            admission.acquire("B", timeout=0.1)
        admission.release()

    def test_daemon_accounts_queueing_under_load(self):
        with IbisDaemon(max_active=1) as d:
            with connect(d) as s1, connect(d) as s2:
                ch1 = s1.code(SleepInterface, cost_s=0.2)
                ch2 = s2.code(SleepInterface, cost_s=0.2)
                threads = [
                    threading.Thread(
                        target=ch.call, args=("evolve_model", 0.1)
                    )
                    for ch in (ch1, ch2) for _ in range(2)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                total_queued = sum(
                    s.status()["session"]["accounting"]["queue_s"]
                    for s in (s1, s2)
                )
                warned = sum(
                    s.status()["session"]["accounting"]
                    ["queue_warnings"]
                    for s in (s1, s2)
                )
                assert total_queued > 0.0
                assert warned >= 1


# -- idle reaping ------------------------------------------------------------


class TestIdleReaping:
    def test_idle_reap_frees_shm_segments(self):
        before = set(os.listdir("/dev/shm"))
        with IbisDaemon(idle_timeout=0.4) as d:
            session = connect(d)
            ch = session.code(ArrayEchoInterface, channel_type="shm")
            assert ch.call("scale", 2.0, 4.0) == 8.0
            assert set(os.listdir("/dev/shm")) - before  # segments live
            deadline = time.monotonic() + 15
            while d.reaped_sessions == 0 \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            assert d.reaped_sessions >= 1
            # the pilot (and its /dev/shm segments) are gone
            assert set(os.listdir("/dev/shm")) <= before
            with pytest.raises(RemoteError):
                ch.call("scale", 1.0, 1.0)
            session._closed = True           # daemon side already gone
            session._link.close()

    def test_busy_session_is_not_reaped(self):
        with IbisDaemon(idle_timeout=0.3) as d:
            with connect(d) as session:
                ch = session.code(ArrayEchoInterface)
                for _ in range(8):
                    ch.call("scale", 1.0, 1.0)   # activity: touch()
                    time.sleep(0.1)
                assert d.reaped_sessions == 0
                assert ch.call("scale", 3.0, 3.0) == 9.0


# -- deterministic shutdown --------------------------------------------------


class TestShutdownDrain:
    def test_shutdown_drains_inflight_call(self):
        d = IbisDaemon(max_active=1)
        d.start()
        session = connect(d)
        ch = session.code(SleepInterface, cost_s=0.5)
        result = {}

        def call():
            try:
                result["value"] = ch.call("evolve_model", 0.1)
            except Exception as exc:  # noqa: BLE001 - inspected below
                result["error"] = exc

        t = threading.Thread(target=call)
        t.start()
        time.sleep(0.15)                     # call is now in-flight
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            d.shutdown()
        t.join(timeout=30)
        # the drain let the in-flight call finish — no torn reply
        assert result.get("value") == 0
        stray = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
        ]
        assert stray == []

    def test_concurrent_shutdown_callers_wait_for_teardown(self):
        """Regression: a shutdown() racing another used to return
        immediately for the loser, while the winner was still draining
        — "shutdown() returned" did not mean "the daemon is down".
        Now every caller blocks until the teardown completes."""
        d = IbisDaemon(max_active=1)
        d.start()
        session = connect(d)
        ch = session.code(SleepInterface, cost_s=0.5)
        result = {}

        def call():
            try:
                result["value"] = ch.call("evolve_model", 0.1)
            except Exception as exc:  # noqa: BLE001 - inspected below
                result["error"] = exc

        t = threading.Thread(target=call)
        t.start()
        time.sleep(0.15)                     # call is now in-flight
        barrier = threading.Barrier(2)
        observed = {}

        def shut(name):
            barrier.wait()
            d.shutdown()
            # the moment ANY caller returns, the drain must be over:
            # the in-flight call has already been answered
            observed[name] = (
                "value" in result or "error" in result
            )

        racers = [
            threading.Thread(target=shut, args=(name,))
            for name in ("winner", "loser")
        ]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(timeout=30)
        t.join(timeout=30)
        assert observed == {"winner": True, "loser": True}
        assert result.get("value") == 0
        assert not d.running

    def test_shutdown_before_start_returns_immediately(self):
        d = IbisDaemon()
        started = time.monotonic()
        d.shutdown()                         # nothing to wait for
        assert time.monotonic() - started < 1.0

    def test_shutdown_frame_from_client(self):
        d = IbisDaemon()
        d.start()
        session = connect(d)
        assert session._link._request(("shutdown",)).result(
            timeout=10
        ) is True
        deadline = time.monotonic() + 10
        while d.running and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not d.running
        d.shutdown()                          # idempotent

    def test_serve_survives_a_departed_client(self, monkeypatch):
        """A reply to a client that already left (or whose socket a
        concurrent shutdown closed) ends the serve loop quietly — it
        must not kill the thread with an unhandled OSError."""
        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        daemon = IbisDaemon()
        client, server_end = socket.socketpair()
        send_frame(client, ("status", 1))
        client.close()
        serve = threading.Thread(target=daemon._serve, args=(server_end,))
        serve.start()
        serve.join(timeout=10)
        assert not serve.is_alive()
        assert crashes == []


# -- construction -------------------------------------------------------------


class TestDeprecationShims:
    """No entry point warns: a direct DistributedChannel is the plain
    low-level constructor ``Session.code`` itself calls."""

    def test_direct_construction_does_not_warn(self, daemon):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ch = DistributedChannel(ArrayEchoInterface, daemon=daemon)
            assert ch.call("scale", 2.0, 4.0) == 8.0
            ch.stop()
        assert not [
            w for w in caught
            if issubclass(w.category, DeprecationWarning)
        ]

    def test_session_path_does_not_warn(self, daemon):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with connect(daemon) as session:
                ch = session.code(ArrayEchoInterface)
                assert ch.call("scale", 1.0, 5.0) == 5.0
        assert not [
            w for w in caught
            if issubclass(w.category, DeprecationWarning)
        ]


# -- unified transport stats -------------------------------------------------


class TestTransportStats:
    def _assert_canonical(self, stats):
        assert set(stats) == set(TRANSPORT_STAT_KEYS)

    def test_every_channel_type_shares_the_keys(self, daemon):
        direct = DirectChannel(ArrayEchoInterface)
        self._assert_canonical(direct.transport_stats)
        direct.stop()

        sock = SocketChannel(ArrayEchoInterface)
        sock.call("scale", 1.0, 1.0)
        self._assert_canonical(sock.transport_stats)
        assert sock.transport_stats["bytes_received"] > 0
        assert sock.transport_stats["frames_received"] > 0
        sock.stop()

        with connect(daemon) as session:
            ch = session.code(ArrayEchoInterface)
            ch.call("scale", 1.0, 1.0)
            self._assert_canonical(ch.transport_stats)
            merged = session.status()["client_transport"]
            assert merged["bytes_sent"] > 0
            assert merged["bytes_received"] > 0
            assert merged["channel_count"] >= 2

    def test_stopped_pilots_stay_in_merged_stats(self, daemon):
        """The closed-pilot accumulator: ``status()`` keeps the
        transport stats of pilots that have since been stopped, so
        merged totals never go backwards over a session's lifetime."""
        with connect(daemon) as session:
            ch1 = session.code(ArrayEchoInterface)
            ch2 = session.code(ArrayEchoInterface)
            for _ in range(3):
                ch1.call("scale", 2.0, 2.0)
            ch2.call("scale", 1.0, 1.0)
            live = session.status()["client_transport"]
            ch1.stop()
            after_stop = session.status()["client_transport"]
            assert after_stop["bytes_sent"] >= live["bytes_sent"]
            assert after_stop["frames_sent"] >= live["frames_sent"]
            assert after_stop["channel_count"] == \
                live["channel_count"]
            # the surviving pilot still accumulates on top
            ch2.call("scale", 3.0, 3.0)
            final = session.status()["client_transport"]
            assert final["bytes_sent"] > after_stop["bytes_sent"]
            ch2.stop()
            assert session.status()["client_transport"][
                "bytes_sent"] >= final["bytes_sent"]

    def test_merge_transport_stats(self):
        merged = merge_transport_stats([
            {"channel": "a", "bytes_sent": 3, "frames_sent": 1,
             "codec": "zlib"},
            {"channel": "b", "bytes_sent": 4, "bytes_received": 2,
             "shm": True},
        ])
        assert merged["bytes_sent"] == 7
        assert merged["bytes_received"] == 2
        assert merged["channels"] == ["a", "b"]
        assert merged["codecs"] == ["zlib"]
        assert merged["shm"] is True
        assert merged["channel_count"] == 2


# -- daemon CLI --------------------------------------------------------------


class TestDaemonCli:
    def test_version_flag(self):
        from repro import __version__

        out = subprocess.run(
            [sys.executable, "-m", "repro.distributed.daemon",
             "--version"],
            env=_child_env(), capture_output=True, text=True,
            timeout=60,
        )
        assert out.returncode == 0
        assert __version__ in out.stdout

    def test_cli_serves_sessions(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.distributed.daemon",
             "--port", "0", "--max-sessions", "4"],
            env=_child_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line
            address = line.strip().rsplit(" ", 1)[-1]
            with connect(address, name="cli-test") as session:
                assert session.echo(b"ping") == b"ping"
                ch = session.code(ArrayEchoInterface)
                assert ch.call("scale", 6.0, 7.0) == 42.0
                assert session.status()["daemon"]["max_sessions"] == 4
            shutdown = connect(address)
            shutdown._link._request(("shutdown",)).result(timeout=10)
            shutdown._link.close()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
