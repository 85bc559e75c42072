"""Daemon zero-decode relay data plane tests.

Covers the splice primitive (:func:`repro.rpc.protocol.relay_frame`),
the ``attach_worker`` flow (end-to-end capability negotiation through
the daemon: compression, shm arenas, AMCX cancellation), the fault
paths (pilot SIGKILLed mid-relay, malformed/oversized spliced frames,
pilots that never ack cancel), FaultPolicy.RESTART of a hung remote pilot, and
the Nagle-style adaptive micro-batching of the StreamChannel send path.
"""

import functools
import os
import signal
import socket
import struct
import threading
import time

import numpy as np
import pytest

import repro.distributed.channel as channel_mod
from repro.codes.testing import (
    ArrayEchoInterface,
    CrashingInterface,
    SleepCode,
    SleepInterface,
)
from repro.distributed import IbisDaemon, connect
from repro.rpc import SocketChannel
from repro.rpc.channel import ConnectionLostError
from repro.rpc.protocol import (
    HEADER,
    MAX_FRAME,
    CancelledError,
    ProtocolError,
    RemoteError,
    WireState,
    recv_frame,
    relay_frame,
    send_frame,
)
from repro.rpc.taskgraph import FaultPolicy, TaskGraph
from repro.units import nbody_system

pytestmark = pytest.mark.network


@pytest.fixture(scope="module")
def daemon():
    d = IbisDaemon()
    d.start()
    yield d
    d.shutdown()


# -- the splice primitive -----------------------------------------------------


class TestRelayFrame:
    def _pair(self):
        a, b = socket.socketpair()
        return a, b

    def test_splices_v2_frame_verbatim(self):
        # 2 MiB payload: larger than the socketpair buffers AND the
        # relay chunk, so sender / splice / receiver must pipeline
        # (and the splice exercises its multi-chunk loop)
        src_w, src_r = self._pair()
        dst_w, dst_r = self._pair()
        try:
            payload = np.arange(1 << 18, dtype=np.float64)
            message = ("result", 7, payload)
            wire = WireState()
            sent, spliced = {}, {}
            sender = threading.Thread(
                target=lambda: sent.update(
                    n=send_frame(src_w, message, wire)
                )
            )
            relayer = threading.Thread(
                target=lambda: spliced.update(
                    n=relay_frame(src_r, dst_w)
                )
            )
            sender.start()
            relayer.start()
            out = recv_frame(dst_r, WireState())
            sender.join(timeout=10)
            relayer.join(timeout=10)
            assert spliced["n"] == sent["n"]
            assert out[0] == "result" and out[1] == 7
            assert np.array_equal(out[2], payload)
        finally:
            for s in (src_w, src_r, dst_w, dst_r):
                s.close()

    def test_splices_v1_frame_verbatim(self):
        src_w, src_r = self._pair()
        dst_w, dst_r = self._pair()
        try:
            send_frame(src_w, ("hello", 1, 2))
            relay_frame(src_r, dst_w)
            assert recv_frame(dst_r, WireState()) == ("hello", 1, 2)
        finally:
            for s in (src_w, src_r, dst_w, dst_r):
                s.close()

    def test_clean_eof_between_frames_returns_none(self):
        src_w, src_r = self._pair()
        dst_w, dst_r = self._pair()
        try:
            src_w.close()
            assert relay_frame(src_r, dst_w) is None
        finally:
            for s in (src_r, dst_w, dst_r):
                s.close()

    def test_unknown_magic_raises(self):
        src_w, src_r = self._pair()
        dst_w, dst_r = self._pair()
        try:
            src_w.sendall(b"JUNK" + struct.pack("<I", 4) + b"....")
            with pytest.raises(ProtocolError):
                relay_frame(src_r, dst_w)
        finally:
            for s in (src_w, src_r, dst_w, dst_r):
                s.close()

    def test_oversized_frame_raises_without_allocating(self):
        src_w, src_r = self._pair()
        dst_w, dst_r = self._pair()
        try:
            src_w.sendall(HEADER.pack(b"AMS2", MAX_FRAME + 1))
            with pytest.raises(ProtocolError):
                relay_frame(src_r, dst_w)
        finally:
            for s in (src_w, src_r, dst_w, dst_r):
                s.close()

    def test_truncation_mid_frame_raises(self):
        src_w, src_r = self._pair()
        dst_w, dst_r = self._pair()
        try:
            src_w.sendall(HEADER.pack(b"AMSE", 64) + b"half")
            src_w.close()
            with pytest.raises(ProtocolError):
                relay_frame(src_r, dst_w)
        finally:
            for s in (src_r, dst_w, dst_r):
                s.close()


# -- relay pilots through the daemon ------------------------------------------


class TestRelayDataPlane:
    @pytest.mark.parametrize("mode", ["thread", "subprocess"])
    def test_calls_travel_the_splice(self, daemon, mode):
        with connect(daemon, relay=True) as session:
            ch = session.code(ArrayEchoInterface, channel_type=mode)
            assert ch.relayed
            assert ch.call("scale", 3.0, 4.0) == 12.0
            arr = np.arange(1 << 15, dtype=np.float64)
            assert np.array_equal(ch.call("echo", arr), arr)
            meta = session.status()["session"]["workers"]
            assert meta[ch.worker_id]["relay"] is True
            # the downstream pump accounts a frame just AFTER the
            # client can observe its payload, so poll briefly
            deadline = time.monotonic() + 5.0
            while True:
                acct = session.status()["session"]["accounting"]
                if acct["bytes_out"] > arr.nbytes \
                        or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            assert acct["relay_frames"] >= 4
            assert acct["bytes_in"] > arr.nbytes
            assert acct["bytes_out"] > arr.nbytes
            ch.stop()

    def test_end_to_end_shm_zero_wire_copies(self, daemon):
        """Same-host coupler -> daemon -> shm pilot: arenas negotiated
        END TO END through the splice, large arrays never hit the
        socket (AMSH descriptors are spliced, buffers live in shm)."""
        with connect(daemon, relay=True) as session:
            ch = session.code(ArrayEchoInterface, channel_type="shm")
            assert ch.relayed
            stats = ch.transport_stats
            assert stats["shm"] is True
            arr = np.arange(1 << 17, dtype=np.float64)
            assert np.array_equal(ch.call("echo", arr), arr)
            stats = ch.transport_stats
            assert stats["shm_buffer_bytes"] >= arr.nbytes
            # the descriptor frames spliced by the daemon stay tiny:
            # the daemon never carried the array bytes
            acct = session.status()["session"]["accounting"]
            assert acct["bytes_in"] < arr.nbytes
            ch.stop()

    def test_shm_min_rides_the_offer_end_to_end(self, daemon):
        """channel_options={"shm_min": N} lowers the shm threshold on
        BOTH ends of the splice: the pilot applies the offered cutoff,
        so arrays far below the default 64 KiB still travel the arena."""
        with connect(daemon, relay=True) as session:
            ch = session.code(ArrayEchoInterface, channel_type="shm",
                              channel_options={"shm_min": 256})
            before = session.status()["session"]["accounting"]
            arr = np.arange(1 << 9, dtype=np.float64)   # 4 KiB
            rounds = 8
            for _ in range(rounds):
                assert np.array_equal(ch.call("echo", arr), arr)
            # client leg: sends went through the arena at the lowered
            # cutoff (send-side counter; replies are the pilot's)
            assert ch.transport_stats["shm_buffer_bytes"] >= \
                rounds * arr.nbytes
            # pilot leg: the REPLIES only stay off the socket if the
            # pilot honoured the offered cutoff too, so the daemon
            # spliced descriptor frames, never the array bytes (poll:
            # the downstream pump accounts just after delivery)
            deadline = time.monotonic() + 5.0
            while True:
                acct = session.status()["session"]["accounting"]
                if acct["relay_frames"] - before["relay_frames"] \
                        >= 2 * rounds or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            assert acct["bytes_out"] - before["bytes_out"] < \
                rounds * arr.nbytes
            ch.stop()

    def test_relay_negotiates_cancel_unlike_decoded_path(self, daemon):
        with connect(daemon) as session:
            decoded = session.code(ArrayEchoInterface)
            assert decoded.transport_stats["cancel"] is False
            decoded.stop()
        with connect(daemon, relay=True) as session:
            relayed = session.code(ArrayEchoInterface,
                                   channel_type="thread")
            assert relayed.transport_stats["cancel"] is True
            relayed.stop()

    def test_attached_worker_rejects_decoded_dispatch(self, daemon):
        """The daemon dispatcher must refuse calls addressed to a
        relay-attached pilot — its frames belong to the splice."""
        with connect(daemon, relay=True) as session:
            ch = session.code(ArrayEchoInterface, channel_type="thread")
            with pytest.raises(RemoteError) as err:
                session._link._request(
                    ("call", ch.worker_id, "scale", (1.0, 1.0), {},
                     session.id)
                ).result(timeout=10)
            assert "relay" in str(err.value)
            # the splice itself is unaffected
            assert ch.call("scale", 2.0, 2.0) == 4.0
            ch.stop()

    def test_missing_relay_ack_is_a_protocol_error(self, daemon,
                                                   monkeypatch):
        """A relay request the daemon never acks is refused, not
        silently served on the decoded dispatcher path."""
        original = channel_mod._DaemonLink._hello_caps

        def without_relay(self):
            caps = original(self)
            caps.pop("relay", None)
            return caps

        monkeypatch.setattr(
            channel_mod._DaemonLink, "_hello_caps", without_relay
        )
        with connect(daemon, relay=True) as session:
            with pytest.raises(ProtocolError, match="relay"):
                session.code(ArrayEchoInterface, channel_type="thread")
            assert session.status()["session"]["workers"] == {}

    def test_relay_restart_worker_respawns_through_splice(self, daemon):
        with connect(daemon, relay=True) as session:
            code = session.code(SleepCode, cost_s=0.01,
                                channel_type="subprocess",
                                channel_options={"stop_timeout": 3.0})
            assert code.channel.relayed
            code.evolve_model(2 | nbody_system.time)
            old_worker = code.channel.worker_id
            code.restart_worker()
            assert code.channel.relayed
            assert code.channel.worker_id != old_worker
            # replayed clock, immediately evolvable
            assert code.model_time.value_in(nbody_system.time) == 2.0
            code.evolve_model(3 | nbody_system.time)
            code.stop()


# -- fault paths ---------------------------------------------------------------


class TestRelayFaults:
    def test_pilot_crash_surfaces_exit_code_and_stderr(self, daemon):
        with connect(daemon, relay=True) as session:
            ch = session.code(CrashingInterface,
                              channel_type="subprocess")
            with pytest.raises(ConnectionLostError) as err:
                ch.call("crash")
            assert err.value.returncode == 3
            assert "worker crashed on purpose" in err.value.stderr_tail
            assert "exit code 3" in str(err.value)
            ch.stop()

    def test_pilot_sigkill_mid_relay_surfaces_signal(self, daemon):
        with connect(daemon, relay=True) as session:
            ch = session.code(
                functools.partial(SleepInterface, cost_s=30.0),
                channel_type="subprocess",
                channel_options={"stop_timeout": 2.0},
            )
            meta = session.status()["session"]["workers"]
            pid = meta[ch.worker_id]["pid"]
            fut = ch.async_call("evolve_model", 30.0)
            time.sleep(0.2)
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(ConnectionLostError) as err:
                fut.result(timeout=10)
            assert err.value.returncode == -signal.SIGKILL
            ch.stop()

    def test_malformed_frame_closes_only_offending_connection(
            self, daemon):
        with connect(daemon, relay=True) as healthy_session, \
                connect(daemon, relay=True) as bad_session:
            healthy = healthy_session.code(ArrayEchoInterface,
                                           channel_type="thread")
            bad = bad_session.code(ArrayEchoInterface,
                                   channel_type="thread")
            assert bad.call("scale", 1.0, 1.0) == 1.0
            # inject garbage into the splice: the daemon's upstream
            # pump must drop THIS connection only
            with bad._send_lock:
                bad._sock.sendall(
                    b"EVIL" + struct.pack("<I", 8) + b"deadbeef"
                )
            with pytest.raises((ProtocolError, ConnectionLostError)):
                for _ in range(50):
                    bad.call("scale", 1.0, 1.0)
                    time.sleep(0.05)
            # the other tenant never noticed
            assert healthy.call("scale", 5.0, 5.0) == 25.0
            healthy.stop()

    def test_oversized_frame_closes_only_offending_connection(
            self, daemon):
        with connect(daemon, relay=True) as healthy_session, \
                connect(daemon, relay=True) as bad_session:
            healthy = healthy_session.code(ArrayEchoInterface,
                                           channel_type="thread")
            bad = bad_session.code(ArrayEchoInterface,
                                   channel_type="thread")
            with bad._send_lock:
                bad._sock.sendall(HEADER.pack(b"AMS2", MAX_FRAME + 1))
            with pytest.raises((ProtocolError, ConnectionLostError)):
                for _ in range(50):
                    bad.call("scale", 1.0, 1.0)
                    time.sleep(0.05)
            assert healthy.call("scale", 6.0, 7.0) == 42.0
            healthy.stop()

    def test_cancel_to_no_capability_pilot_degrades(self, daemon):
        """A decoded daemon pilot never acks cancel (the daemon's
        dispatcher cannot interrupt a call): the client-side abandon
        is all there is, and it must not wedge."""
        with connect(daemon) as session:
            ch = session.code(
                functools.partial(SleepInterface, cost_s=1.0),
                channel_type="subprocess",
                channel_options={"stop_timeout": 3.0},
            )
            assert not ch.relayed
            assert ch.transport_stats["cancel"] is False
            fut = ch.async_call("evolve_model", 1.0)
            time.sleep(0.1)
            assert fut.cancel() is True     # client-side only
            assert getattr(fut, "cancel_ack", None) is None
            with pytest.raises(CancelledError):
                fut.result(timeout=5)
            # the stray reply is dropped; the channel keeps working
            assert ch.call("get_model_time") in (0.0, 1.0)
            ch.stop()


# -- AMCX through the splice + RESTART ----------------------------------------


class TestRelayCancelAndRestart:
    def test_amcx_forwarded_to_hung_pilot(self, daemon):
        with connect(daemon, relay=True) as session:
            ch = session.code(
                functools.partial(SleepInterface, cost_s=30.0),
                channel_type="subprocess",
                channel_options={"stop_timeout": 2.0},
            )
            assert ch.transport_stats["cancel"] is True
            fut = ch.async_call("evolve_model", 30.0)
            time.sleep(0.3)
            assert fut.cancel() is True
            with pytest.raises(CancelledError):
                fut.result(timeout=5)
            # the pilot's worker_loop acked the spliced AMCX frame
            ack = fut.cancel_ack.result(timeout=10)
            assert ack["state"] in ("abandoned", "dequeued")
            ch.stop()

    def test_hung_remote_pilot_cancelled_and_restarted(self, daemon):
        """The acceptance scenario: a hung pilot BEHIND the daemon is
        cancelled via forwarded AMCX and respawned by RESTART, and the
        graph finishes with the replacement pilot — all end to end
        through the relay."""
        with connect(daemon, relay=True) as session:
            code = session.code(SleepCode, cost_s=1.5,
                                channel_type="subprocess",
                                channel_options={"stop_timeout": 3.0})
            assert code.channel.relayed
            restarted = []

            def unhang(node):
                restarted.append(node.name)
                code.parameters.cost_s = 0.01

            graph = TaskGraph()
            graph.add(
                "hung",
                lambda: code.evolve_model.async_(
                    1 | nbody_system.time
                ),
                code=code,
            )
            results = graph.run(
                timeout=0.3, fault_policy=FaultPolicy.RESTART,
                on_restart=unhang,
            )
            assert restarted == ["hung"]
            assert graph["hung"].state == "done"
            assert "hung" in results
            # the replacement pilot went through the splice again
            assert code.channel.relayed
            code.stop()


# -- adaptive micro-batching ---------------------------------------------------


class TestAutobatch:
    def test_async_calls_coalesce_into_one_frame(self):
        channel = SocketChannel(ArrayEchoInterface, autobatch=0.05)
        try:
            before = channel.frames_sent
            futures = [
                channel.async_call("scale", float(i), 2.0)
                for i in range(10)
            ]
            results = [f.result(timeout=10) for f in futures]
            assert results == [i * 2.0 for i in range(10)]
            assert channel.frames_sent - before == 1
        finally:
            channel.stop()

    def test_ordering_preserved_across_flushes(self):
        channel = SocketChannel(
            lambda: SleepInterface(cost_s=0.0), autobatch=0.002
        )
        try:
            channel.call("ensure_state", "RUN")
            futures = [
                channel.async_call("evolve_model", float(i + 1))
                for i in range(20)
            ]
            for f in futures:
                f.result(timeout=10)
            # in-order execution: the final clock is the LAST end time
            assert channel.call("get_model_time") == 20.0
        finally:
            channel.stop()

    def test_sync_call_flushes_queued_asyncs_first(self):
        channel = SocketChannel(
            lambda: SleepInterface(cost_s=0.0), autobatch=60.0
        )
        try:
            channel.call("ensure_state", "RUN")
            queued = channel.async_call("evolve_model", 5.0)
            # program order: the sync call must observe the queued
            # evolve, not overtake it
            assert channel.call("get_model_time") == 5.0
            assert queued.result(timeout=5) == 0
        finally:
            channel.stop()

    def test_window_expiry_flushes_without_waiter(self):
        channel = SocketChannel(ArrayEchoInterface, autobatch=0.01)
        try:
            future = channel.async_call("scale", 6.0, 7.0)
            deadline = time.monotonic() + 5.0
            while not future.done() and time.monotonic() < deadline:
                time.sleep(0.005)
            assert future.done()    # nobody called result()
            assert future.result(timeout=1) == 42.0
        finally:
            channel.stop()

    def test_queued_entry_cancel_before_flush(self):
        channel = SocketChannel(ArrayEchoInterface, autobatch=60.0)
        try:
            before = channel.frames_sent
            future = channel.async_call("scale", 1.0, 1.0)
            assert future.cancel() is True
            with pytest.raises(CancelledError, match="before its frame"):
                future.result(timeout=1)
            assert channel.frames_sent == before    # never hit the wire
        finally:
            channel.stop()

    def test_queue_full_flushes_immediately(self):
        from repro.rpc.channel import _AUTOBATCH_MAX_QUEUE

        channel = SocketChannel(ArrayEchoInterface, autobatch=60.0)
        try:
            futures = [
                channel.async_call("scale", float(i), 1.0)
                for i in range(_AUTOBATCH_MAX_QUEUE)
            ]
            # hitting the cap flushed WITHOUT any blocking waiter
            assert [f.result(timeout=10) for f in futures] == \
                [float(i) for i in range(_AUTOBATCH_MAX_QUEUE)]
        finally:
            channel.stop()

    def test_relay_auto_enables_for_wan_profile_only(self, daemon):
        with connect(daemon, relay=True) as session:
            local = session.code(ArrayEchoInterface,
                                 channel_type="thread")
            assert local._autobatch is None
            remote = session.code(ArrayEchoInterface,
                                  channel_type="thread",
                                  resource="cluster.example.org")
            assert remote._autobatch == "adaptive"
            futures = [
                remote.async_call("scale", float(i), 3.0)
                for i in range(8)
            ]
            assert [f.result(timeout=10) for f in futures] == \
                [i * 3.0 for i in range(8)]
            local.stop()
            remote.stop()

    def test_connection_loss_fails_queued_entries(self):
        channel = SocketChannel(ArrayEchoInterface, autobatch=60.0)
        try:
            future = channel.async_call("scale", 1.0, 1.0)
            # kill the socket before the window expires: the queued
            # entry must fail with the loss error, never hang
            channel._sock.shutdown(socket.SHUT_RDWR)
            with pytest.raises((ConnectionLostError, ProtocolError)):
                future.result(timeout=5)
        finally:
            channel.stop()

    def test_concurrent_producers_keep_program_order(self):
        channel = SocketChannel(ArrayEchoInterface, autobatch=0.001)
        try:
            results = []
            errors = []

            def produce(base):
                try:
                    futs = [
                        channel.async_call("scale", base + i, 1.0)
                        for i in range(25)
                    ]
                    results.extend(f.result(timeout=10) for f in futs)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=produce, args=(100.0 * t,))
                for t in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors
            assert len(results) == 100
        finally:
            channel.stop()
