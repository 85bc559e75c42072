"""Wire protocol tests: out-of-band framing, the hello, batching."""

import io
import socket
import threading

import numpy as np
import pytest

import repro.distributed.channel as distributed_channel_mod
from repro.codes.testing import ArrayEchoInterface
from repro.distributed import DistributedChannel, IbisDaemon, connect
from repro.rpc import (
    PROTOCOL_VERSION,
    ProtocolError,
    RemoteError,
    SocketChannel,
    encode_frame_v2,
    new_channel,
    recv_frame,
    send_frame,
    wait_all,
    worker_loop,
)
from repro.rpc import channel as channel_mod
from repro.rpc import protocol as protocol_mod
from repro.rpc.channel import DirectChannel
from repro.rpc.protocol import MAGIC, MAGIC2, decode_payload, encode_payload

pytestmark = pytest.mark.network


class _FakeSocket:
    """In-memory socket with the v2 surface (recv_into, sendmsg)."""

    def __init__(self, data=b""):
        self._rx = io.BytesIO(data)
        self.sent = bytearray()
        self.sendmsg_calls = 0

    def sendall(self, data):
        self.sent.extend(data)

    def sendmsg(self, buffers):
        self.sendmsg_calls += 1
        n = 0
        for buf in buffers:
            self.sent.extend(buf)
            n += len(buf)
        return n

    def recv(self, n):
        return self._rx.read(n)

    def recv_into(self, view):
        data = self._rx.read(len(view))
        view[: len(data)] = data
        return len(data)


def v2_round_trip(message):
    sock = _FakeSocket()
    send_frame(sock, message)
    return recv_frame(_FakeSocket(bytes(sock.sent)))


class _OrderedInterface:
    """Records call order; used by batching/ordering tests."""

    def __init__(self):
        self.log = []

    def note(self, token):
        self.log.append(token)
        return token

    def get_log(self):
        return list(self.log)

    def boom(self):
        raise ValueError("kapow")

    def echo_array(self, arr):
        return np.asarray(arr) * 2.0

    def stop(self):
        return 0


class TestFrameV2:
    def test_round_trip_zero_buffers(self):
        message = ("call", 1, "method", (1, "x"), {"k": [1.5, None]})
        assert v2_round_trip(message) == message

    def test_zero_buffer_frames_use_v1_framing(self):
        sock = _FakeSocket()
        send_frame(sock, ("result", 1, "plain"))
        assert bytes(sock.sent[:4]) == MAGIC

    def test_buffered_frames_use_v2_framing(self):
        sock = _FakeSocket()
        send_frame(sock, ("result", 1, np.arange(16.0)))
        assert bytes(sock.sent[:4]) == MAGIC2
        assert sock.sendmsg_calls == 1

    def test_round_trip_one_buffer(self):
        arr = np.arange(1000, dtype=np.float64)
        out = v2_round_trip(("result", 2, arr))
        assert out[:2] == ("result", 2)
        assert np.array_equal(out[2], arr)

    def test_round_trip_many_buffers(self):
        arrays = [
            np.arange(10, dtype=np.float64),
            np.arange(20, dtype=np.int64) * 3,
            np.ones((4, 5)),
            bytearray(b"raw-bytes-buffer"),
        ]
        out = v2_round_trip(("result", 3, arrays))
        for sent, got in zip(arrays, out[2], strict=True):
            if isinstance(sent, bytearray):
                assert got == sent
            else:
                assert np.array_equal(got, sent)

    def test_received_arrays_are_writable(self):
        arr = np.arange(100, dtype=np.float64)
        out = v2_round_trip(("result", 4, arr))
        out[2][0] = -1.0
        assert out[2][0] == -1.0

    def test_empty_array_buffer(self):
        out = v2_round_trip(("result", 5, np.empty(0)))
        assert out[2].size == 0

    def test_v1_frames_still_decode(self):
        message = ("result", 6, {"v1": True})
        sent = _FakeSocket()
        send_frame(sent, message)
        assert bytes(sent.sent[:4]) == MAGIC
        assert recv_frame(_FakeSocket(bytes(sent.sent))) == message

    def test_frame_parts_share_memory_with_source(self):
        """The send path must not copy the array payload."""
        arr = np.arange(1000, dtype=np.float64)
        parts = encode_frame_v2(("result", 7, arr))
        buffer_part = parts[-1]
        assert memoryview(buffer_part).obj is arr.data.obj or np.shares_memory(
            np.frombuffer(buffer_part, dtype=np.float64), arr
        )

    def test_payload_helpers_round_trip(self):
        obj = {"a": np.arange(8.0), "b": "text"}
        meta, buffers = encode_payload(obj)
        out = decode_payload(meta, buffers)
        assert out["b"] == "text"
        assert np.array_equal(out["a"], obj["a"])


class TestCompressedFrames:
    """AMSC framing: negotiated per-buffer compression (frame level)."""

    def _wire(self, compress_min=1024):
        return protocol_mod.WireState(
            codec=protocol_mod.CODECS_BY_NAME["zlib"],
            compress_min=compress_min,
        )

    def test_compressible_buffer_round_trips_smaller(self):
        wire = self._wire()
        arr = np.zeros(1 << 15, dtype=np.float64)
        sock = _FakeSocket()
        sent = send_frame(sock, ("result", 1, arr), wire)
        assert bytes(sock.sent[:4]) == protocol_mod.MAGIC_COMPRESS
        assert sent < arr.nbytes // 4
        out = recv_frame(_FakeSocket(bytes(sock.sent)))
        assert out[:2] == ("result", 1)
        assert np.array_equal(out[2], arr)

    def test_incompressible_buffer_stored_raw_in_amsc(self):
        wire = self._wire()
        rnd = np.random.default_rng(3).random(1 << 14)
        compressible = np.zeros(1 << 14)
        sock = _FakeSocket()
        send_frame(sock, ("result", 2, [rnd, compressible]), wire)
        out = recv_frame(_FakeSocket(bytes(sock.sent)))
        assert np.array_equal(out[2][0], rnd)
        assert np.array_equal(out[2][1], compressible)

    def test_nothing_compressible_falls_back_to_plain_v2(self):
        wire = self._wire()
        # random BYTES (unlike random floats, whose exponent bytes
        # repeat) gain nothing under any codec
        rnd = np.random.default_rng(4).integers(
            0, 256, 1 << 14, dtype=np.uint8
        )
        sock = _FakeSocket()
        send_frame(sock, ("result", 3, rnd), wire)
        assert bytes(sock.sent[:4]) == MAGIC2

    def test_below_threshold_keeps_plain_v2_framing(self):
        wire = self._wire(compress_min=1 << 20)
        arr = np.zeros(1 << 14)
        sock = _FakeSocket()
        send_frame(sock, ("result", 4, arr), wire)
        assert bytes(sock.sent[:4]) == MAGIC2

    def test_decompressed_arrays_are_writable(self):
        wire = self._wire()
        sock = _FakeSocket()
        send_frame(sock, ("result", 5, np.zeros(1 << 15)), wire)
        out = recv_frame(_FakeSocket(bytes(sock.sent)))
        out[2][0] = 1.5
        assert out[2][0] == 1.5

    def test_unknown_codec_id_rejected(self):
        wire = self._wire()
        arr = np.zeros(1 << 15)
        sock = _FakeSocket()
        send_frame(sock, ("result", 6, arr), wire)
        data = bytearray(sock.sent)
        # codec id sits right after the 8-byte header + 4-byte count
        data[12] = 200
        with pytest.raises(ProtocolError, match="unknown codec"):
            recv_frame(_FakeSocket(bytes(data)))

    def test_shm_frame_without_wire_rejected(self):
        data = protocol_mod.HEADER.pack(
            protocol_mod.MAGIC_SHM, protocol_mod.SHM_HEAD.size
        ) + protocol_mod.SHM_HEAD.pack(0, 0)
        with pytest.raises(ProtocolError, match="shm"):
            recv_frame(_FakeSocket(data))


class TestHelloCapabilities:
    """Mixed-capability hello at the worker_loop level: the ack dict
    mirrors exactly what the worker could honour."""

    def _hello(self, caps):
        client, server = socket.socketpair()
        thread = threading.Thread(
            target=worker_loop, args=(_OrderedInterface(), server),
            daemon=True,
        )
        thread.start()
        send_frame(client, ("hello", 0, PROTOCOL_VERSION, caps))
        reply = recv_frame(client)
        client.close()
        return reply

    def test_codec_offer_is_acked(self):
        reply = self._hello({"compress": ["zlib"]})
        assert reply[0] == "result"
        assert reply[2]["caps"] == {"compress": "zlib"}

    def test_unsupported_codec_offer_is_dropped(self):
        reply = self._hello({"compress": ["middle-out"]})
        assert reply[2]["caps"] == {}

    def test_bad_segment_names_in_shm_offer_are_dropped(self):
        reply = self._hello(
            {"shm": {"c2w": "psm_gone_a", "w2c": "psm_gone_b"}}
        )
        assert reply[2]["caps"] == {}


class TestOversizeRejection:
    def test_encode_rejects_oversize_frame(self, monkeypatch):
        monkeypatch.setattr(protocol_mod, "MAX_FRAME", 1024)
        with pytest.raises(ProtocolError, match="too large"):
            encode_frame_v2(("result", 1, np.zeros(4096)))

    def test_pack_rejects_oversize_frame(self, monkeypatch):
        # bytes pickle in-band: a bufferless (AMSE) frame
        monkeypatch.setattr(protocol_mod, "MAX_FRAME", 1024)
        sock = _FakeSocket()
        with pytest.raises(ProtocolError, match="too large"):
            send_frame(sock, ("result", 1, b"y" * 4096))
        assert not sock.sent

    def test_recv_rejects_oversize_v1_declaration(self):
        data = protocol_mod.HEADER.pack(MAGIC, 2**31 + 5) + b"x"
        with pytest.raises(ProtocolError, match="too large"):
            recv_frame(_FakeSocket(data))

    def test_recv_rejects_oversize_v2_block(self):
        data = protocol_mod.HEADER.pack(MAGIC2, 2**31 + 5)
        with pytest.raises(ProtocolError, match="too large"):
            recv_frame(_FakeSocket(data))

    def test_recv_rejects_oversize_buffer_table(self, monkeypatch):
        arr = np.zeros(512)
        sock = _FakeSocket()
        send_frame(sock, ("result", 1, arr))
        monkeypatch.setattr(protocol_mod, "MAX_FRAME", 1024)
        with pytest.raises(ProtocolError, match="too large"):
            recv_frame(_FakeSocket(bytes(sock.sent)))

    def test_recv_rejects_corrupt_buffer_count(self):
        # block declares more buffer-table entries than the block holds
        block = protocol_mod.BLOCK_COUNT.pack(1 << 20)
        data = protocol_mod.HEADER.pack(MAGIC2, len(block)) + block
        with pytest.raises(ProtocolError, match="buffer"):
            recv_frame(_FakeSocket(data))


class TestNegotiation:
    def test_v2_worker_acks_hello(self):
        client, server = socket.socketpair()
        thread = threading.Thread(
            target=worker_loop, args=(_OrderedInterface(), server),
            daemon=True,
        )
        thread.start()
        send_frame(client, ("hello", 0, PROTOCOL_VERSION, {}))
        reply = recv_frame(client)
        assert reply[0] == "result"
        assert reply[2]["version"] == PROTOCOL_VERSION
        client.close()

    def test_other_version_hello_gets_error_frame_from_worker(self):
        client, server = socket.socketpair()
        thread = threading.Thread(
            target=worker_loop, args=(_OrderedInterface(), server),
            daemon=True,
        )
        thread.start()
        try:
            send_frame(client, ("hello", 0, PROTOCOL_VERSION + 1, {}))
            reply = recv_frame(client)
            assert reply[:3] == ("error", 0, "ProtocolError")
            assert f"version {PROTOCOL_VERSION + 1}" in reply[3]
            assert f"version {PROTOCOL_VERSION}" in reply[3]
        finally:
            client.close()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_other_version_hello_gets_error_frame_from_daemon(self):
        with IbisDaemon() as daemon:
            client = socket.create_connection(daemon.address)
            try:
                send_frame(
                    client, ("hello", 1, PROTOCOL_VERSION + 1, {})
                )
                reply = recv_frame(client)
            finally:
                client.close()
        assert reply[:3] == ("error", 1, "ProtocolError")
        assert f"version {PROTOCOL_VERSION + 1}" in reply[3]
        assert f"version {PROTOCOL_VERSION}" in reply[3]

    @pytest.mark.parametrize("kind", ["sockets", "subprocess"])
    def test_channel_refuses_worker_of_other_version(self, kind,
                                                     monkeypatch):
        # this side speaks the next version; the worker (a thread
        # calling parse_hello, or a child process) speaks this one
        monkeypatch.setattr(
            channel_mod, "PROTOCOL_VERSION", PROTOCOL_VERSION + 1
        )
        with pytest.raises(ProtocolError) as err:
            new_channel(kind, ArrayEchoInterface)
        assert f"version {PROTOCOL_VERSION + 1}" in str(err.value)
        assert f"version {PROTOCOL_VERSION}" in str(err.value)

    def test_daemon_clients_refuse_daemon_of_other_version(
            self, monkeypatch):
        monkeypatch.setattr(
            distributed_channel_mod, "PROTOCOL_VERSION",
            PROTOCOL_VERSION + 1,
        )
        with IbisDaemon() as daemon:
            for construct in (
                lambda: connect(daemon),
                lambda: DistributedChannel(_OrderedInterface,
                                           daemon=daemon),
            ):
                with pytest.raises(ProtocolError) as err:
                    construct()
                assert f"version {PROTOCOL_VERSION + 1}" in \
                    str(err.value)
                assert f"version {PROTOCOL_VERSION}" in str(err.value)

    def test_hello_less_raw_call_is_answered(self):
        client, server = socket.socketpair()
        thread = threading.Thread(
            target=worker_loop, args=(_OrderedInterface(), server),
            daemon=True,
        )
        thread.start()
        try:
            send_frame(client, ("call", 1, "note", ("raw",), {}))
            assert recv_frame(client) == ("result", 1, "raw")
            send_frame(client, ("call", 2, "stop", (), {}))
            assert recv_frame(client) == ("result", 2, 0)
        finally:
            client.close()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_socket_channel_negotiates_v2(self):
        with SocketChannel(_OrderedInterface) as ch:
            assert ch.wire_caps == {"cancel": True}
            out = ch.call("echo_array", np.arange(64.0))
            assert np.array_equal(out, np.arange(64.0) * 2.0)

    def test_distributed_channel_negotiates_v2(self):
        with IbisDaemon() as daemon:
            ch = DistributedChannel(_OrderedInterface, daemon=daemon)
            assert ch.session_id is not None
            arr = np.arange(4096.0)
            assert np.array_equal(ch.echo(arr), arr)
            ch.stop()


class TestBatching:
    def test_batch_over_loopback_preserves_order(self):
        """The pipelined-batch ordering contract, over a real socket."""
        with SocketChannel(_OrderedInterface) as ch:
            with ch.batch():
                requests = [
                    ch.async_call("note", i) for i in range(10)
                ]
            assert wait_all(requests) == list(range(10))
            assert ch.call("get_log") == list(range(10))

    def test_batch_is_one_frame(self):
        with SocketChannel(_OrderedInterface) as ch:
            ch.call("note", "warm")
            before = ch.bytes_sent
            frames_before = ch.bytes_sent
            with ch.batch():
                reqs = [ch.async_call("note", i) for i in range(5)]
            wait_all(reqs)
            # a single mcall frame: far smaller than 5 separate frames
            one_frame = ch.bytes_sent - before
            with ch.batch():
                reqs = [ch.async_call("note", 99)]
            wait_all(reqs)
            single = ch.bytes_sent - frames_before - one_frame
            assert one_frame < 5 * single

    def test_error_inside_batch_fails_only_that_request(self):
        with SocketChannel(_OrderedInterface) as ch:
            with ch.batch():
                ok1 = ch.async_call("note", "a")
                bad = ch.async_call("boom")
                ok2 = ch.async_call("note", "b")
            assert ok1.result() == "a"
            with pytest.raises(RemoteError, match="kapow"):
                bad.result()
            assert ok2.result() == "b"
            # later calls still executed, channel still healthy
            assert ch.call("get_log") == ["a", "b"]

    def test_sync_call_inside_batch_drains_queue_first(self):
        with SocketChannel(_OrderedInterface) as ch:
            with ch.batch():
                ch.async_call("note", "first")
                assert ch.call("note", "second") == "second"
            assert ch.call("get_log") == ["first", "second"]

    def test_batch_on_direct_channel(self):
        ch = DirectChannel(_OrderedInterface)
        with ch.batch():
            reqs = [ch.async_call("note", i) for i in range(3)]
        assert wait_all(reqs) == [0, 1, 2]

    def test_batch_through_daemon(self):
        with IbisDaemon() as daemon:
            ch = DistributedChannel(_OrderedInterface, daemon=daemon)
            with ch.batch():
                reqs = [ch.async_call("note", i) for i in range(6)]
            assert wait_all(reqs) == list(range(6))
            assert ch.call("get_log") == list(range(6))
            ch.stop()

    def test_aborted_batch_fails_waiters(self):
        with SocketChannel(_OrderedInterface) as ch:
            with pytest.raises(RuntimeError, match="abort"):
                with ch.batch():
                    req = ch.async_call("note", 1)
                    raise RuntimeError("abort this batch")
            with pytest.raises(ProtocolError, match="batch aborted"):
                req.result(timeout=1)

    def test_result_inside_batch_block_flushes(self):
        """Waiting on a queued request from inside the block must send
        the frame instead of deadlocking on the unflushed queue."""
        with SocketChannel(_OrderedInterface) as ch:
            with ch.batch():
                req = ch.async_call("note", "early")
                assert req.result(timeout=5) == "early"
        ch2 = DirectChannel(_OrderedInterface)
        with ch2.batch():
            req = ch2.async_call("note", 1)
            assert req.result(timeout=5) == 1

    def test_call_rejected_while_reader_cleanup_runs(self):
        """The pending-table insert re-checks the stopped flag under
        the lock, so a racing call cannot strand itself after loss."""
        with SocketChannel(_OrderedInterface) as ch:
            ch._stopped = True  # as the reader's loss cleanup sets it
            with pytest.raises(ProtocolError, match="stopped"):
                ch._dispatch_call("note", ("x",), {})

    def test_aborted_nested_batch_spares_outer_requests(self):
        """An aborted inner batch fails only its own queued entries;
        the outer block's requests survive and commit normally."""
        with SocketChannel(_OrderedInterface) as ch:
            with ch.batch():
                outer = ch.async_call("note", "outer")
                try:
                    with ch.batch():
                        inner = ch.async_call("note", "inner")
                        raise ValueError("inner abort")
                except ValueError:
                    pass
                with pytest.raises(ProtocolError, match="batch aborted"):
                    inner.result(timeout=1)
            assert outer.result(timeout=5) == "outer"
            assert ch.call("get_log") == ["outer"]

    def test_nested_batches_flush_in_order(self):
        with SocketChannel(_OrderedInterface) as ch:
            with ch.batch():
                outer = ch.async_call("note", "outer-1")
                with ch.batch():
                    inner = ch.async_call("note", "inner")
                # the nested exit drained everything queued so far
                assert outer.result(timeout=5) == "outer-1"
                assert inner.result(timeout=5) == "inner"
            assert ch.call("get_log") == ["outer-1", "inner"]


class TestFailedConnection:
    def test_batch_flush_failure_fails_queued_requests(self):
        """Connection loss between queueing and batch exit must fail
        the queued requests, not strand their waiters."""
        with SocketChannel(_OrderedInterface) as ch:
            with pytest.raises(ProtocolError):
                with ch.batch():
                    req = ch.async_call("note", 1)
                    # as the reader's loss cleanup would set it
                    ch._stopped = True
            with pytest.raises(ProtocolError):
                req.result(timeout=1)
            ch._stopped = False  # let the context-manager stop cleanly

    def test_stop_after_connection_loss_releases_socket(self):
        """stop() must close the socket even when the reader's loss
        cleanup already marked the channel stopped (fd leak)."""
        with IbisDaemon() as daemon:
            ch = DistributedChannel(_OrderedInterface, daemon=daemon)
            ch._sock.shutdown(socket.SHUT_RDWR)
            ch._reader.join(timeout=5)
            assert ch._stopped
            ch.stop()
            assert ch._sock.fileno() == -1

    def test_failed_field_upload_raises(self):
        """A failed source-particle upload must surface, not let the
        field query run against stale particles."""
        from repro.codes.highlevel import Fi
        from repro.units import nbody_system
        from repro.units.core import Quantity
        import numpy as np

        code = Fi(channel_type="sockets")
        eps = Quantity(0.0, nbody_system.length)
        pts = Quantity(np.zeros((2, 3)), nbody_system.length)
        bad_sources = (np.ones(3), "not-an-array-triplet")
        with pytest.raises(RemoteError):
            code.get_gravity_at_point(eps, pts, sources=bad_sources)
        code.stop()

    def test_call_after_connection_loss_raises(self):
        """A call issued after the reader thread died must raise, not
        hang forever (regression: pre-v2 channels hung)."""
        with IbisDaemon() as daemon:
            ch = DistributedChannel(_OrderedInterface, daemon=daemon)
            ch._sock.shutdown(socket.SHUT_RDWR)
            ch._reader.join(timeout=5)
            assert not ch._reader.is_alive()
            with pytest.raises((ProtocolError, OSError)):
                ch.call("note", "x")

    def test_pending_requests_fail_on_connection_loss(self):
        with IbisDaemon() as daemon:
            ch = DistributedChannel(_OrderedInterface, daemon=daemon)
            # park a pending request that will never be answered
            from repro.rpc.channel import AsyncRequest

            stuck = AsyncRequest()
            with ch._pending_lock:
                ch._pending[999_999] = stuck
            ch._sock.shutdown(socket.SHUT_RDWR)
            ch._reader.join(timeout=5)
            with pytest.raises(ProtocolError, match="connection lost"):
                stuck.result(timeout=5)
