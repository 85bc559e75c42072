"""RPC layer tests: protocol framing, channels, async requests."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rpc import (
    DirectChannel,
    ProtocolError,
    RemoteError,
    SocketChannel,
    new_channel,
    recv_frame,
    send_frame,
    wait_all,
)
from repro.rpc.channel import AsyncRequest


class _FakeSocket:
    """Minimal in-memory socket for protocol tests."""

    def __init__(self, data=b""):
        self._rx = io.BytesIO(data)
        self.sent = bytearray()

    def sendall(self, data):
        self.sent.extend(data)

    def recv(self, n):
        return self._rx.read(n)


def _frame(message):
    """The bytes :func:`send_frame` puts on the wire for *message*."""
    sock = _FakeSocket()
    send_frame(sock, message)
    return bytes(sock.sent)


class _EchoInterface:
    def __init__(self):
        self.stopped = False

    def echo(self, value):
        return value

    def add(self, a, b=0):
        return a + b

    def boom(self):
        raise ValueError("kapow")

    def array_sum(self, arr):
        return float(np.asarray(arr).sum())

    def stop(self):
        self.stopped = True
        return 0


class TestProtocol:
    def test_frame_round_trip(self):
        message = ("call", 1, "method", (1, 2), {"k": "v"})
        sock = _FakeSocket(_frame(message))
        assert recv_frame(sock) == message

    def test_bad_magic_rejected(self):
        data = b"XXXX" + _frame(("result", 1, None))[4:]
        with pytest.raises(ProtocolError):
            recv_frame(_FakeSocket(data))

    def test_truncated_frame(self):
        data = _frame(("result", 1, None))[:-3]
        with pytest.raises(ProtocolError):
            recv_frame(_FakeSocket(data))

    def test_eof(self):
        with pytest.raises(ProtocolError):
            recv_frame(_FakeSocket(b""))

    def test_large_array_payload(self):
        arr = np.arange(100000, dtype=np.float64)
        message = ("result", 2, arr)
        out = recv_frame(_FakeSocket(_frame(message)))
        assert np.array_equal(out[2], arr)

    @settings(max_examples=30, deadline=None)
    @given(
        st.tuples(
            st.text(max_size=20),
            st.integers(),
            st.lists(st.floats(allow_nan=False), max_size=10),
        )
    )
    def test_arbitrary_picklable_round_trip(self, payload):
        message = ("result", 1, payload)
        assert recv_frame(_FakeSocket(_frame(message))) == message


class TestAsyncRequest:
    def test_completed(self):
        req = AsyncRequest.completed(42)
        assert req.is_result_available()
        assert req.result() == 42

    def test_failed(self):
        req = AsyncRequest.failed(ValueError("x"))
        with pytest.raises(ValueError):
            req.result()

    def test_timeout(self):
        req = AsyncRequest()
        with pytest.raises(TimeoutError):
            req.wait(timeout=0.01)

    def test_wait_all(self):
        reqs = [AsyncRequest.completed(i) for i in range(3)]
        assert wait_all(reqs) == [0, 1, 2]


class TestDirectChannel:
    def test_call(self):
        ch = DirectChannel(_EchoInterface)
        assert ch.call("add", 1, b=2) == 3

    def test_async_call(self):
        ch = DirectChannel(_EchoInterface)
        assert ch.async_call("echo", "hi").result() == "hi"

    def test_async_error(self):
        ch = DirectChannel(_EchoInterface)
        req = ch.async_call("boom")
        with pytest.raises(ValueError):
            req.result()

    def test_stop_calls_interface_stop(self):
        ch = DirectChannel(_EchoInterface)
        iface = ch.interface
        ch.stop()
        assert iface.stopped
        with pytest.raises(ProtocolError):
            ch.call("echo", 1)

    def test_context_manager(self):
        with DirectChannel(_EchoInterface) as ch:
            assert ch.call("echo", 5) == 5


@pytest.mark.network
class TestSocketChannel:
    def test_call_over_tcp(self):
        with SocketChannel(_EchoInterface) as ch:
            assert ch.call("add", 3, b=4) == 7

    def test_numpy_payload(self):
        with SocketChannel(_EchoInterface) as ch:
            assert ch.call("array_sum", np.ones(1000)) == 1000.0

    def test_remote_error_propagates(self):
        with SocketChannel(_EchoInterface) as ch:
            with pytest.raises(RemoteError, match="kapow"):
                ch.call("boom")
            # channel still usable after a remote error
            assert ch.call("echo", 1) == 1

    def test_pipelined_async_calls(self):
        with SocketChannel(_EchoInterface) as ch:
            reqs = [ch.async_call("add", i, b=i) for i in range(20)]
            assert wait_all(reqs) == [2 * i for i in range(20)]

    def test_byte_accounting(self):
        with SocketChannel(_EchoInterface) as ch:
            before = ch.bytes_sent
            ch.call("echo", "x" * 1000)
            assert ch.bytes_sent - before > 1000

    def test_unknown_method_is_remote_error(self):
        with SocketChannel(_EchoInterface) as ch:
            with pytest.raises(RemoteError):
                ch.call("no_such_method")


class TestFactory:
    def test_named_channels(self):
        for name, cls in (
            ("direct", DirectChannel),
            ("mpi", DirectChannel),
            ("sockets", SocketChannel),
        ):
            ch = new_channel(name, _EchoInterface)
            assert isinstance(ch, cls)
            ch.stop()

    def test_unknown_channel_name(self):
        with pytest.raises(ValueError, match="unknown channel"):
            new_channel("carrier-pigeon", _EchoInterface)
