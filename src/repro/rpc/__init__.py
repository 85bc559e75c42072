"""RPC layer: wire protocol, channels, async requests and futures."""

from .channel import (
    TRANSPORT_STAT_KEYS,
    AsyncRequest,
    Channel,
    DirectChannel,
    SocketChannel,
    merge_transport_stats,
    new_channel,
    register_channel_factory,
    worker_loop,
)
from .futures import (
    AggregateRequestError,
    Future,
    QuantityFuture,
    as_completed,
    remote_method,
    wait_all,
)
from .protocol import (
    PROTOCOL_VERSION,
    CancelledError,
    ConnectionLostError,
    ProtocolError,
    RemoteError,
    encode_frame_v2,
    recv_frame,
    send_frame,
)
from .taskgraph import FaultPolicy, TaskGraph, TaskNode
__all__ = [
    "AggregateRequestError",
    "AsyncRequest",
    "CancelledError",
    "Channel",
    "ConnectionLostError",
    "DirectChannel",
    "FaultPolicy",
    "Future",
    "QuantityFuture",
    "TaskGraph",
    "TaskNode",
    "ShmArena",
    "ShmChannel",
    "SocketChannel",
    "SubprocessChannel",
    "TRANSPORT_STAT_KEYS",
    "as_completed",
    "merge_transport_stats",
    "new_channel",
    "register_channel_factory",
    "remote_method",
    "wait_all",
    "worker_loop",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteError",
    "encode_frame_v2",
    "recv_frame",
    "send_frame",
]


def __getattr__(name):
    # lazy: repro.rpc.subproc is also the worker bootstrap executed as
    # ``python -m repro.rpc.subproc``; importing it from the package
    # __init__ would make runpy warn in every spawned child
    if name == "SubprocessChannel":
        from .subproc import SubprocessChannel
        return SubprocessChannel
    if name in ("ShmChannel", "ShmArena"):
        from . import shm
        return getattr(shm, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
