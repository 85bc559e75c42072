"""Worker channels: the RPC transports between coupler and model codes.

AMUSE supports several interchangeable channels (paper Sec. 4.1): "The
default channel uses MPI ...  however, a channel based on sockets is also
available.  For this paper, we added an Ibis channel."  The reproduction
keeps the same shape:

* :class:`DirectChannel` — in-process dispatch, the stand-in for the MPI
  channel's local fast path (name "mpi" is accepted as an alias).
* :class:`SocketChannel` — a REAL loopback TCP connection to a worker
  thread running :func:`worker_loop`; supports pipelined asynchronous
  calls.  This is the channel the paper's ">8 Gbit/s" loopback claim is
  measured on.
* :class:`~repro.rpc.subproc.SubprocessChannel` — a TRUE off-process
  worker: a spawned child process running :func:`worker_loop` over the
  same negotiated wire protocol, registered here under "subprocess".
  This is the channel that lifts the GIL bound on concurrent
  multi-model execution.
* the shm channel (:mod:`repro.rpc.shm`, registered under "shm") —
  same-host workers (thread or subprocess) whose array payloads travel
  through ``multiprocessing.shared_memory`` segments; only a small
  control frame touches the socket.
* the Ibis/Distributed channel lives in :mod:`repro.distributed` (it
  needs the daemon) and registers itself here under "ibis" /
  "distributed" via :func:`register_channel_factory`.

Every channel implements ``call`` (synchronous), ``async_call``
(returns an :class:`AsyncRequest`), ``batch`` (coalesce queued async
calls into one multi-call frame) and ``stop``.

Socket-backed channels open every connection with the hello capability
handshake (:func:`~repro.rpc.protocol.parse_hello`); a peer speaking
another protocol version refuses it and the constructor raises
:class:`~repro.rpc.protocol.ProtocolError` naming both versions.
"""

from __future__ import annotations

import collections
import inspect
import itertools
import os
import socket
import threading
import time
import traceback
import warnings

from .protocol import (
    PROTOCOL_VERSION,
    CancelledError,
    ConnectionLostError,
    ProtocolError,
    RemoteError,
    WireState,
    accept_capabilities,
    parse_hello,
    recv_frame,
    resolve_compress_offer,
    send_cancel_frame,
    send_frame,
)

__all__ = [
    "AsyncRequest",
    "Channel",
    "DirectChannel",
    "SocketChannel",
    "TRANSPORT_STAT_KEYS",
    "merge_transport_stats",
    "new_channel",
    "register_channel_factory",
    "worker_loop",
]


class AsyncRequest:
    """Future-like handle for an asynchronous channel call.

    Mirrors AMUSE's async request objects: ``result()`` blocks,
    ``is_result_available()`` polls, ``wait()`` blocks without
    returning.  Completion callbacks (``add_done_callback``) fire on
    the resolving thread — usually a channel's reader thread — so they
    must not block; the rich :class:`~repro.rpc.futures.Future` layer
    builds its lazy, caller-thread transforms on top of this hook.
    """

    def __init__(self):
        self._event = threading.Event()
        self._value = None
        self._error = None
        self._callbacks = []
        self._callback_lock = threading.Lock()
        # wired by stream channels: withdraws the in-flight wire call
        self._canceller = None
        #: worker acknowledgement of a sent AMCX frame (set by cancel)
        self.cancel_ack = None

    def _resolve(self, value=None, error=None):
        self._value = value
        self._error = error
        self._event.set()
        with self._callback_lock:
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            # a raising callback must not kill the resolving thread
            # (usually a channel reader — its death would strand every
            # later request) nor starve the remaining callbacks
            try:
                fn(self)
            except Exception:  # noqa: BLE001 - user callback, reported
                traceback.print_exc()

    def is_result_available(self):
        return self._event.is_set()

    def done(self):
        return self._event.is_set()

    def add_done_callback(self, fn):
        """Call ``fn(self)`` when resolved (immediately if already done)."""
        with self._callback_lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def wait(self, timeout=None):
        if not self._event.wait(timeout):
            raise TimeoutError("async request did not complete in time")

    def cancel(self):
        """Withdraw the in-flight call if its reply has not arrived.

        Returns True when the call was removed from the channel's
        pending table — the request then resolves with
        :class:`~repro.rpc.protocol.CancelledError` and, on a
        connection that negotiated the cancel capability, an AMCX
        frame asks the worker to drop/abandon the call (the ack lands
        on :attr:`cancel_ack`).  Returns False when the reply already
        arrived (join it instead) or the request is not cancellable
        (completed-at-birth requests, calls queued inside a batch
        frame).
        """
        canceller = self._canceller
        if canceller is None or self._event.is_set():
            return False
        return canceller()

    def result(self, timeout=None):
        self.wait(timeout)
        if self._error is not None:
            raise self._error
        return self._value

    @staticmethod
    def completed(value):
        req = AsyncRequest()
        req._resolve(value)
        return req

    @staticmethod
    def failed(error):
        req = AsyncRequest()
        req._resolve(error=error)
        return req


def resolve_multi(requests, results):
    """Resolve batched *requests* from an mresult entry list."""
    for req, res in zip(requests, results, strict=False):
        if res[0] == "ok":
            req._resolve(res[1])
        else:
            req._resolve(error=RemoteError(res[1], res[2], res[3]))


class _BatchedRequest(AsyncRequest):
    """A request queued inside an open ``batch()`` block.

    Waiting on it first flushes the owning channel's queue, so
    ``result()`` called before the block exits sends the frame instead
    of deadlocking on a response that was never requested.
    (``is_result_available()`` stays a pure poll.)
    """

    def __init__(self, channel):
        super().__init__()
        self._channel = channel

    def wait(self, timeout=None):
        if not self._event.is_set() and self._channel._batch_entries:
            self._channel._drain_batch()
        super().wait(timeout)

    def cancel(self):
        """A call still queued in the batch is simply withdrawn before
        the frame is built; once flushed it travels inside one mcall
        frame and can no longer be cancelled individually."""
        entries = self._channel._batch_entries
        for index, (_m, _a, _k, request) in enumerate(entries):
            if request is self:
                del entries[index]
                self._resolve(error=CancelledError(
                    "batched call cancelled before the batch flushed"
                ))
                return True
        return super().cancel()


def fail_all(requests, error):
    """Fail a pending entry — a single request or a batched list."""
    if isinstance(requests, list):
        for req in requests:
            req._resolve(error=error)
    else:
        requests._resolve(error=error)


class _BatchContext:
    """Context manager queueing async calls for one multi-call frame.

    Entered via :meth:`Channel.batch`.  Nesting is allowed: every exit
    flushes *all* queued entries (so results become available in
    program order); the common case is one frame per ``with`` block.
    """

    def __init__(self, channel):
        self._channel = channel
        self._start = 0

    def __enter__(self):
        self._channel._batch_depth += 1
        self._start = len(self._channel._batch_entries)
        return self

    def __exit__(self, exc_type, exc, tb):
        channel = self._channel
        channel._batch_depth -= 1
        if exc_type is None:
            channel._drain_batch()
        else:
            # fail only the entries THIS block queued — an aborted
            # nested batch must not take the outer block's requests
            # down with it — but don't leave any waiter hanging
            aborted = channel._batch_entries[self._start:]
            del channel._batch_entries[self._start:]
            for _method, _args, _kwargs, req in aborted:
                req._resolve(error=ProtocolError(
                    f"batch aborted by {exc_type.__name__}"
                ))
        return False


#: the canonical :attr:`Channel.transport_stats` keys — every channel
#: type (direct/sockets/subprocess/shm/distributed) reports exactly this
#: set, with zeros/None where a transport feature does not apply, so
#: monitoring and the session accounting can aggregate without
#: per-channel special cases
TRANSPORT_STAT_KEYS = (
    "channel",
    "codec",
    "shm",
    "cancel",
    "bytes_sent",
    "bytes_received",
    "frames_sent",
    "frames_received",
    "raw_buffer_bytes",
    "wire_buffer_bytes",
    "compressed_bytes",
    "shm_buffer_bytes",
)


def merge_transport_stats(stats_iterable):
    """Sum several channels' :attr:`~Channel.transport_stats` dicts into
    one aggregate (numeric keys add; descriptive keys collect the set of
    distinct values).  The session accounting surface."""
    totals = {key: 0 for key in TRANSPORT_STAT_KEYS
              if key not in ("channel", "codec", "shm", "cancel")}
    channels = []
    codecs = set()
    shm = cancel = False
    count = 0
    for stats in stats_iterable:
        count += 1
        channels.append(stats.get("channel"))
        if stats.get("codec"):
            codecs.add(stats["codec"])
        shm = shm or bool(stats.get("shm"))
        cancel = cancel or bool(stats.get("cancel"))
        for key in totals:
            totals[key] += int(stats.get(key) or 0)
    totals.update(
        channels=channels, codecs=sorted(codecs), shm=shm,
        cancel=cancel, channel_count=count,
    )
    return totals


class Channel:
    """Abstract worker channel."""

    #: label used by monitoring and the jungle cost model
    kind = "abstract"

    def __init__(self):
        self._batch_depth = 0
        self._batch_entries = []

    @property
    def transport_stats(self):
        """Uniform transport summary: the same keys on EVERY channel
        type (:data:`TRANSPORT_STAT_KEYS`), zeros where inapplicable.
        Stream channels override the values, never the shape."""
        return {
            "channel": self.kind,
            "codec": None,
            "shm": False,
            "cancel": False,
            "bytes_sent": getattr(self, "bytes_sent", 0),
            "bytes_received": getattr(self, "bytes_received", 0),
            "frames_sent": 0,
            "frames_received": 0,
            "raw_buffer_bytes": 0,
            "wire_buffer_bytes": 0,
            "compressed_bytes": 0,
            "shm_buffer_bytes": 0,
        }

    def call(self, method, *args, **kwargs):
        raise NotImplementedError

    def async_call(self, method, *args, **kwargs):
        raise NotImplementedError

    def stop(self):
        raise NotImplementedError

    # -- request batching --------------------------------------------------

    def batch(self):
        """Coalesce ``async_call``s inside the block into one frame::

            with channel.batch():
                m = channel.async_call("get_mass", ids)
                p = channel.async_call("get_position", ids)
            masses, positions = m.result(), p.result()

        One multi-call frame crosses the wire per batch; the worker
        executes the calls in order and answers with one multi-result
        frame.  A ``call()`` inside the block first drains the queue so
        program order is preserved.
        """
        return _BatchContext(self)

    def _queue_batched(self, method, args, kwargs):
        """If batching is active, queue the call; else return None."""
        if self._batch_depth:
            req = _BatchedRequest(self)
            self._batch_entries.append((method, args, kwargs, req))
            return req
        return None

    def _drain_batch(self):
        entries = self._batch_entries
        if not entries:
            return
        self._batch_entries = []
        try:
            self._send_batch(entries)
        except BaseException as exc:
            # never strand waiters: a failed flush (connection loss
            # between queueing and exit) must fail every queued request
            failure = exc if isinstance(exc, Exception) else \
                ProtocolError(f"batch flush failed: {exc!r}")
            for _method, _args, _kwargs, req in entries:
                if not req.is_result_available():
                    req._resolve(error=failure)
            raise

    def _send_batch(self, entries):
        """Dispatch queued batch entries.  Base implementation executes
        them one by one (channels with a wire override this to send a
        single mcall frame)."""
        for method, args, kwargs, req in entries:
            try:
                req._resolve(self.call(method, *args, **kwargs))
            except Exception as exc:  # noqa: BLE001 - forwarded to waiter
                req._resolve(error=exc)

    # context-manager convenience
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False


class DirectChannel(Channel):
    """In-process dispatch to an interface instance (MPI-local stand-in).

    The cheapest channel: no serialisation, no copies.  Used by default
    for tests and by the jungle runner (which charges modeled time
    around the real call).
    """

    kind = "direct"

    def __init__(self, interface_factory):
        super().__init__()
        self.interface = interface_factory()
        self._stopped = False
        #: bytes counters kept for parity with the socket channel
        self.bytes_sent = 0
        self.bytes_received = 0

    def call(self, method, *args, **kwargs):
        if self._stopped:
            raise ProtocolError("channel is stopped")
        if self._batch_depth:
            self._drain_batch()
        return getattr(self.interface, method)(*args, **kwargs)

    def async_call(self, method, *args, **kwargs):
        queued = self._queue_batched(method, args, kwargs)
        if queued is not None:
            return queued
        try:
            return AsyncRequest.completed(
                self.call(method, *args, **kwargs)
            )
        except Exception as exc:  # noqa: BLE001 - forwarded to caller
            return AsyncRequest.failed(exc)

    def stop(self):
        if not self._stopped and hasattr(self.interface, "stop"):
            self.interface.stop()
        self._stopped = True


#: autobatch: flush once this many calls are queued regardless of age
_AUTOBATCH_MAX_QUEUE = 32
#: autobatch adaptive-window clamp (seconds)
_AUTOBATCH_MIN_WINDOW_S = 100e-6
_AUTOBATCH_MAX_WINDOW_S = 5e-3
#: EWMA gain for the round-trip estimate driving the adaptive window
_AUTOBATCH_RTT_GAIN = 0.2


class _AutoBatchedRequest(AsyncRequest):
    """A request parked in the channel's autobatch queue.

    Like :class:`_BatchedRequest`, waiting on it flushes the queue
    first — a caller joining a coalesced call must never deadlock on a
    frame the flusher has not sent yet."""

    def __init__(self, channel):
        super().__init__()
        self._channel = channel

    def wait(self, timeout=None):
        if not self._event.is_set():
            self._channel._flush_autobatch()
        super().wait(timeout)

    def cancel(self):
        """Still queued: withdrawn locally before any frame is built.
        Already flushed: falls through to the normal wire cancel."""
        channel = self._channel
        with channel._auto_lock:
            entries = channel._auto_entries
            for index, (_m, _a, _k, request) in enumerate(entries):
                if request is self:
                    del entries[index]
                    break
            else:
                request = None
        if request is not None:
            self._resolve(error=CancelledError(
                "autobatched call cancelled before its frame was sent"
            ))
            return True
        return super().cancel()


class StreamChannel(Channel):
    """Shared machinery for channels speaking frames over a stream
    socket: pending-request table matched by call id in a reader
    thread, negotiated wire capabilities, locked frame sends, and mcall
    batch dispatch.  Subclasses provide the socket, the negotiation,
    and the frame shapes (:meth:`_call_message` /
    :meth:`_mcall_message`).
    """

    #: reported when the peer vanishes (subclasses override the wording)
    _lost_message = "connection lost"

    def __init__(self):
        super().__init__()
        self._ids = itertools.count(1)
        self._pending = {}
        self._pending_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._stopped = False
        self._closed = False
        self._stop_timeout = 10.0  # subclasses may override
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self._sock = None          # set by the subclass __init__
        self._wire = WireState()   # upgraded after the hello handshake
        self.wire_caps = {}        # the peer's capability ack
        self._shm_arenas = None    # (tx, rx) pair this channel created
        self._compress_min = None  # local overrides applied post-hello
        self._shm_min = None
        #: set from a relay's "relay_lost" frame: how the relayed peer
        #: died (exit code, stderr tail) — enriches the loss error
        self._peer_death = None
        # -- adaptive micro-batching (Nagle for RPC) --
        self._autobatch = None     # None (off) | "adaptive" | seconds
        self._auto_lock = threading.Lock()
        self._auto_flush_lock = threading.Lock()
        self._auto_entries = []
        self._auto_first_at = 0.0
        self._auto_wake = threading.Event()
        self._auto_thread = None
        self._rtt_ewma = None

    # -- frame shapes (subclass hooks) -------------------------------------

    def _call_message(self, call_id, method, args, kwargs):
        return ("call", call_id, method, args, kwargs)

    def _mcall_message(self, call_id, calls):
        return ("mcall", call_id, calls)

    # -- plumbing ----------------------------------------------------------

    def _register_pending(self, entry):
        """Allocate a call id and insert *entry* under the lock.

        The stopped flag is re-checked inside the lock: the reader
        thread's loss cleanup also runs under it, so a request can
        never slip into the table after the cleanup drained it (which
        would strand the caller forever).
        """
        call_id = next(self._ids)
        with self._pending_lock:
            if self._stopped:
                raise ProtocolError("channel is stopped")
            self._pending[call_id] = entry
        return call_id

    def _send_frame_locked(self, message):
        with self._send_lock:
            self.bytes_sent += send_frame(self._sock, message, self._wire)
            self.frames_sent += 1

    def _dispatch_call(self, method, args, kwargs):
        request = AsyncRequest()
        call_id = self._register_pending(request)
        request._canceller = \
            lambda: self._cancel_call(call_id, request)
        self._send_frame_locked(
            self._call_message(call_id, method, args, kwargs)
        )
        return request

    def _cancel_call(self, call_id, request):
        """Client half of cancellation: atomically remove the call from
        the pending table (losing the race against a completing reply
        returns False — the reply wins), resolve the request with
        :class:`CancelledError`, and — when the peer negotiated the
        cancel capability — send the AMCX frame so the worker drops or
        abandons the call instead of computing a reply nobody reads.
        The ack is exposed on ``request.cancel_ack``; a channel that
        died in the meantime degrades to the client-side abandon
        already performed.
        """
        with self._pending_lock:
            if self._pending.get(call_id) is not request:
                return False    # reply arrived first (or already gone)
            del self._pending[call_id]
        request._resolve(error=CancelledError(
            f"call {call_id} on {self._describe()} was cancelled"
        ))
        if self._wire.cancel and not self._stopped:
            ack = AsyncRequest()
            try:
                ack_id = self._register_pending(ack)
                with self._send_lock:
                    self.bytes_sent += send_cancel_frame(
                        self._sock, ack_id, call_id
                    )
                    self.frames_sent += 1
            except (ProtocolError, OSError):
                pass            # peer is gone; local abandon suffices
            else:
                request.cancel_ack = ack
        return True

    def _connection_lost_error(self):
        """Build the error delivered to every stranded request when the
        peer vanishes.  Subclasses enrich it (the subprocess channel
        reaps the child and attaches its exit code and stderr tail);
        a relay's death report (``relay_lost`` frame) is folded in here
        so a pilot SIGKILLed behind the daemon reads like a local
        subprocess crash."""
        death = self._peer_death
        if death:
            message = death.get("message") or self._lost_message
            returncode = death.get("returncode")
            stderr_tail = death.get("stderr_tail") or ""
            if returncode is not None:
                message = f"{message} (exit code {returncode})"
            if stderr_tail:
                message = (
                    f"{message}; worker stderr tail:\n{stderr_tail}"
                )
            return ConnectionLostError(
                message, returncode=returncode, stderr_tail=stderr_tail
            )
        return ConnectionLostError(self._lost_message)

    def _read_responses(self):
        try:
            while True:
                message = recv_frame(self._sock, self._wire)
                kind, call_id, *rest = message
                if kind == "relay_lost":
                    # the relay's obituary for the spliced peer; the
                    # relay closes the connection right after, so the
                    # loss cleanup below picks this up
                    self._peer_death = rest[0] if rest else {}
                    continue
                with self._pending_lock:
                    request = self._pending.pop(call_id, None)
                if request is None:
                    continue
                if kind == "mresult":
                    resolve_multi(request, rest[0])
                elif kind == "result":
                    request._resolve(rest[0])
                else:
                    exc_class, msg, tb = rest
                    fail_all(request, RemoteError(exc_class, msg, tb))
        except (ProtocolError, OSError):
            failure = self._connection_lost_error()
            # the peer is gone: remove the segment names NOW so a
            # crashed peer cannot leak /dev/shm entries (the mappings
            # stay valid for stragglers; stop() unmaps)
            self._release_shm(close=False)
            with self._pending_lock:
                pending = list(self._pending.values())
                self._pending.clear()
                # calls issued after connection loss must raise, not hang
                self._stopped = True
            for request in pending:
                fail_all(request, failure)
            # autobatched calls never sent must fail too, not hang
            with self._auto_lock:
                queued = [req for *_call, req in self._auto_entries]
                self._auto_entries = []
            for request in queued:
                request._resolve(error=failure)
            self._auto_wake.set()   # let the flusher thread exit

    # -- capability negotiation --------------------------------------------

    def _offer_capabilities(self, compress=None, compress_min=None,
                            shm_segment_size=None, shm_min=None):
        """Build the hello capability dict (and create the shm segment
        pair it names).

        Cancellation is always offered: it costs nothing on the wire,
        and a peer that cannot honour it (the daemon's decoded path)
        simply leaves it out of the ack, downgrading ``Future.cancel()``
        to client-side abandon.
        """
        caps = {"cancel": True}
        offer = resolve_compress_offer(compress)
        if offer:
            caps["compress"] = offer
            if compress_min is not None:
                caps["compress_min"] = int(compress_min)
        if shm_segment_size:
            from .shm import ShmArena  # lazy: shm.py imports channel.py

            tx = ShmArena(shm_segment_size)
            try:
                rx = ShmArena(shm_segment_size)
            except BaseException:
                tx.unlink()
                tx.close()
                raise
            self._shm_arenas = (tx, rx)
            shm_caps = {
                "c2w": tx.name, "w2c": rx.name, "pid": os.getpid(),
            }
            if shm_min is not None:
                shm_caps["shm_min"] = int(shm_min)
            caps["shm"] = shm_caps
        return caps

    def _apply_negotiated_caps(self):
        """Configure the wire from the peer's capability ack; anything
        the peer did not ack is torn down (shm segments released)."""
        caps = self.wire_caps
        self._wire.cancel = bool(caps.get("cancel"))
        codec_name = caps.get("compress")
        if codec_name:
            from .protocol import CODECS_BY_NAME

            codec = CODECS_BY_NAME.get(codec_name)
            if codec is None:
                raise ProtocolError(
                    f"peer accepted codec {codec_name!r} this side "
                    "cannot load"
                )
            self._wire.codec = codec
            if self._compress_min is not None:
                self._wire.compress_min = int(self._compress_min)
        if self._shm_arenas is not None:
            if caps.get("shm"):
                self._wire.tx_arena, self._wire.rx_arena = \
                    self._shm_arenas
                if self._shm_min is not None:
                    self._wire.shm_min = int(self._shm_min)
            else:
                # peer cannot attach the segments: plain socket path
                self._release_shm()

    def _release_shm(self, close=True):
        """Unlink (and optionally unmap) the channel-owned segment
        pair; idempotent, safe on channels that never offered shm."""
        arenas = self._shm_arenas or ()
        for arena in arenas:
            arena.unlink()
            if close:
                arena.close()
        if close:
            self._shm_arenas = None
            self._wire.tx_arena = None
            self._wire.rx_arena = None

    @property
    def transport_stats(self):
        """Negotiated-transport summary (bench/monitoring surface);
        same keys as every other channel type."""
        wire = self._wire
        return {
            "channel": self.kind,
            "codec": wire.codec.name if wire.codec else None,
            "shm": wire.shm_active,
            "cancel": wire.cancel,
            "bytes_sent": self.bytes_sent,
            "bytes_received": wire.bytes_received,
            "frames_sent": self.frames_sent,
            "frames_received": wire.frames_received,
            "raw_buffer_bytes": wire.raw_buffer_bytes,
            "wire_buffer_bytes": wire.wire_buffer_bytes,
            "compressed_bytes": wire.compressed_bytes,
            "shm_buffer_bytes": wire.shm_buffer_bytes,
        }

    def _negotiate_hello(self, capabilities):
        """Hello handshake against a :func:`worker_loop` peer, run
        before the reader thread starts: offer *capabilities*, then
        configure the wire from the ack."""
        self.bytes_sent += send_frame(
            self._sock, ("hello", 0, PROTOCOL_VERSION, capabilities)
        )
        self.frames_sent += 1
        reply = recv_frame(self._sock, self._wire)
        if reply[0] != "result":
            raise self._hello_refused(reply[3])
        self.wire_caps = reply[2]["caps"]
        self._apply_negotiated_caps()

    def _hello_refused(self, reason):
        """The error for a hello the peer answered with an error frame
        (a protocol version mismatch names both versions)."""
        return ProtocolError(
            f"{self._describe()} refused the hello: {reason}"
        )

    def _describe(self):
        return f"{self.kind} channel"

    def _begin_stop(self, warn_on_noack=False):
        """Shared first half of ``stop()``: dispatch the remote stop
        (once) and close the socket (once).

        ``_stopped`` may already be set by the reader's loss cleanup —
        the socket still needs releasing in that case.  Returns False
        when the socket-close path already ran, making REPEATED
        ``stop()`` calls an idempotent no-op; subclasses then release
        their transport (join the worker thread, reap the child).
        """
        if not self._stopped:
            try:
                if self._autobatch is not None:
                    self._flush_autobatch()
                self._dispatch_call("stop", (), {}).result(
                    timeout=self._stop_timeout
                )
            except (ProtocolError, RemoteError, TimeoutError,
                    OSError) as exc:
                # OSError: the peer died and the reader's loss cleanup
                # has not marked _stopped yet — the dispatch hit the
                # dead socket directly; same no-ack outcome
                if warn_on_noack:
                    warnings.warn(
                        f"{self._describe()}: worker did not "
                        "acknowledge stop "
                        f"({type(exc).__name__}: {exc})",
                        RuntimeWarning, stacklevel=3,
                    )
            self._stopped = True
        self._auto_wake.set()   # release the autobatch flusher thread
        if self._closed:
            return False
        self._closed = True
        try:
            if self._sock is not None:
                self._sock.close()
        except OSError:
            pass
        return True

    # -- adaptive micro-batching (Nagle for RPC) -----------------------------

    def _enable_autobatch(self, window=True):
        """Turn on Nagle-style coalescing of ``async_call``s.

        Calls are parked briefly instead of hitting the socket one
        frame each; a flusher thread sends the queue as a single mcall
        frame when it fills (:data:`_AUTOBATCH_MAX_QUEUE`), when the
        oldest entry outlives the window, or the moment any caller
        blocks on a result.  ``window=True`` adapts the window to a
        fraction of the measured round-trip time — long-haul (daemon
        WAN) links coalesce aggressively, loopback stays latency-bound
        — while a float pins it.
        """
        if self._autobatch is not None:
            return
        self._autobatch = "adaptive" if window is True else float(window)
        self._auto_thread = threading.Thread(
            target=self._autobatch_flusher,
            name=f"{self.kind}-autobatch", daemon=True,
        )
        self._auto_thread.start()

    def _autobatch_window_s(self):
        window = self._autobatch
        if window != "adaptive":
            return float(window)
        rtt = self._rtt_ewma
        if rtt is None:
            return _AUTOBATCH_MIN_WINDOW_S
        return min(
            max(rtt / 8.0, _AUTOBATCH_MIN_WINDOW_S),
            _AUTOBATCH_MAX_WINDOW_S,
        )

    def _queue_autobatch(self, method, args, kwargs):
        request = _AutoBatchedRequest(self)
        with self._auto_lock:
            if not self._auto_entries:
                self._auto_first_at = time.monotonic()
            self._auto_entries.append((method, args, kwargs, request))
            full = len(self._auto_entries) >= _AUTOBATCH_MAX_QUEUE
        if full:
            self._flush_autobatch()
        else:
            self._auto_wake.set()
        return request

    def _flush_autobatch(self):
        """Send everything parked in the autobatch queue, preserving
        program order.  The flush lock serialises concurrent flushers
        (the window thread racing a blocking ``result()``) so batches
        reach the wire in queue order."""
        with self._auto_flush_lock:
            with self._auto_lock:
                entries, self._auto_entries = self._auto_entries, []
            if not entries:
                return
            sent_at = time.monotonic()
            requests = [req for *_call, req in entries]
            try:
                if len(entries) == 1:
                    method, args, kwargs, request = entries[0]
                    call_id = self._register_pending(request)
                    request._canceller = \
                        lambda: self._cancel_call(call_id, request)
                    self._send_frame_locked(
                        self._call_message(call_id, method, args, kwargs)
                    )
                else:
                    call_id = self._register_pending(requests)
                    self._send_frame_locked(self._mcall_message(
                        call_id,
                        [(m, a, k) for m, a, k, _req in entries],
                    ))
            except BaseException as exc:
                if isinstance(exc, OSError):
                    # the send was deferred, so the caller never sees
                    # the raw socket error — deliver the same loss
                    # error the reader thread gives stranded pendings
                    failure = self._connection_lost_error()
                elif isinstance(exc, Exception):
                    failure = exc
                else:
                    failure = ProtocolError(
                        f"autobatch flush failed: {exc!r}"
                    )
                for request in requests:
                    if not request.is_result_available():
                        request._resolve(error=failure)
                return
            requests[-1].add_done_callback(
                lambda _req: self._note_rtt(sent_at)
            )

    def _note_rtt(self, sent_at):
        rtt = time.monotonic() - sent_at
        previous = self._rtt_ewma
        self._rtt_ewma = rtt if previous is None else (
            (1.0 - _AUTOBATCH_RTT_GAIN) * previous
            + _AUTOBATCH_RTT_GAIN * rtt
        )

    def _autobatch_flusher(self):
        while True:
            self._auto_wake.wait()
            self._auto_wake.clear()
            if self._stopped:
                return
            while True:
                with self._auto_lock:
                    if not self._auto_entries:
                        break
                    deadline = (
                        self._auto_first_at + self._autobatch_window_s()
                    )
                delay = deadline - time.monotonic()
                if delay > 0:
                    time.sleep(min(delay, _AUTOBATCH_MAX_WINDOW_S))
                    if self._stopped:
                        return
                    continue
                self._flush_autobatch()

    def _send_batch(self, entries):
        if self._autobatch is not None:
            # queued micro-batch entries predate this explicit batch:
            # flush them first so calls reach the worker in order
            self._flush_autobatch()
        requests = [req for _m, _a, _k, req in entries]
        call_id = self._register_pending(requests)
        self._send_frame_locked(
            self._mcall_message(
                call_id, [(m, a, k) for m, a, k, _req in entries]
            )
        )

    # -- Channel API -------------------------------------------------------

    def call(self, method, *args, **kwargs):
        if self._stopped:
            raise ProtocolError("channel is stopped")
        if self._batch_depth:
            self._drain_batch()
        if self._autobatch is not None:
            # a blocking call must not overtake parked async calls
            self._flush_autobatch()
        return self._dispatch_call(method, args, kwargs).result()

    def async_call(self, method, *args, **kwargs):
        if self._stopped:
            raise ProtocolError("channel is stopped")
        queued = self._queue_batched(method, args, kwargs)
        if queued is not None:
            return queued
        if self._autobatch is not None:
            return self._queue_autobatch(method, args, kwargs)
        return self._dispatch_call(method, args, kwargs)


def call_entry(fn):
    """Run the thunk *fn* and shape the outcome as an mresult entry —
    ``("ok", value)`` or ``("error", cls, msg, tb)`` — the wire shape
    consumed by :func:`resolve_multi`.  Shared by :func:`worker_loop`
    and the daemon so the entry format is defined once.
    """
    try:
        return ("ok", fn())
    except BaseException as exc:  # noqa: BLE001 - sent to peer
        return ("error", type(exc).__name__, str(exc),
                traceback.format_exc())


def _run_one(interface, method, args, kwargs):
    """Execute one interface call; returns an mresult entry tuple."""
    return call_entry(lambda: getattr(interface, method)(*args, **kwargs))


def _execute_message(interface, kind, call_id, rest):
    """Execute one call/mcall; returns ``(reply_message, is_stop)``."""
    if kind == "mcall":
        calls = rest[0]
        results = [
            _run_one(interface, method, args, kwargs)
            for method, args, kwargs in calls
        ]
        return (
            ("mresult", call_id, results),
            any(method == "stop" for method, _a, _k in calls),
        )
    method, args, kwargs = rest
    status = _run_one(interface, method, args, kwargs)
    if status[0] == "ok":
        return ("result", call_id, status[1]), method == "stop"
    return ("error", call_id) + status[1:], method == "stop"


#: bounded wait for the runner thread when a worker winds down — a call
#: wedged past this is left to its daemon thread (the channel side
#: escalates: warn for thread workers, kill for children)
_RUNNER_JOIN_S = 5.0


def worker_loop(interface, conn):
    """Serve RPC requests for *interface* until "stop" or disconnect.

    This is the AMUSE worker main loop: the remote side of every
    channel.  Runs in a worker thread (SocketChannel), a spawned child
    process (SubprocessChannel, shm subprocess mode) or behind the
    daemon's relay splice.  Understands the hello capability handshake
    (codec offer, shm segment names, cancellation — a hello naming
    another protocol version is answered with an error frame), plain
    calls, multi-call batches and AMCX cancel frames; a peer that never
    says hello is served on the plain socket path.

    A single-threaded loop busy inside a long ``evolve_model`` could
    never see a cancel frame, so the worker is split in two: calls
    execute in order on a dedicated *runner* thread while THIS thread
    keeps reading frames.  An AMCX frame is therefore acknowledged
    promptly — the target call is dequeued if it has not started, or
    marked abandoned if it is running (its eventual reply is discarded;
    Python cannot interrupt it, which is exactly why the RESTART fault
    policy exists for truly hung workers).
    """
    wire = WireState()
    send_lock = threading.Lock()

    def reply(message):
        with send_lock:
            send_frame(conn, message, wire)

    state = threading.Condition()
    queued = collections.deque()    # (kind, call_id, rest) or None
    abandoned = set()               # running ids whose reply is dropped
    # cancels that targeted an id this loop has never seen: either the
    # call already completed, or the AMCX frame overtook its own call
    # frame (cancel() fired between the client's pending-table insert
    # and the call send).  Ids are never reused, so tombstoning both
    # cases is safe — a late call whose id is tombstoned must be
    # dropped, not executed.  Bounded: completed-call entries age out.
    tombstones = collections.OrderedDict()
    running = [None]
    finished = threading.Event()

    def _runner():
        try:
            while True:
                with state:
                    while not queued:
                        state.wait()
                    item = queued.popleft()
                    if item is None:
                        return
                    running[0] = item[1]
                message, is_stop = _execute_message(interface, *item)
                with state:
                    dropped = running[0] in abandoned
                    abandoned.discard(running[0])
                    running[0] = None
                if not dropped:
                    reply(message)
                if is_stop:
                    return
        except OSError:
            pass    # peer vanished mid-reply; nothing left to serve
        finally:
            finished.set()
            try:
                # unblock the frame reader parked in recv_frame
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass

    runner = threading.Thread(
        target=_runner, name="worker-runner", daemon=True
    )
    runner.start()
    try:
        while not finished.is_set():
            try:
                message = recv_frame(conn, wire)
            except (ProtocolError, OSError):
                break
            kind, call_id, *rest = message
            if kind == "cancel":
                target = rest[0]
                with state:
                    outcome = "done"
                    for index, item in enumerate(queued):
                        if item is not None and item[1] == target:
                            del queued[index]
                            outcome = "dequeued"
                            break
                    else:
                        if running[0] == target:
                            abandoned.add(target)
                            outcome = "abandoned"
                        else:
                            tombstones[target] = True
                            while len(tombstones) > 64:
                                tombstones.popitem(last=False)
                try:
                    reply(("result", call_id,
                           {"cancelled": target, "state": outcome}))
                except OSError:
                    break
                continue
            if kind in ("call", "mcall"):
                with state:
                    overtaken = tombstones.pop(call_id, None)
                    if overtaken is None:
                        queued.append((kind, call_id, rest))
                        state.notify()
                if overtaken is not None:
                    try:
                        reply(("error", call_id, "CancelledError",
                               f"call {call_id} cancelled before its "
                               "frame arrived", ""))
                    except OSError:
                        break
                continue
            if kind == "hello":
                try:
                    offered = parse_hello(rest)
                except ProtocolError as exc:
                    response = ("error", call_id, "ProtocolError",
                                str(exc), "")
                else:
                    response = ("result", call_id, {
                        "version": PROTOCOL_VERSION,
                        "caps": accept_capabilities(
                            offered, wire, allow_cancel=True
                        ),
                    })
            else:
                response = ("error", call_id, "ProtocolError",
                            f"unexpected message kind {kind!r}", "")
            try:
                reply(response)
            except OSError:
                break
    finally:
        with state:
            queued.append(None)
            state.notify()
        runner.join(timeout=_RUNNER_JOIN_S)
        # workers only ever ATTACH shm segments: close the mappings,
        # never unlink — the names belong to the channel side
        for arena in (wire.tx_arena, wire.rx_arena):
            if arena is not None:
                arena.close()
        try:
            conn.close()
        except OSError:
            pass


class SocketChannel(StreamChannel):
    """Channel over a real loopback TCP socket to a worker thread.

    A listening socket is bound on 127.0.0.1, the worker thread connects
    back, and frames flow through the genuine kernel TCP stack — the
    loopback path whose throughput the paper quotes.  Requests may be
    pipelined: responses are matched to requests by call id in a reader
    thread.  On connect the channel runs the hello capability handshake
    with the worker.
    """

    kind = "sockets"
    _lost_message = "worker connection lost"

    def __init__(self, interface_factory, host="127.0.0.1",
                 stop_timeout=10.0, compress=None, compress_min=None,
                 shm_segment_size=None, shm_min=None, autobatch=None):
        super().__init__()
        self._stop_timeout = float(stop_timeout)
        self._compress_min = compress_min
        self._shm_min = shm_min

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind((host, 0))
        listener.listen(1)
        self.address = listener.getsockname()

        def _serve():
            try:
                worker_side, _ = listener.accept()
            except OSError:
                return      # constructor cleanup closed the listener
            listener.close()
            worker_side.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            worker_loop(interface_factory(), worker_side)

        self._worker_thread = threading.Thread(
            target=_serve, name="sockets-worker", daemon=True
        )
        self._worker_thread.start()

        # any failure past this point (connect, hello handshake) must
        # not leak the listener socket, the half-started worker thread
        # or the offered shm segments: release all, then re-raise
        try:
            caps = self._offer_capabilities(
                compress=compress, compress_min=compress_min,
                shm_segment_size=shm_segment_size, shm_min=shm_min,
            )
            self._sock = socket.create_connection(self.address)
            self._sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            self._negotiate_hello(caps)
        except BaseException:
            self._release_shm()
            for sock in (self._sock, listener):
                try:
                    if sock is not None:
                        sock.close()
                except OSError:
                    pass
            self._worker_thread.join(timeout=self._stop_timeout)
            raise

        self._reader_thread = threading.Thread(
            target=self._read_responses, name="sockets-reader",
            daemon=True,
        )
        self._reader_thread.start()
        if autobatch:
            self._enable_autobatch(autobatch)

    # -- internals ---------------------------------------------------------

    def _describe(self):
        kind = "shm" if self._wire.shm_active else self.kind
        return f"{kind} channel on {self.address}"

    def stop(self):
        if not self._begin_stop(warn_on_noack=True):
            return
        self._worker_thread.join(timeout=self._stop_timeout)
        if self._worker_thread.is_alive():
            # a wedged worker must not leak silently
            warnings.warn(
                f"{self._describe()}: worker thread still alive "
                f"{self._stop_timeout}s after stop; leaking it",
                RuntimeWarning, stacklevel=2,
            )
        self._release_shm()


_FACTORIES = {
    "direct": DirectChannel,
    "mpi": DirectChannel,        # MPI channel's local fast path stand-in
    "sockets": SocketChannel,
}


def register_channel_factory(name, factory):
    """Register an extra channel type (used by repro.distributed for
    the "ibis" channel)."""
    _FACTORIES[name] = factory


def _validate_channel_kwargs(channel_type, factory, kwargs):
    """Reject kwargs the factory does not accept, naming the channel
    type and the offending keyword — instead of a bare ``TypeError``
    deep inside the constructor (e.g. sockets-only options handed to
    the "mpi"/direct channel)."""
    if not kwargs:
        return
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):
        return                  # not introspectable: let the call speak
    parameters = signature.parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD
           for p in parameters.values()):
        return
    valid = [
        name for name in parameters
        if name != "interface_factory"
    ]
    for keyword in kwargs:
        if keyword not in parameters or keyword == "interface_factory":
            raise ValueError(
                f"channel type {channel_type!r} does not accept option "
                f"{keyword!r}; valid options: {sorted(valid)}"
            )


def new_channel(channel_type, interface_factory, **kwargs):
    """Create a channel of the named type around an interface factory."""
    if channel_type == "subprocess" and channel_type not in _FACTORIES:
        # lazy: the subproc module doubles as the spawned worker's
        # ``-m`` entrypoint, so it must not be imported eagerly
        from . import subproc  # noqa: F401 - registers the factory
    if channel_type == "shm" and channel_type not in _FACTORIES:
        from . import shm  # noqa: F401 - registers the factory
    try:
        factory = _FACTORIES[channel_type]
    except KeyError:
        raise ValueError(
            f"unknown channel type {channel_type!r}; known: "
            f"{sorted(_FACTORIES)}"
        ) from None
    _validate_channel_kwargs(channel_type, factory, kwargs)
    return factory(interface_factory, **kwargs)
