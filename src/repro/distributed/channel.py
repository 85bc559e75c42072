"""The Ibis channel — AMUSE's distributed worker channel.

"For this paper, we added an Ibis channel" (paper Sec. 4.1): instead of
spawning a worker locally over MPI/sockets, the coupler asks the local
Ibis daemon to start the worker on a (possibly remote) resource and
routes every RPC through the daemon's loopback socket.

Two layers live here:

* :class:`_DaemonLink` — the control-plane connection: TCP connect,
  hello capability handshake (compression codecs, session
  membership), echo/status/close_session requests.  A link that was
  granted a session carries ``session_id``/``session_token``; the
  token is the credential a second connection presents to join the
  same daemon-side namespace.
* :class:`DistributedChannel` — the pilot channel: a link that also
  starts a worker and routes ``call``/``mcall`` frames to it.  Frames
  carry the session id once one is granted, so the daemon can verify
  a tenant never addresses another tenant's pilots.

Pilot channels are normally placed through a session::

    session = repro.distributed.connect(daemon_address)
    gravity = session.code(PhiGRAPE, conv, channel_type="shm")

which constructs :class:`DistributedChannel` with ``session=``.
Constructed without one (directly, or via ``channel_type="ibis"`` with
a ``daemon``/``address`` option), a channel is its own single-tenant
session.

Requests can be pipelined like the sockets channel (async calls), and
batched (``with channel.batch(): ...`` coalesces queued async calls
into one multi-call frame through the daemon).  Array payloads travel
as out-of-band buffers (zero-copy scatter-gather send, ``recv_into``
receive) and the daemon forwards result buffers without re-pickling;
a daemon speaking another protocol version refuses the hello and the
constructor raises :class:`~repro.rpc.protocol.ProtocolError`.

Two transport knobs follow the paper's locality spectrum:

* ``compress="auto"`` (default) negotiates per-buffer compression via
  the hello capability dict — but only for WAN-profile channels
  (``resource`` other than local): there the modeled wide-area link is
  the bottleneck and shrinking transfers is worth CPU, while the
  loopback hop of a local pilot is faster than any codec.  Pass
  True/False/codec-name to force either way.
* ``worker_mode="shm"`` asks the daemon for a subprocess pilot driven
  over the shared-memory channel — the daemon-side leg of the
  same-host zero-wire-copy path.

And one routing knob keeps the daemon off the critical path entirely:

* ``relay=True`` asks the daemon for a *relay pilot*: after
  ``start_worker`` the client sends ``attach_worker`` and the daemon
  flips the connection into a zero-decode splice
  (:func:`~repro.rpc.protocol.relay_frame`) straight to the pilot.
  Transport capabilities are then negotiated END TO END with the
  pilot's :func:`~repro.rpc.channel.worker_loop` through the splice —
  compression for WAN-profile resources, shm arenas for a same-host
  ``worker_mode="shm"`` pilot (zero wire copies client → pilot), and
  AMCX cancellation, so ``Future.cancel()`` can interrupt a hung
  REMOTE pilot.  ``autobatch="auto"`` adds Nagle-style micro-batching
  of async calls on WAN-profile relayed channels.
"""

from __future__ import annotations

import pickle
import socket
import threading

from ..rpc.channel import (
    AsyncRequest,
    StreamChannel,
    register_channel_factory,
)
from ..rpc.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    RemoteError,
    available_codecs,
    resolve_compress_offer,
)

__all__ = ["DistributedChannel"]

#: resource labels that mean "this very machine" — the loopback hop is
#: faster than any codec, so auto compression stays off for them
_LOCAL_RESOURCES = frozenset({"local", "localhost"})


class _DaemonLink(StreamChannel):
    """Control-plane connection to an Ibis daemon (no pilot attached).

    Handles connect, hello negotiation and the daemon-surface requests
    shared by the control link of a :class:`~repro.distributed.
    session.Session` and every pilot channel.
    """

    kind = "ibis"
    _lost_message = "daemon connection lost"

    def __init__(self, daemon=None, address=None, resource=None,
                 compress="auto", compress_min=None, session=None,
                 session_name=None, relay=False):
        super().__init__()
        if daemon is not None:
            # a daemon instance is same-host by construction; prefer
            # its AF_UNIX listener — bulk relay traffic then skips the
            # loopback TCP stack on both legs
            address = getattr(daemon, "unix_address", None) \
                or daemon.address
        self._join_token = None
        if session is not None:
            if address is None:
                address = session.address
            self._join_token = session.token
        if address is None:
            raise ValueError(
                "daemon link needs a daemon or its address; "
                "start an IbisDaemon first (paper Sec. 5 step 3)"
            )
        self.resource = resource
        self._compress = compress
        self._compress_min = compress_min
        self._relay_requested = bool(relay)
        self._session_name = session_name
        self.session_id = None
        self.session_token = None

        if isinstance(address, str) and hasattr(socket, "AF_UNIX"):
            self._sock = socket.socket(
                socket.AF_UNIX, socket.SOCK_STREAM
            )
            self._sock.connect(address)
        else:
            self._sock = socket.create_connection(tuple(address))
            self._sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        self._reader = threading.Thread(
            target=self._read_responses, daemon=True
        )
        self._reader.start()
        try:
            self._negotiate()
        except BaseException:
            self.close()
            raise

    # -- plumbing ---------------------------------------------------------------

    def _compress_offer(self):
        """The codec list offered in the hello; WAN-profile only under
        ``"auto"`` (paper economics: compress where the modeled link is
        the bottleneck, never the same-host loopback)."""
        if self._compress == "auto":
            if self.resource in _LOCAL_RESOURCES or self.resource is None:
                return []
            return available_codecs()
        return resolve_compress_offer(self._compress)

    def _hello_caps(self):
        caps = {}
        # a relay link defers compression to the END-TO-END hello with
        # the pilot (the daemon only splices frames, it must not own a
        # codec); everything else negotiates with the daemon as before
        offer = [] if self._relay_requested else self._compress_offer()
        if offer:
            caps["compress"] = offer
            if self._compress_min is not None:
                caps["compress_min"] = int(self._compress_min)
        if self._relay_requested:
            caps["relay"] = True
        session = {}
        if self._join_token is not None:
            session["join"] = self._join_token
        if self._session_name is not None:
            session["name"] = self._session_name
        if session:
            caps["session"] = session
        return caps

    def _hello(self, caps, timeout):
        """Send the hello capability offer *caps*; returns the ack.

        A refused hello (another protocol version) raises
        :class:`ProtocolError` naming both versions; a refused session
        (bad token, session limit) the :class:`RemoteError` it is."""
        try:
            return self._request(
                ("hello", PROTOCOL_VERSION, caps)
            ).result(timeout=timeout)
        except RemoteError as exc:
            if exc.exc_class != "ProtocolError":
                raise
            raise self._hello_refused(exc.remote_message) from None

    def _negotiate(self):
        """Hello handshake with the daemon; the ack grants the
        session."""
        ack = self._hello(self._hello_caps(), timeout=10)
        self.wire_caps = ack["caps"]
        self.session_id = ack["session"]["id"]
        self.session_token = ack["session"]["token"]
        self._apply_negotiated_caps()

    def _request(self, body):
        """Send a daemon-surface request (echo/status/start_worker/...)."""
        request = AsyncRequest()
        req_id = self._register_pending(request)
        self._send_frame_locked((body[0], req_id) + tuple(body[1:]))
        return request

    # -- daemon surface ---------------------------------------------------------

    def echo(self, payload):
        """Round-trip *payload* through the daemon (bench surface)."""
        return self._request(("echo", payload)).result()

    def status(self):
        """The daemon's per-session status dict for this connection."""
        return self._request(("status",)).result(timeout=10)

    def close_session(self):
        """Ask the daemon to stop this session's pilots and drop it."""
        try:
            return self._request(("close_session",)).result(timeout=10)
        except (ProtocolError, RemoteError, TimeoutError):
            return False

    def close(self):
        """Drop the connection (the daemon reaps an empty session)."""
        self._stopped = True
        try:
            # shutdown first: a bare close() from this process neither
            # wakes the reader thread nor tells the daemon
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    stop = close


class DistributedChannel(_DaemonLink):
    """Channel from the coupler to a daemon-managed (remote) worker."""

    def __init__(self, interface_factory, daemon=None, address=None,
                 resource="local", node_count=1, worker_mode=None,
                 compress="auto", compress_min=None, session=None,
                 relay=False, autobatch="auto", shm_min=None,
                 stop_timeout=None):
        super().__init__(
            daemon=daemon, address=address, resource=resource,
            compress=compress, compress_min=compress_min,
            session=session, relay=relay,
        )
        self.node_count = int(node_count)
        self.worker_mode = worker_mode
        # end-to-end shm threshold: rides the relay hello's shm offer so
        # the PILOT applies the same cutoff as this side (only
        # meaningful for worker_mode="shm" through the splice)
        self._shm_min = shm_min
        if stop_timeout is not None:
            self._stop_timeout = float(stop_timeout)
        #: True once this connection was flipped into the daemon's
        #: zero-decode splice (frames travel client <-> pilot directly)
        self.relayed = False
        if relay and not self.wire_caps.get("relay"):
            self.close()
            raise ProtocolError(
                f"{self._describe()}: relay requested but the daemon "
                "did not ack it"
            )

        factory_bytes = pickle.dumps(interface_factory, protocol=5)
        # the granted session id rides after the mode so the daemon
        # can pin the pilot to this tenant
        self.worker_id = self._request((
            "start_worker", factory_bytes, resource, node_count,
            worker_mode, self.session_id, {"relay": True} if relay else {},
        )).result()
        if relay:
            self._attach_relay(worker_mode)
            self._maybe_enable_autobatch(autobatch)
        elif autobatch not in (None, False, "auto"):
            # explicit autobatch works on the decoded path too: the
            # daemon dispatcher understands mcall frames
            self._enable_autobatch(autobatch)

    # -- relay attach -------------------------------------------------------

    def _attach_relay(self, worker_mode):
        """Flip this connection into the daemon's zero-decode splice,
        then negotiate transport END TO END with the pilot.

        After the daemon acks ``attach_worker`` every subsequent frame
        travels client <-> pilot verbatim, so the pilot's
        :func:`~repro.rpc.channel.worker_loop` answers a second,
        worker-shape hello through the splice: compression for
        WAN-profile resources, shm arenas when a same-host shm pilot
        can attach them (zero wire copies end to end), and AMCX
        cancellation (the daemon's decoded path never grants it).
        """
        self._request(
            ("attach_worker", self.worker_id, self.session_id)
        ).result(timeout=30)
        self.relayed = True
        shm_segment_size = None
        if worker_mode == "shm":
            # the pilot only ACKS the arenas it can actually attach
            # (same host, creator alive) — offering is always safe
            from ..rpc.shm import DEFAULT_SEGMENT_SIZE

            shm_segment_size = DEFAULT_SEGMENT_SIZE
        caps = self._offer_capabilities(
            compress=self._compress_offer() or None,
            compress_min=self._compress_min,
            shm_segment_size=shm_segment_size,
            shm_min=self._shm_min,
        )
        try:
            ack = self._hello(caps, timeout=30)
        except BaseException:
            self._release_shm()
            raise
        self.wire_caps = ack["caps"]
        self._apply_negotiated_caps()

    def _maybe_enable_autobatch(self, autobatch):
        if autobatch in (None, False):
            return
        if autobatch == "auto":
            # adaptive window only where round trips dominate: the
            # modeled WAN link of a non-local resource
            if self.resource in _LOCAL_RESOURCES or \
                    self.resource is None:
                return
            self._enable_autobatch(True)
        else:
            self._enable_autobatch(autobatch)

    # -- plumbing ---------------------------------------------------------------

    def _call_message(self, call_id, method, args, kwargs):
        if self.relayed:
            # spliced frames are read by the pilot's worker_loop, so
            # they use the plain worker shape — no worker id, no sid
            return ("call", call_id, method, args, kwargs)
        return ("call", call_id, self.worker_id, method, args, kwargs,
                self.session_id)

    def _mcall_message(self, call_id, calls):
        if self.relayed:
            return ("mcall", call_id, calls)
        return ("mcall", call_id, self.worker_id, calls, self.session_id)

    def stop(self):
        if self.relayed:
            # the pilot answers the stop itself; the daemon's
            # downstream pump then sees EOF and retires the worker
            if self._begin_stop():
                self._release_shm()
            return
        # decoded pilot: the daemon retires it.  _stopped may already
        # be set by the reader's loss cleanup; the socket still needs
        # releasing in that case
        if not self._stopped:
            try:
                self._request(
                    ("stop_worker", self.worker_id, self.session_id)
                ).result(timeout=10)
            except (ProtocolError, RemoteError, TimeoutError):
                pass
        self.close()


register_channel_factory("ibis", DistributedChannel)
register_channel_factory("distributed", DistributedChannel)
