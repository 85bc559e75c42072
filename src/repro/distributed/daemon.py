"""The Ibis daemon — loopback gateway between coupler and workers.

"The AMUSE coupler connects with a local Ibis daemon to start and
communicate with remote workers.  The user must start this daemon on his
or her machine before running any simulation, but it can be re-used for
all simulations run.  We use this separate process as the Ibis software
is written in Java, while AMUSE is written in Python.  The connection is
created using a local loopback socket.  Benchmarks show that this
connection is over 8Gbit/second even on a modest laptop, has a[n]
extremely small latency." (paper Sec. 5)

This daemon is a REAL loopback TCP server speaking the AMUSE frame
protocol — and, beyond the paper's single-script assumption, a
**multi-session scheduler**: every connection is attached to a session
minted (or joined, via its unguessable token) at hello time, pilots
live in per-session namespaces, pilot calls pass fair admission
control (FIFO within a session, round-robin across sessions), per
-session accounting is served on a ``status`` endpoint, idle sessions
are reaped, and a warm pool of pre-spawned subprocess workers cuts
time-to-first-evolve for subprocess/shm pilots.  Start it as a real
service::

    python -m repro.distributed.daemon --port 7654 --warm-pool 2 \
        --max-sessions 8 --idle-timeout 300

and connect with :func:`repro.distributed.connect`.

Daemon message surface (all frames per :mod:`repro.rpc.protocol`), one
handler per kind in :attr:`IbisDaemon._FRAMES`:

* ``("hello", req_id, PROTOCOL_VERSION, caps)`` — the capability
  handshake (a version mismatch is answered with an error frame);
  *caps* may offer per-buffer compression codecs, ``relay`` and a
  ``session`` entry (``{"join": token}`` to attach to an existing
  session, ``{"name": ...}`` to label a new one).  The ack carries the
  granted ``{"id", "token"}`` pair.
* ``("start_worker", req_id, factory_bytes, resource, node_count,
  worker_mode, session_id, options)`` — every field present; a frame
  of another shape gets an error reply naming them.  Every pilot is
  one type, built from the factory bytes, *worker_mode* ("thread",
  "subprocess" or "shm"; None for the daemon's default), the
  ``{"relay": True}`` option and the warm pool.  Only a thread pilot
  unpickles the factory, because it runs in the daemon; a subprocess
  or shm pilot ships the bytes as sent to a claimed warm-pool child or
  a cold spawn.  A *relay pilot* is bootstrapped but NOT
  wire-negotiated, waiting for an ``attach_worker`` splice.
  *session_id* may be None (the connection's own session).
* ``("attach_worker", req_id, worker_id[, session_id])`` — flips this
  connection into the zero-decode data plane: after the ack, every
  frame in either direction is spliced verbatim between client and
  pilot (:func:`repro.rpc.protocol.relay_frame` — header + buffer
  table parsed for byte counts, metadata never decoded), so the
  client negotiates capabilities (cancel, compression, same-host shm)
  end to end with the pilot's ``worker_loop``.  When the pilot dies,
  the client is sent a ``("relay_lost", 0, {...})`` obituary carrying
  exit code and stderr tail before the connection closes
* ``("call", req_id, worker_id, method, args, kwargs[, session_id])``
* ``("mcall", req_id, worker_id, [(method, args, kwargs), ...]
  [, session_id])`` — pipelined batch, one mresult frame
* ``("echo", req_id, payload)`` — the loopback benchmark message
  (ungated by admission: it measures the wire, not the scheduler)
* ``("stop_worker", req_id, worker_id[, session_id])``
* ``("list_workers", req_id)`` — this session's pilots only
* ``("status", req_id)`` — session accounting + daemon load
* ``("close_session", req_id)`` / ``("shutdown", req_id)``

A frame-carried ``session_id`` must match the session the connection
authenticated into at hello — the id alone is no credential, the join
token is; worker ids are resolved ONLY inside the owning session's
namespace, so cross-tenant addressing fails even with a guessed id.
A connection that never says hello is served in an implicit
single-tenant session.

Result arrays are handed to the send path as out-of-band buffers of
the worker's own output — the daemon hop forwards them without
re-pickling their contents into an intermediate payload.
"""

from __future__ import annotations

import logging
import os
import pickle
import secrets
import socket
import threading
import time
import traceback

from ..rpc.channel import call_entry, hang_up, worker_loop
from ..rpc.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    RelayScratch,
    RemoteError,
    WireState,
    accept_capabilities,
    parse_hello,
    recv_frame,
    relay_frame,
    send_frame,
)
from ..rpc.subproc import SubprocessChannel
from .session import AdmissionController, SessionState, WarmWorkerPool

__all__ = ["IbisDaemon", "main"]

logger = logging.getLogger("repro.distributed.daemon")

#: pilot modes a start_worker frame may ask for
_WORKER_MODES = ("thread", "subprocess", "shm")


def _check_mode(worker_mode):
    if worker_mode not in _WORKER_MODES:
        raise ValueError(
            f"unknown worker mode {worker_mode!r}; "
            f"known: {sorted(_WORKER_MODES)}"
        )
    return worker_mode


class _Connection:
    """One served client connection: its socket and wire state, the
    session it is attached to, and the byte accounting into it."""

    __slots__ = ("sock", "wire", "session", "delta_in", "then", "_mark")

    def __init__(self, sock):
        self.sock = sock
        self.wire = WireState()
        self.session = None
        #: wire bytes of the last received frame
        self.delta_in = 0
        #: set by a frame that hands the connection over (the relay
        #: splice, daemon shutdown): run after the reply, which ends
        #: the serve loop
        self.then = None
        self._mark = 0

    def recv(self):
        message = recv_frame(self.sock, self.wire)
        self.delta_in = self.wire.bytes_received - self._mark
        self._mark = self.wire.bytes_received
        if self.session is not None:
            self.session.accounting["bytes_in"] += self.delta_in
            self.session.touch()
        return message

    def reply(self, message):
        sent = send_frame(self.sock, message, self.wire)
        if self.session is not None:
            self.session.accounting["bytes_out"] += sent


class _Pilot:
    """One pilot worker: *worker_mode* says where it runs, *relay*
    which data plane reaches it.

    A ``thread`` pilot runs in the daemon, the only place its factory
    is unpickled.  Relayed, a real :func:`~repro.rpc.channel.worker_loop`
    serves it behind a ``socketpair``, so the spliced client negotiates
    capabilities end to end as against a remote pilot.  A
    ``subprocess`` / ``shm`` pilot is a child process behind a
    :class:`~repro.rpc.subproc.SubprocessChannel` (a claimed warm-pool
    child, else a cold spawn) that receives the factory bytes as sent:
    activated when decoded, bootstrapped but never wire-negotiated when
    its raw socket is handed to the splice."""

    attached = warm = False
    pid = channel = relay_sock = None

    def __init__(self, factory_bytes, worker_mode, relay, warm_pool):
        self.mode = worker_mode
        self.relay = relay
        self._stop_lock = threading.Lock()
        self._stopped = False
        if worker_mode == "thread":
            self.interface = pickle.loads(factory_bytes)()
            self.code = type(self.interface).__name__
            if relay:
                self.relay_sock, worker_side = socket.socketpair()
                self._thread = threading.Thread(
                    target=worker_loop, args=(self.interface, worker_side),
                    name="relay-thread-pilot", daemon=True,
                )
                self._thread.start()
            return
        channel = None if warm_pool is None else warm_pool.claim()
        if channel is not None:
            try:
                self._bootstrap(channel, factory_bytes)
                self.warm = True
            except RemoteError:
                # the child ran the tenant's factory and reported its
                # failure; a cold child would report the same
                raise
            except Exception:  # noqa: BLE001 - warm claim best-effort
                logger.exception("warm pilot bootstrap failed; cold-spawning")
                channel = None
        if channel is None:
            # a failed bootstrap tears the child down inside the
            # channel; the error propagates to the start_worker reply
            channel = SubprocessChannel(warm=True)
            self._bootstrap(channel, factory_bytes)
        self.channel = channel
        self.pid = channel.pid
        self.code = channel.interface_name

    def _bootstrap(self, channel, factory_bytes):
        if self.relay:
            # relay shm pilots are plain subprocess spawns: the shm leg
            # is negotiated client<->pilot end to end through the
            # splice, not with the daemon
            self.relay_sock = channel.detach_for_relay(factory_bytes)
        elif self.mode == "shm":
            from ..rpc.shm import DEFAULT_SEGMENT_SIZE

            channel.activate(
                factory_bytes, shm_segment_size=DEFAULT_SEGMENT_SIZE
            )
        else:
            channel.activate(factory_bytes)

    def call(self, method, *args, **kwargs):
        if self.relay:
            raise ProtocolError(
                "worker is relay-attached; calls travel through the "
                "spliced connection, not the daemon dispatcher"
            )
        if self.channel is not None:
            return self.channel.call(method, *args, **kwargs)
        return getattr(self.interface, method)(*args, **kwargs)

    def death_info(self):
        if self.channel is not None:
            return self.channel.death_info()
        return {"message": "relayed pilot (daemon thread) connection lost"}

    def stop(self):
        """Stop the pilot, once: a second caller waits for the first,
        so whoever returns knows the pilot is gone (a subprocess
        pilot reaped)."""
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
            if self.relay_sock is not None:
                # wakes the splice's downstream pump out of its recv
                hang_up(self.relay_sock)
            if self.channel is not None:
                self.channel.stop()
            elif self.relay:
                self._thread.join(timeout=5.0)
            else:
                stop = getattr(self.interface, "stop", None)
                if stop is not None:
                    stop()


class IbisDaemon:
    """Loopback TCP daemon hosting AMUSE workers for many sessions.

    Start once per machine::

        daemon = IbisDaemon(warm_pool=2, idle_timeout=300)
        daemon.start()
        ...
        daemon.shutdown()

    *warm_pool* pre-spawns that many parked subprocess workers;
    *max_sessions* bounds concurrent tenants (hello past the limit is
    rejected); *idle_timeout* reaps sessions (stopping their pilots
    via the stop→terminate→kill escalation) after that many idle
    seconds; *max_active* caps concurrently-executing pilot calls
    (defaults to the core count).
    """

    def __init__(self, host="127.0.0.1", port=0, worker_mode="thread",
                 warm_pool=0, max_sessions=None, idle_timeout=None,
                 max_active=None, drain_timeout=5.0):
        self._host = host
        self._port = int(port)
        self._worker_mode = _check_mode(worker_mode)
        self._warm_size = int(warm_pool)
        self._max_sessions = max_sessions
        self._idle_timeout = idle_timeout
        self._drain_timeout = float(drain_timeout)
        #: the TCP listener, then the AF_UNIX one when there is one,
        #: each served by its own accept thread
        self._listeners = []
        self._accept_threads = []
        self._sessions = {}
        self._by_token = {}
        self._worker_ids = iter(range(1, 1 << 30))
        self._lock = threading.Lock()
        #: served connection -> the thread serving it
        self._served = {}
        self._running = False
        self._shutdown_done = threading.Event()
        self._started_at = None
        self.admission = AdmissionController(slots=max_active)
        self.warm_pool = None
        self.reaped_sessions = 0
        self.address = None
        #: abstract AF_UNIX address for same-host clients (None when
        #: the platform has no AF_UNIX); bulk relay traffic over this
        #: listener skips the loopback TCP stack entirely
        self.unix_address = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self):
        return self._running

    def start(self):
        listener = socket.socket(
            socket.AF_INET, socket.SOCK_STREAM
        )
        listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        listener.bind((self._host, self._port))
        listener.listen(16)
        self._listeners.append(listener)
        self.address = listener.getsockname()
        # same-host fast path: an abstract-namespace AF_UNIX listener
        # alongside TCP.  Local clients that dial it (connect() with a
        # daemon instance does so automatically) move bulk relay
        # traffic off the loopback TCP stack — measurably faster under
        # the zero-decode splice, and no filesystem socket to clean up
        if hasattr(socket, "AF_UNIX"):
            try:
                unix = socket.socket(
                    socket.AF_UNIX, socket.SOCK_STREAM
                )
                name = (f"\0repro-daemon-{os.getpid()}-"
                        f"{secrets.token_hex(4)}")
                unix.bind(name)
                unix.listen(16)
            except OSError:
                logger.info(
                    "AF_UNIX listener unavailable; same-host "
                    "clients will use loopback TCP"
                )
            else:
                self._listeners.append(unix)
                self.unix_address = name
        self._started_at = time.monotonic()
        self._running = True
        if self._warm_size > 0:
            self.warm_pool = WarmWorkerPool(self._warm_size)
        for listener in self._listeners:
            thread = threading.Thread(
                target=self._accept_loop, args=(listener,), daemon=True
            )
            thread.start()
            self._accept_threads.append(thread)
        if self._idle_timeout is not None:
            threading.Thread(target=self._reap_loop, daemon=True).start()
        return self.address

    def shutdown(self):
        """Deterministic teardown: stop admitting pilot calls, DRAIN
        the in-flight ones (bounded), then stop pools/workers and close
        the client connections — the order that makes shutdown during
        an in-flight call race-free instead of best-effort.

        Concurrent callers are safe: exactly one thread performs the
        teardown, and every other caller blocks until it has finished
        (bounded by the drain/join timeouts), so "shutdown() returned"
        always means "the daemon is down" — not "someone else is
        still tearing it down"."""
        with self._lock:
            tearing_down = self._running
            self._running = False
        if not tearing_down:
            # a started daemon is being (or has been) torn down by
            # another thread; a never-started one has nothing to wait
            # for and its event is already unset but irrelevant
            if self._started_at is not None:
                self._shutdown_done.wait(
                    timeout=self._drain_timeout + 10.0
                )
            return
        try:
            self._teardown()
        finally:
            self._shutdown_done.set()

    def _teardown(self):
        for listener in self._listeners:
            hang_up(listener)
        if not self.admission.close(self._drain_timeout):
            logger.warning(
                "shutdown: pilot calls still running after %.1fs drain",
                self._drain_timeout,
            )
        if self.warm_pool is not None:
            self.warm_pool.stop()
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
            self._by_token.clear()
        for session in sessions:
            self._stop_session_workers(session)
        with self._lock:
            served, self._served = self._served, {}
        for conn in served:
            hang_up(conn)
        # every thread was woken above: one deadline bounds them all
        deadline = time.monotonic() + 2.0
        current = threading.current_thread()
        for thread in [*served.values(), *self._accept_threads]:
            if thread is not current:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))

    # -- session management ------------------------------------------------

    def _attach_session(self, link, request):
        """Attach this connection to a session: join by token, or mint
        a new one (subject to --max-sessions).  A refusal raises
        :class:`PermissionError`."""
        if link.session is not None:
            return link.session
        name = token = None
        if isinstance(request, dict):
            name = request.get("name")
            token = request.get("join")
        with self._lock:
            if token is not None:
                session = self._by_token.get(token)
                if session is None:
                    raise PermissionError("unknown session token")
            else:
                if self._max_sessions is not None \
                        and len(self._sessions) >= self._max_sessions:
                    raise PermissionError(
                        f"session limit reached "
                        f"({self._max_sessions})"
                    )
                session = SessionState(name=name)
                self._sessions[session.sid] = session
                self._by_token[session.token] = session
            session.connections += 1
        link.session = session
        # the frame that attached it arrived before the connection had
        # a session to count its bytes in
        session.accounting["bytes_in"] += link.delta_in
        session.touch()
        return session

    def _drop_session_locked(self, session):
        self._sessions.pop(session.sid, None)
        self._by_token.pop(session.token, None)

    def _stop_session_workers(self, session):
        with self._lock:
            workers = list(session.workers.values())
            session.workers.clear()
            session.worker_meta.clear()
        for worker in workers:
            try:
                worker.stop()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass

    def _reap_loop(self):
        interval = min(max(self._idle_timeout / 4.0, 0.05), 1.0)
        while self._running:
            time.sleep(interval)
            self.reap_idle_sessions()

    def reap_idle_sessions(self):
        """Reap sessions idle past the timeout (no in-flight calls):
        their pilots are stopped via the existing stop→terminate→kill
        escalation, freeing subprocess children and /dev/shm segments.
        Returns the number of sessions reaped."""
        if self._idle_timeout is None or not self._running:
            return 0
        with self._lock:
            expired = [
                session for session in self._sessions.values()
                if session.active_calls == 0
                and session.idle_for() >= self._idle_timeout
            ]
            for session in expired:
                self._drop_session_locked(session)
        for session in expired:
            logger.info(
                "reaping idle session %s (idle %.1fs, %d workers)",
                session.sid, session.idle_for(), len(session.workers),
            )
            self._stop_session_workers(session)
        self.reaped_sessions += len(expired)
        return len(expired)

    def _session(self, link, sid):
        """The session a frame addresses: its connection's own, which a
        frame-carried id must match."""
        session = link.session
        if sid is not None and sid != session.sid:
            raise ProtocolError(
                f"session mismatch: frame carries {sid!r}, "
                f"connection authenticated as {session.sid!r}"
            )
        return session

    # -- serving -----------------------------------------------------------

    def _accept_loop(self, listener):
        while self._running:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            if conn.family == socket.AF_INET:
                conn.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            handler = threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            )
            with self._lock:
                self._served[conn] = handler
            handler.start()

    def _serve(self, conn):
        link = _Connection(conn)
        try:
            while True:
                try:
                    kind, req_id, *fields = link.recv()
                except (ProtocolError, OSError):
                    # peer went away — or shutdown woke this recv
                    return
                try:
                    reply = self._handle(link, kind, fields)
                except BaseException as exc:  # noqa: BLE001 - to peer
                    # a refused hello is not a failed tenant request
                    if kind != "hello" and link.session is not None:
                        link.session.accounting["errors"] += 1
                    link.reply(
                        ("error", req_id, type(exc).__name__,
                         str(exc), traceback.format_exc()),
                    )
                    continue
                if kind == "mcall":
                    link.reply(("mresult", req_id, reply))
                else:
                    link.reply(("result", req_id, reply))
                if link.then is not None:
                    link.then()
                    return
        except OSError:
            # the peer left, or shutdown closed the socket, before a
            # reply went out: nobody is left to answer
            pass
        finally:
            session = link.session
            with self._lock:
                self._served.pop(conn, None)
                if session is not None:
                    session.connections -= 1
                    if session.connections <= 0 \
                            and not session.workers:
                        # a tenant whose every connection is gone and
                        # that left no pilots behind holds nothing
                        self._drop_session_locked(session)
            try:
                conn.close()
            except OSError:
                pass

    def _handle(self, link, kind, fields):
        """Run a frame's handler.  Every frame but hello runs in a
        session (a client that never said hello gets an implicit
        single-tenant one) and counts in its ``active_calls`` — a
        session mid-``start_worker`` must not look idle to the reaper;
        pilot calls pass admission."""
        handler = self._FRAMES.get(kind)
        if kind == "hello":
            return handler(self, link, *fields)
        session = self._attach_session(link, None)
        if handler is None:
            raise ProtocolError(f"unknown daemon message kind {kind!r}")
        with self._lock:
            session.active_calls += 1
        try:
            if kind not in ("call", "mcall"):
                return handler(self, link, *fields)
            with self.admission.admit(session):
                return handler(self, link, *fields)
        finally:
            with self._lock:
                session.active_calls -= 1
            session.touch()

    def _pilot(self, session, worker_id):
        with self._lock:
            pilot = session.workers.get(worker_id)
        if pilot is None:
            raise KeyError(
                f"unknown worker {worker_id} in session {session.sid}"
            )
        return pilot

    # -- control frames: one handler each, the reply is its return ----------

    def _on_hello(self, link, *fields):
        offer = parse_hello(fields)
        session = self._attach_session(link, offer.get("session"))
        # capability offer (codec list): the daemon is the WAN-relay
        # end, so a negotiated codec shrinks exactly the
        # modeled-bottleneck hop
        caps = accept_capabilities(offer, link.wire)
        if offer.get("relay"):
            # relay is a daemon-level capability, not a wire one: acked
            # here, honoured by the attach_worker splice
            caps["relay"] = True
        return {
            "version": PROTOCOL_VERSION, "caps": caps,
            "session": {"id": session.sid, "token": session.token},
        }

    def _on_attach_worker(self, link, worker_id=None, sid=None):
        session = self._session(link, sid)
        pilot = self._pilot(session, worker_id)
        if pilot.relay_sock is None:
            raise ProtocolError(
                f"worker {worker_id} was not started for relay"
            )
        if pilot.attached:
            raise ProtocolError(
                f"worker {worker_id} is already relay-attached"
            )
        pilot.attached = True
        # after the ack this connection is a pure byte pipe to the
        # pilot; the serve loop never decodes another frame on it
        link.then = lambda: self._relay(
            link.sock, session, worker_id, pilot
        )
        return {"attached": worker_id}

    def _on_echo(self, link, payload):
        return payload

    def _on_start_worker(self, link, *fields):
        if len(fields) != 6 or not isinstance(fields[5], dict):
            raise ProtocolError(
                "start_worker takes (factory_bytes, resource, "
                "node_count, worker_mode, session_id, options dict); "
                f"got {len(fields)} fields"
            )
        factory_bytes, resource, node_count, worker_mode, sid, \
            options = fields
        if worker_mode is None:
            worker_mode = self._worker_mode
        _check_mode(worker_mode)
        session = self._session(link, sid)
        pilot = _Pilot(
            factory_bytes, worker_mode, bool(options.get("relay")),
            self.warm_pool,
        )
        if worker_mode != "thread":
            key = "warm_hits" if pilot.warm else "cold_spawns"
            session.accounting[key] += 1
        with self._lock:
            # a session reaped or closed while the pilot spawned must
            # not adopt it — the orphan would outlive every stop path
            # (and leak its /dev/shm segments)
            live = session.sid in self._sessions
            if live:
                worker_id = next(self._worker_ids)
                session.workers[worker_id] = pilot
                session.worker_meta[worker_id] = {
                    "resource": resource,
                    "node_count": node_count,
                    "code": pilot.code,
                    "mode": pilot.mode,
                    "pid": pilot.pid,
                    "warm": pilot.warm,
                    "relay": pilot.relay,
                }
        if not live:
            try:
                pilot.stop()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
            raise ProtocolError(
                f"session {session.sid} expired while the worker "
                "was starting"
            )
        return worker_id

    def _on_call(self, link, worker_id, method, args, kwargs, sid=None):
        session = self._session(link, sid)
        session.accounting["calls"] += 1
        return self._pilot(session, worker_id).call(
            method, *args, **kwargs
        )

    def _on_mcall(self, link, worker_id, calls, sid=None):
        session = self._session(link, sid)
        session.accounting["calls"] += len(calls)
        return [
            call_entry(
                lambda m=method, a=args, k=kwargs:
                self._pilot(session, worker_id).call(m, *a, **k)
            )
            for method, args, kwargs in calls
        ]

    def _on_stop_worker(self, link, worker_id, sid=None):
        session = self._session(link, sid)
        with self._lock:
            pilot = session.workers.pop(worker_id, None)
            session.worker_meta.pop(worker_id, None)
        if pilot is not None:
            pilot.stop()
        return True

    def _on_list_workers(self, link):
        with self._lock:
            return dict(link.session.worker_meta)

    def _on_status(self, link):
        with self._lock:
            n_sessions = len(self._sessions)
        uptime = 0.0 if self._started_at is None else \
            time.monotonic() - self._started_at
        return {
            "session": link.session.snapshot(),
            "daemon": {
                "sessions": n_sessions,
                "reaped_sessions": self.reaped_sessions,
                "worker_mode": self._worker_mode,
                "idle_timeout": self._idle_timeout,
                "max_sessions": self._max_sessions,
                "uptime_s": round(uptime, 3),
                "admission": self.admission.stats(),
                "warm_pool": self.warm_pool.stats()
                if self.warm_pool is not None
                else {"size": 0, "idle": 0, "claimed": 0},
            },
        }

    def _on_close_session(self, link):
        session = link.session
        with self._lock:
            self._drop_session_locked(session)
        self._stop_session_workers(session)
        return True

    def _on_shutdown(self, link):
        link.then = self.shutdown
        return True

    #: the control frames, by kind
    _FRAMES = {
        "hello": _on_hello,
        "attach_worker": _on_attach_worker,
        "echo": _on_echo,
        "start_worker": _on_start_worker,
        "call": _on_call,
        "mcall": _on_mcall,
        "stop_worker": _on_stop_worker,
        "list_workers": _on_list_workers,
        "status": _on_status,
        "close_session": _on_close_session,
        "shutdown": _on_shutdown,
    }

    # -- relay data plane ----------------------------------------------------

    def _relay(self, conn, session, worker_id, worker):
        """Pump frames between a client and its relay pilot without
        decoding them (runs on the connection's serve thread).

        The upstream direction (client → pilot) runs here; a helper
        thread pumps downstream (pilot → client) concurrently, so the
        two hops of a transfer pipeline through the cut-through splice
        instead of store-and-forwarding.  Each relayed frame updates
        the session byte accounting and its idle clock — an actively
        relaying session never looks idle to the reaper, while a
        genuinely idle one is reaped exactly like a decoded tenant
        (the client then sees the pilot connection drop).

        A malformed or oversized frame from either side tears down
        ONLY this relay: the pilot is stopped and retired from the
        session; other connections and pilots are untouched.
        """
        pilot = worker.relay_sock
        down = threading.Thread(
            target=self._relay_downstream,
            args=(conn, pilot, session, worker),
            name=f"relay-down-{worker_id}", daemon=True,
        )
        down.start()
        scratch = RelayScratch()
        try:
            while True:
                spliced = relay_frame(conn, pilot, scratch)
                if spliced is None:
                    break
                session.accounting["bytes_in"] += spliced
                session.accounting["relay_frames"] += 1
                session.touch()
        except ProtocolError as exc:
            logger.warning(
                "relay for worker %s: dropping connection: %s",
                worker_id, exc,
            )
        except OSError:
            pass
        # client leg over (EOF, error, or a bad frame): retire the
        # pilot — shutdown wakes the downstream pump out of its recv,
        # stop() runs the usual escalation for subprocess pilots.  It
        # stays in the session until it is stopped, so a close_session
        # racing this returns only once the pilot is gone
        with self._lock:
            still = session.workers.get(worker_id)
        try:
            pilot.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if still is not None:
            try:
                still.stop()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
            with self._lock:
                session.workers.pop(worker_id, None)
                session.worker_meta.pop(worker_id, None)
        down.join(timeout=5.0)
        scratch.close()

    def _relay_downstream(self, conn, pilot, session, worker):
        """Pilot → client pump.  When the pilot side ends — clean EOF,
        death mid-frame, or a malformed frame — the client is sent a
        ``relay_lost`` obituary (exit code + stderr tail for
        subprocess pilots, mirroring SubprocessChannel's local death
        reports) and the connection is shut down so its reader fails
        over immediately."""
        scratch = RelayScratch()
        reason = None
        try:
            while True:
                spliced = relay_frame(pilot, conn, scratch)
                if spliced is None:
                    break
                session.accounting["bytes_out"] += spliced
                session.accounting["relay_frames"] += 1
                session.touch()
        except ProtocolError as exc:
            reason = f"relay frame error from pilot: {exc}"
        except OSError:
            pass
        try:
            info = worker.death_info()
        except Exception:  # noqa: BLE001 - obituary best-effort
            info = {}
        if reason:
            info["message"] = reason
        try:
            send_frame(conn, ("relay_lost", 0, info))
        except (OSError, ProtocolError):
            pass
        # wake the upstream pump parked in recv on the client socket
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        scratch.close()

    # -- convenience ---------------------------------------------------------------

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


def main(argv=None):
    """Run the daemon as a service: ``python -m
    repro.distributed.daemon --port 7654 --warm-pool 2``.

    Prints the bound ``host:port`` on stdout (port 0 picks a free
    one), then serves until a client sends ``shutdown`` or SIGINT."""
    import argparse

    from .. import __version__

    parser = argparse.ArgumentParser(
        prog="repro.distributed.daemon",
        description="Ibis daemon: multi-session loopback gateway "
                    "hosting AMUSE workers (paper Sec. 5).",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: loopback)",
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="port to bind (default: 0 = pick a free port)",
    )
    parser.add_argument(
        "--warm-pool", type=int, default=0, metavar="N",
        help="pre-spawn N parked subprocess workers",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=None, metavar="M",
        help="reject hello past M concurrent sessions",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="S",
        help="reap sessions idle for S seconds",
    )
    parser.add_argument(
        "--max-active", type=int, default=None,
        help="concurrently executing pilot calls "
             "(default: core count)",
    )
    parser.add_argument(
        "--worker-mode", default="thread", choices=_WORKER_MODES,
        help="default pilot mode for start_worker frames",
    )
    args = parser.parse_args(argv)

    daemon = IbisDaemon(
        host=args.host, port=args.port, worker_mode=args.worker_mode,
        warm_pool=args.warm_pool, max_sessions=args.max_sessions,
        idle_timeout=args.idle_timeout, max_active=args.max_active,
    )
    host, port = daemon.start()
    if daemon.warm_pool is not None:
        # announce only once the pool is filled: the first client to
        # race in after the banner deserves a warm hit, not a cold
        # spawn with a pool still mid-fill behind it
        daemon.warm_pool.ready(timeout=60.0)
    print(f"ibis daemon listening on {host}:{port}", flush=True)
    try:
        while daemon.running:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        daemon.shutdown()
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
