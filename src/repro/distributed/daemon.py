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

Daemon message surface (all frames per :mod:`repro.rpc.protocol`):

* ``("hello", req_id, PROTOCOL_VERSION, caps)`` — the capability
  handshake (a version mismatch is answered with an error frame);
  *caps* may offer per-buffer compression codecs, ``relay`` and a
  ``session`` entry (``{"join": token}`` to attach to an existing
  session, ``{"name": ...}`` to label a new one).  The ack carries the
  granted ``{"id", "token"}`` pair.
* ``("start_worker", req_id, factory_bytes, resource, node_count,
  worker_mode, session_id, options)`` — every field present; a frame
  of another shape gets an error reply naming them.  *worker_mode*
  ("thread", "subprocess" or "shm"; None for the daemon's default)
  picks the pilot; subprocess and shm pilots are claimed from the warm
  pool when one is parked.  *session_id* may be None (the
  connection's own session).  *options* is a dict;
  ``{"relay": True}`` starts a *relay pilot*: the
  pilot is bootstrapped but NOT wire-negotiated, waiting for an
  ``attach_worker`` splice
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

from ..rpc.channel import call_entry, worker_loop
from ..rpc.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    RelayScratch,
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


class _ThreadWorker:
    """A pilot worker hosted in the daemon process itself (the original
    mode): calls are dispatched straight to the interface in the
    connection handler's thread."""

    mode = "thread"
    pid = None
    warm_hit = False

    def __init__(self, interface):
        self.interface = interface

    def call(self, method, *args, **kwargs):
        return getattr(self.interface, method)(*args, **kwargs)

    def stop(self):
        stop = getattr(self.interface, "stop", None)
        if stop is not None:
            stop()


class _SubprocessWorker:
    """A pilot worker in its own OS process, driven through a
    :class:`~repro.rpc.subproc.SubprocessChannel` — the real AMUSE
    proxy+worker pair: the daemon forwards calls to a child that owns
    its interpreter (and its GIL).  ``shm=True`` is the per-pilot
    transport upgrade: the daemon→child leg moves array payloads
    through shared-memory segments instead of the socket.

    When a *warm_pool* is passed, the worker first tries to claim a
    parked pre-spawned child and activate it with the tenant's factory
    — skipping interpreter startup and the preloaded imports; a pool
    miss (or a failed activation) falls back to the cold spawn."""

    def __init__(self, factory, shm=False, warm_pool=None):
        options = {}
        if shm:
            from ..rpc.shm import DEFAULT_SEGMENT_SIZE

            options["shm_segment_size"] = DEFAULT_SEGMENT_SIZE
        self.mode = "shm" if shm else "subprocess"
        self.warm_hit = False
        channel = None
        if warm_pool is not None:
            channel = warm_pool.claim()
        if channel is not None:
            try:
                channel.activate(factory, **options)
                self.warm_hit = True
            except Exception:  # noqa: BLE001 - warm claim best-effort
                logger.exception(
                    "warm worker activation failed; cold-spawning"
                )
                channel = None
        if channel is None:
            channel = SubprocessChannel(factory, **options)
        self.channel = channel
        self.pid = channel.pid

    def call(self, method, *args, **kwargs):
        return self.channel.call(method, *args, **kwargs)

    def stop(self):
        self.channel.stop()


class _RelayThreadWorker:
    """A relay pilot hosted in the daemon process: a real
    :func:`~repro.rpc.channel.worker_loop` on its own thread behind a
    ``socketpair``, so the spliced client negotiates capabilities
    (cancel, compression, shm) end to end exactly as it would against
    a remote pilot."""

    mode = "thread"
    pid = None
    warm_hit = False

    def __init__(self, factory):
        self.interface = factory()
        daemon_side, worker_side = socket.socketpair()
        self.relay_sock = daemon_side
        self.attached = False
        self._thread = threading.Thread(
            target=worker_loop, args=(self.interface, worker_side),
            name="relay-thread-pilot", daemon=True,
        )
        self._thread.start()

    def call(self, method, *args, **kwargs):
        raise ProtocolError(
            "worker is relay-attached; calls travel through the "
            "spliced connection, not the daemon dispatcher"
        )

    def death_info(self):
        return {
            "message": "relayed pilot (daemon thread) connection lost",
        }

    def stop(self):
        try:
            self.relay_sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.relay_sock.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)


class _RelaySubprocessWorker:
    """A relay pilot in its own OS process, bootstrapped but NEVER
    activated: the factory frame is shipped and the pid ack awaited,
    then the raw socket is handed to the relay pump — no daemon-leg
    hello, so the client's capability negotiation passes through to
    the child's :func:`worker_loop` untouched.  Warm-pool claims work
    exactly as for decoded pilots (the parked child is waiting for a
    factory frame either way)."""

    warm_hit = False

    def __init__(self, factory, mode="subprocess", warm_pool=None):
        self.mode = mode
        self.attached = False
        channel = None
        if warm_pool is not None:
            channel = warm_pool.claim()
        if channel is not None:
            try:
                channel.detach_for_relay(factory)
                self.warm_hit = True
            except Exception:  # noqa: BLE001 - warm claim best-effort
                logger.exception(
                    "warm relay bootstrap failed; cold-spawning"
                )
                channel = None
        if channel is None:
            channel = SubprocessChannel(warm=True)
            # detach failure tears the child down inside the channel;
            # the error propagates to the start_worker reply
            channel.detach_for_relay(factory)
        self.channel = channel
        self.relay_sock = channel._sock
        self.pid = channel.pid

    def call(self, method, *args, **kwargs):
        raise ProtocolError(
            "worker is relay-attached; calls travel through the "
            "spliced connection, not the daemon dispatcher"
        )

    def death_info(self):
        return self.channel.death_info()

    def stop(self):
        try:
            self.relay_sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.channel.stop()


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
        if worker_mode not in _WORKER_MODES:
            raise ValueError(
                f"unknown worker mode {worker_mode!r}; "
                f"known: {sorted(_WORKER_MODES)}"
            )
        self._host = host
        self._port = int(port)
        self._worker_mode = worker_mode
        self._warm_size = int(warm_pool)
        self._max_sessions = max_sessions
        self._idle_timeout = idle_timeout
        self._max_active = max_active
        self._drain_timeout = float(drain_timeout)
        self._listener = None
        self._unix_listener = None
        self._accept_thread = None
        self._unix_accept_thread = None
        self._reaper_thread = None
        self._sessions = {}
        self._by_token = {}
        self._worker_ids = iter(range(1, 1 << 30))
        self._lock = threading.Lock()
        self._conns = set()
        self._serve_threads = set()
        self._running = False
        self._shutdown_done = threading.Event()
        self._started_at = None
        self.admission = None
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
        self._listener = socket.socket(
            socket.AF_INET, socket.SOCK_STREAM
        )
        self._listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        self._listener.bind((self._host, self._port))
        self._listener.listen(16)
        self.address = self._listener.getsockname()
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
                self._unix_listener = unix
                self.unix_address = name
        self._started_at = time.monotonic()
        self._running = True
        self.admission = AdmissionController(slots=self._max_active)
        if self._warm_size > 0:
            self.warm_pool = WarmWorkerPool(self._warm_size)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(self._listener,),
            daemon=True,
        )
        self._accept_thread.start()
        if self._unix_listener is not None:
            self._unix_accept_thread = threading.Thread(
                target=self._accept_loop,
                args=(self._unix_listener,), daemon=True,
            )
            self._unix_accept_thread.start()
        if self._idle_timeout is not None:
            self._reaper_thread = threading.Thread(
                target=self._reap_loop, daemon=True
            )
            self._reaper_thread.start()
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
            if not self._running:
                already_down = self._shutdown_done
                wait_needed = True
            else:
                self._running = False
                wait_needed = False
        if wait_needed:
            # a started daemon is being (or has been) torn down by
            # another thread; a never-started one has nothing to wait
            # for and its event is already unset but irrelevant
            if self._started_at is not None:
                already_down.wait(
                    timeout=self._drain_timeout + 10.0
                )
            return
        try:
            self._teardown()
        finally:
            self._shutdown_done.set()

    def _teardown(self):
        try:
            self._listener.close()
        except OSError:
            pass
        if self._unix_listener is not None:
            try:
                self._unix_listener.close()
            except OSError:
                pass
        if self.admission is not None:
            drained = self.admission.close(self._drain_timeout)
            if not drained:
                logger.warning(
                    "shutdown: pilot calls still running after "
                    "%.1fs drain", self._drain_timeout,
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
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        current = threading.current_thread()
        with self._lock:
            threads = list(self._serve_threads)
        for thread in threads:
            if thread is not current:
                thread.join(timeout=2.0)
        if self._accept_thread is not None \
                and self._accept_thread is not current:
            self._accept_thread.join(timeout=2.0)
        if self._unix_accept_thread is not None \
                and self._unix_accept_thread is not current:
            self._unix_accept_thread.join(timeout=2.0)

    # -- session management ------------------------------------------------

    def _attach_session(self, state, request):
        """Attach this connection to a session: join by token, or mint
        a new one (subject to --max-sessions).  A refusal raises
        :class:`PermissionError`."""
        if state["session"] is not None:
            return state["session"]
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
        state["session"] = session
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

    def _validate_sid(self, session, sid):
        if sid is not None and sid != session.sid:
            raise ProtocolError(
                f"session mismatch: frame carries {sid!r}, "
                f"connection authenticated as {session.sid!r}"
            )

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
            with self._lock:
                self._conns.add(conn)
            handler = threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            )
            with self._lock:
                self._serve_threads.add(handler)
            handler.start()

    def _serve(self, conn):
        wire = WireState()
        state = {"session": None}
        received_mark = 0

        def reply_frame(message):
            sent = send_frame(conn, message, wire)
            session = state["session"]
            if session is not None:
                session.accounting["bytes_out"] += sent

        try:
            while True:
                try:
                    message = recv_frame(conn, wire)
                except (ProtocolError, OSError):
                    # peer went away — or shutdown closed this socket
                    # under us while we blocked in recv
                    return
                delta_in = wire.bytes_received - received_mark
                received_mark = wire.bytes_received
                session = state["session"]
                if session is not None:
                    session.accounting["bytes_in"] += delta_in
                    session.touch()
                kind, req_id, *rest = message
                if kind == "hello":
                    fresh = state["session"] is None
                    try:
                        offer = parse_hello(rest)
                        session = self._attach_session(
                            state, offer.get("session")
                        )
                    except (ProtocolError, PermissionError) as exc:
                        reply_frame(
                            ("error", req_id, type(exc).__name__,
                             str(exc), traceback.format_exc()),
                        )
                        continue
                    if fresh:
                        # the top-of-loop accounting ran before this
                        # connection had a session; backfill the hello
                        session.accounting["bytes_in"] += delta_in
                    session.touch()
                    # capability offer (codec list): the daemon is the
                    # WAN-relay end, so a negotiated codec shrinks
                    # exactly the modeled-bottleneck hop
                    caps = accept_capabilities(offer, wire)
                    if offer.get("relay"):
                        # relay is a daemon-level capability, not a
                        # wire one: acked here, honoured by the
                        # attach_worker splice
                        caps["relay"] = True
                    reply_frame(("result", req_id, {
                        "version": PROTOCOL_VERSION, "caps": caps,
                        "session": {
                            "id": session.sid, "token": session.token,
                        },
                    }))
                    continue
                if kind == "attach_worker":
                    try:
                        if session is None:
                            session = self._attach_session(state, None)
                            session.accounting["bytes_in"] += delta_in
                        worker_id = rest[0] if rest else None
                        self._validate_sid(
                            session, rest[1] if len(rest) >= 2 else None
                        )
                        with self._lock:
                            worker = session.workers.get(worker_id)
                        if worker is None:
                            raise KeyError(
                                f"unknown worker {worker_id} in "
                                f"session {session.sid}"
                            )
                        if getattr(worker, "relay_sock", None) is None:
                            raise ProtocolError(
                                f"worker {worker_id} was not started "
                                "for relay"
                            )
                        if worker.attached:
                            raise ProtocolError(
                                f"worker {worker_id} is already "
                                "relay-attached"
                            )
                        worker.attached = True
                    except BaseException as exc:  # noqa: BLE001 - to peer
                        session = state["session"]
                        if session is not None:
                            session.accounting["errors"] += 1
                        reply_frame(
                            ("error", req_id, type(exc).__name__,
                             str(exc), traceback.format_exc()),
                        )
                        continue
                    reply_frame(("result", req_id,
                                 {"attached": worker_id}))
                    session.touch()
                    # from here this connection is a pure byte pipe to
                    # the pilot; the serve loop never decodes another
                    # frame on it
                    self._relay(conn, session, worker_id, worker)
                    return
                try:
                    if session is None:
                        # no-hello client: implicit single-tenant
                        # session, exactly the paper's original model
                        session = self._attach_session(state, None)
                        session.accounting["bytes_in"] += delta_in
                        session.touch()
                    reply = self._handle(session, kind, rest)
                except BaseException as exc:  # noqa: BLE001 - to peer
                    if session is not None:
                        session.accounting["errors"] += 1
                    reply_frame(
                        ("error", req_id, type(exc).__name__,
                         str(exc), traceback.format_exc()),
                    )
                    continue
                if kind == "mcall":
                    reply_frame(("mresult", req_id, reply))
                else:
                    reply_frame(("result", req_id, reply))
                if kind == "shutdown":
                    self.shutdown()
                    return
        except OSError:
            # the peer left, or shutdown closed the socket, before a
            # reply went out: nobody is left to answer
            pass
        finally:
            with self._lock:
                self._conns.discard(conn)
                self._serve_threads.discard(
                    threading.current_thread()
                )
            try:
                conn.close()
            except OSError:
                pass
            session = state["session"]
            if session is not None:
                with self._lock:
                    session.connections -= 1
                    if session.connections <= 0 \
                            and not session.workers:
                        # a tenant whose every connection is gone and
                        # that left no pilots behind holds nothing
                        self._drop_session_locked(session)

    def _handle(self, session, kind, rest):
        """Dispatch one non-hello frame; pilot calls pass admission.

        EVERY in-flight frame counts in ``active_calls`` — a session
        mid-``start_worker`` (a cold spawn takes longer than a short
        idle timeout) must not look idle to the reaper."""
        with self._lock:
            session.active_calls += 1
        try:
            if kind in ("call", "mcall"):
                admission = self.admission
                if admission is None:
                    raise ProtocolError("daemon not started")
                try:
                    delay, overloaded = admission.acquire(session.sid)
                except RuntimeError as exc:
                    raise ProtocolError(str(exc)) from None
                session.accounting["queue_s"] += delay
                if overloaded:
                    session.accounting["queue_warnings"] += 1
                    logger.warning(
                        "daemon load %.2f above %.2f: session %s "
                        "queued %.1f ms", admission.load,
                        admission.warn_load, session.sid, delay * 1e3,
                    )
                started = time.monotonic()
                try:
                    return self._dispatch(session, kind, rest)
                finally:
                    session.accounting["compute_s"] += \
                        time.monotonic() - started
                    admission.release()
            return self._dispatch(session, kind, rest)
        finally:
            with self._lock:
                session.active_calls -= 1
            session.touch()

    def _run_worker_call(self, session, worker_id, method, args,
                         kwargs):
        with self._lock:
            worker = session.workers.get(worker_id)
        if worker is None:
            raise KeyError(
                f"unknown worker {worker_id} in session {session.sid}"
            )
        return worker.call(method, *args, **kwargs)

    def _dispatch(self, session, kind, rest):
        if kind == "echo":
            (payload,) = rest
            return payload
        if kind == "start_worker":
            if len(rest) != 6 or not isinstance(rest[5], dict):
                raise ProtocolError(
                    "start_worker takes (factory_bytes, resource, "
                    "node_count, worker_mode, session_id, options dict); "
                    f"got {len(rest)} fields"
                )
            factory_bytes, resource, node_count, worker_mode, sid, \
                options = rest
            if worker_mode is None:
                worker_mode = self._worker_mode
            if worker_mode not in _WORKER_MODES:
                raise ValueError(
                    f"unknown worker mode {worker_mode!r}; "
                    f"known: {sorted(_WORKER_MODES)}"
                )
            self._validate_sid(session, sid)
            factory = pickle.loads(factory_bytes)
            code_name = getattr(
                getattr(factory, "func", factory), "__name__",
                type(factory).__name__,
            )
            if options.get("relay") and worker_mode == "thread":
                worker = _RelayThreadWorker(factory)
            elif options.get("relay"):
                # relay shm pilots are plain subprocess spawns: the shm
                # leg is negotiated client<->pilot end to end through
                # the splice, not with the daemon
                worker = _RelaySubprocessWorker(
                    factory, mode=worker_mode, warm_pool=self.warm_pool,
                )
            elif worker_mode == "thread":
                worker = _ThreadWorker(factory())
                code_name = type(worker.interface).__name__
            else:
                worker = _SubprocessWorker(
                    factory, shm=(worker_mode == "shm"),
                    warm_pool=self.warm_pool,
                )
            if worker_mode != "thread":
                key = "warm_hits" if worker.warm_hit else "cold_spawns"
                session.accounting[key] += 1
            with self._lock:
                # a session reaped or closed while the worker spawned
                # must not adopt it — the orphan would outlive every
                # stop path (and leak its /dev/shm segments)
                live = session.sid in self._sessions
                if live:
                    worker_id = next(self._worker_ids)
                    session.workers[worker_id] = worker
                    session.worker_meta[worker_id] = {
                        "resource": resource,
                        "node_count": node_count,
                        "code": code_name,
                        "mode": worker.mode,
                        "pid": worker.pid,
                        "warm": worker.warm_hit,
                        "relay": getattr(worker, "relay_sock", None)
                        is not None,
                    }
            if not live:
                try:
                    worker.stop()
                except Exception:  # noqa: BLE001 - teardown best-effort
                    pass
                raise ProtocolError(
                    f"session {session.sid} expired while the worker "
                    "was starting"
                )
            return worker_id
        if kind == "call":
            worker_id, method, args, kwargs, *opt = rest
            self._validate_sid(session, opt[0] if opt else None)
            session.accounting["calls"] += 1
            return self._run_worker_call(
                session, worker_id, method, args, kwargs
            )
        if kind == "mcall":
            worker_id, calls, *opt = rest
            self._validate_sid(session, opt[0] if opt else None)
            session.accounting["calls"] += len(calls)
            return [
                call_entry(
                    lambda m=method, a=args, k=kwargs:
                    self._run_worker_call(session, worker_id, m, a, k)
                )
                for method, args, kwargs in calls
            ]
        if kind == "stop_worker":
            worker_id, *opt = rest
            self._validate_sid(session, opt[0] if opt else None)
            with self._lock:
                worker = session.workers.pop(worker_id, None)
                session.worker_meta.pop(worker_id, None)
            if worker is not None:
                worker.stop()
            return True
        if kind == "list_workers":
            with self._lock:
                return dict(session.worker_meta)
        if kind == "status":
            return self._status(session)
        if kind == "close_session":
            with self._lock:
                self._drop_session_locked(session)
            self._stop_session_workers(session)
            return True
        if kind == "shutdown":
            return True
        raise ProtocolError(f"unknown daemon message kind {kind!r}")

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
        # stop() runs the usual escalation for subprocess pilots
        with self._lock:
            still = session.workers.pop(worker_id, None)
            session.worker_meta.pop(worker_id, None)
        try:
            pilot.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if still is not None:
            try:
                still.stop()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
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

    def _status(self, session):
        with self._lock:
            n_sessions = len(self._sessions)
        uptime = 0.0 if self._started_at is None else \
            time.monotonic() - self._started_at
        return {
            "session": session.snapshot(),
            "daemon": {
                "sessions": n_sessions,
                "reaped_sessions": self.reaped_sessions,
                "worker_mode": self._worker_mode,
                "idle_timeout": self._idle_timeout,
                "max_sessions": self._max_sessions,
                "uptime_s": round(uptime, 3),
                "admission": self.admission.stats()
                if self.admission is not None else None,
                "warm_pool": self.warm_pool.stats()
                if self.warm_pool is not None
                else {"size": 0, "idle": 0, "claimed": 0},
            },
        }

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
