"""Multi-session scheduling for the Ibis daemon.

The paper's daemon serves ONE script that owns every resource; the
service the roadmap aims at has to host many concurrent users on a
shared machine.  This module holds both halves of that upgrade:

Server primitives (used by :class:`~repro.distributed.daemon.IbisDaemon`):

* :class:`SessionState` — one tenant's namespace: its pilots, its
  join token (minted at hello time, unguessable), and its accounting
  (calls, errors, bytes in/out, compute- and queue-seconds, warm-pool
  hits).  Worker ids are only resolvable through the owning session,
  so one tenant can never address another's pilots.
* :class:`AdmissionController` — fair admission of pilot calls when
  sessions outnumber cores: FIFO within a session, round-robin across
  sessions, with a queue-delay warning once load exceeds the Gateway
  exemplar's 0.8 threshold.
* :class:`WarmWorkerPool` — pre-spawned, parked subprocess workers
  (interpreter up, ``--preload`` imports done) that a ``start_worker``
  claims and activates, skipping the interpreter/import cost that
  dominates cold time-to-first-evolve.

Client surface (the redesigned entry point)::

    from repro.distributed import connect

    with connect(daemon_address) as session:
        gravity = session.code(PhiGRAPE, conv, channel_type="shm")
        gravity.evolve_model(1 | nbody_system.time)
        print(session.status()["session"]["accounting"])

:func:`connect` opens a control link, is granted a session at hello,
and returns a :class:`Session`; ``Session.code`` is the one way to
place pilots (every pilot channel it opens joins the same session via
the token), ``Session.status`` carries the daemon-side accounting plus
the merged client-side transport stats, and ``Session.close`` stops
the tenant's pilots and releases the session.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import os
import threading
import time
from collections import deque

from ..rpc.channel import merge_transport_stats
from ..rpc.protocol import ProtocolError, new_session_id

__all__ = [
    "AdmissionController",
    "Session",
    "SessionState",
    "WarmWorkerPool",
    "connect",
]

logger = logging.getLogger("repro.distributed.sessions")

#: per-session accounting surface; every key always present
ACCOUNTING_KEYS = (
    "calls", "errors", "bytes_in", "bytes_out", "compute_s",
    "queue_s", "warm_hits", "cold_spawns", "queue_warnings",
    "relay_frames",
)


# -- server side ------------------------------------------------------------


class SessionState:
    """Server-side record of one tenant session.

    Owns the pilot namespace (``workers``/``worker_meta`` keyed by
    worker id) and the accounting dict.  Mutation happens under the
    daemon's lock; the join ``token`` is the only credential that lets
    a second connection attach to the same namespace.
    """

    def __init__(self, sid=None, name=None):
        self.sid = sid or new_session_id()
        self.name = name
        self.token = new_session_id()
        self.workers = {}
        self.worker_meta = {}
        self.connections = 0
        self.active_calls = 0
        self.created = time.monotonic()
        self.last_activity = self.created
        self.accounting = {key: 0 for key in ACCOUNTING_KEYS}
        self.accounting["compute_s"] = 0.0
        self.accounting["queue_s"] = 0.0

    def touch(self):
        self.last_activity = time.monotonic()

    def idle_for(self):
        return time.monotonic() - self.last_activity

    def snapshot(self):
        """Status-endpoint view of this session (safe to pickle)."""
        accounting = {
            key: (round(value, 6) if isinstance(value, float) else value)
            for key, value in self.accounting.items()
        }
        return {
            "id": self.sid,
            "name": self.name,
            "workers": dict(self.worker_meta),
            "connections": self.connections,
            "active_calls": self.active_calls,
            "idle_s": round(self.idle_for(), 3),
            "age_s": round(time.monotonic() - self.created, 3),
            "accounting": accounting,
        }


class AdmissionController:
    """Fair admission of pilot calls when sessions outnumber slots.

    ``slots`` defaults to the core count.  Waiters queue FIFO within
    their session; grants rotate round-robin across sessions with
    pending work, so one chatty tenant cannot starve the others.
    ``acquire`` reports the queue delay and whether the controller was
    over the ``warn_load`` threshold (load = (active + waiting) /
    slots > 0.8 by default — the Gateway exemplar's warning line).

    ``close`` flips the controller into shutdown mode: queued waiters
    are cancelled, new arrivals are rejected, and the caller blocks —
    bounded — until in-flight calls drain.  This is what makes daemon
    shutdown deterministic instead of racing the reply threads.
    """

    def __init__(self, slots=None, warn_load=0.8):
        self.slots = int(slots) if slots else (os.cpu_count() or 4)
        self.warn_load = float(warn_load)
        self._cond = threading.Condition()
        self._queues = {}          # sid -> deque of waiting tickets
        self._rr = deque()         # sids with waiters, in grant order
        self._active = 0
        self._closed = False

    def _load_locked(self):
        waiting = sum(len(queue) for queue in self._queues.values())
        return (self._active + waiting) / self.slots

    @property
    def load(self):
        with self._cond:
            return self._load_locked()

    def stats(self):
        with self._cond:
            waiting = sum(len(q) for q in self._queues.values())
            return {
                "slots": self.slots,
                "active": self._active,
                "waiting": waiting,
                "load": round(self._load_locked(), 4),
            }

    def _grantable(self, sid, ticket):
        return (
            self._active < self.slots
            and self._rr
            and self._rr[0] == sid
            and self._queues[sid][0] is ticket
        )

    def _forget(self, sid, ticket):
        queue = self._queues.get(sid)
        if queue is not None:
            try:
                queue.remove(ticket)
            except ValueError:
                pass
            if not queue:
                del self._queues[sid]
                try:
                    self._rr.remove(sid)
                except ValueError:
                    pass

    def acquire(self, sid, timeout=None):
        """Wait for a slot; returns ``(queue_delay_s, overloaded)``.

        Raises :class:`RuntimeError` when the controller is (or goes)
        closed, :class:`TimeoutError` past *timeout*.
        """
        ticket = object()
        start = time.monotonic()
        deadline = None if timeout is None else start + timeout
        with self._cond:
            if self._closed:
                raise RuntimeError("admission controller closed")
            # load is judged BEFORE our own ticket joins: a single
            # call on an idle single-slot daemon is not overload
            overloaded = self._load_locked() > self.warn_load
            queue = self._queues.setdefault(sid, deque())
            queue.append(ticket)
            if sid not in self._rr:
                self._rr.append(sid)
            while not self._grantable(sid, ticket):
                if self._closed:
                    self._forget(sid, ticket)
                    raise RuntimeError("daemon shutting down")
                remaining = None if deadline is None else \
                    deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    self._forget(sid, ticket)
                    raise TimeoutError(
                        f"admission wait exceeded {timeout}s"
                    )
                self._cond.wait(remaining)
            # grant: consume the ticket and rotate the session to the
            # tail so the next grant goes to a DIFFERENT session
            queue.popleft()
            self._rr.popleft()
            if queue:
                self._rr.append(sid)
            else:
                del self._queues[sid]
            self._active += 1
            self._cond.notify_all()
            return time.monotonic() - start, overloaded

    def release(self):
        with self._cond:
            self._active -= 1
            self._cond.notify_all()

    @contextlib.contextmanager
    def admit(self, session):
        """Hold a slot for one pilot call of *session*, accounting its
        queue delay, overload warnings and compute time; a closed
        controller refuses with :class:`ProtocolError`."""
        try:
            delay, overloaded = self.acquire(session.sid)
        except RuntimeError as exc:
            raise ProtocolError(str(exc)) from None
        session.accounting["queue_s"] += delay
        if overloaded:
            session.accounting["queue_warnings"] += 1
            logger.warning(
                "daemon load %.2f above %.2f: session %s queued %.1f ms",
                self.load, self.warn_load, session.sid, delay * 1e3,
            )
        started = time.monotonic()
        try:
            yield
        finally:
            session.accounting["compute_s"] += time.monotonic() - started
            self.release()

    def close(self, drain_timeout=5.0):
        """Reject new work, cancel waiters, drain active calls.

        Returns True when every in-flight call finished within the
        bound (the deterministic-shutdown guarantee the old daemon
        lacked)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            deadline = time.monotonic() + drain_timeout
            while self._active > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            drained = self._active == 0
            self._queues.clear()
            self._rr.clear()
            return drained


class WarmWorkerPool:
    """Pool of pre-spawned, parked subprocess workers.

    Each entry is a :class:`~repro.rpc.subproc.SubprocessChannel`
    built with ``warm=True``: the child interpreter is up and its
    ``--preload`` imports are done, but no interface factory has been
    shipped yet.  ``claim`` hands such a channel to a ``start_worker``,
    which activates it with the tenant's factory — time-to-first-evolve
    then skips interpreter startup and the heavy imports entirely
    (``benchmarks/bench_sessions.py`` measures the ratio).

    A background filler keeps the pool at *size*; parked children are
    health-checked at claim time (a silently-died child is discarded,
    never handed out).
    """

    #: modules a parked worker imports before connecting back; numpy
    #: plus the codes package dominate cold import time
    DEFAULT_PRELOAD = ("numpy", "repro.codes")

    def __init__(self, size, preload=None):
        self.size = int(size)
        self.preload = list(
            self.DEFAULT_PRELOAD if preload is None else preload
        )
        self._idle = deque()
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stopped = False
        self._filler = None
        self.claimed = 0
        if self.size > 0:
            self._filler = threading.Thread(
                target=self._fill_loop, name="warm-pool-filler",
                daemon=True,
            )
            self._filler.start()

    def _spawn(self):
        from ..rpc.subproc import SubprocessChannel

        return SubprocessChannel(warm=True, preload=self.preload)

    def _fill_loop(self):
        while not self._stopped:
            with self._lock:
                deficit = self.size - len(self._idle)
            if deficit <= 0:
                self._wake.wait(timeout=1.0)
                self._wake.clear()
                continue
            try:
                channel = self._spawn()
            except Exception:  # noqa: BLE001 - pool refill best-effort
                logger.exception("warm pool spawn failed")
                time.sleep(0.5)
                continue
            with self._lock:
                stopped = self._stopped
                if not stopped:
                    self._idle.append(channel)
            if stopped:
                channel.stop()
                return

    @property
    def idle_count(self):
        with self._lock:
            return len(self._idle)

    def stats(self):
        with self._lock:
            return {
                "size": self.size,
                "idle": len(self._idle),
                "claimed": self.claimed,
                "preload": list(self.preload),
            }

    def ready(self, count=None, timeout=10.0):
        """Block until *count* (default: pool size) workers are parked
        — lets benches exclude fill time from warm measurements."""
        want = min(self.size, self.size if count is None else count)
        deadline = time.monotonic() + timeout
        while self.idle_count < want:
            if self._stopped or time.monotonic() > deadline:
                return False
            time.sleep(0.01)
        return True

    def claim(self):
        """Pop a healthy parked channel, or None (caller spawns cold).

        Health check: a parked child that already exited is reaped and
        skipped."""
        while True:
            with self._lock:
                if self._stopped or not self._idle:
                    return None
                channel = self._idle.popleft()
                self.claimed += 1
            self._wake.set()
            if channel.alive():
                return channel
            with self._lock:
                self.claimed -= 1
            channel.stop()

    def stop(self):
        """Discard every parked worker (socket-close discard — the
        parked child exits cleanly on EOF) and stop refilling."""
        with self._lock:
            self._stopped = True
            idle = list(self._idle)
            self._idle.clear()
        self._wake.set()
        for channel in idle:
            try:
                channel.stop()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
        if self._filler is not None:
            from ..rpc.subproc import SPAWN_TIMEOUT

            # the filler may be mid-spawn, waiting on a child's connect
            self._filler.join(timeout=SPAWN_TIMEOUT)


# -- client side ------------------------------------------------------------


def _format_address(address):
    """Human-readable form of a daemon address (TCP pair or the
    abstract AF_UNIX name, shown with ``@`` for its NUL byte)."""
    if isinstance(address, str):
        return address.replace("\0", "@", 1)
    return f"{address[0]}:{address[1]}"


def _resolve_address(target):
    """Accept an IbisDaemon, a ``(host, port)`` pair or "host:port".

    A daemon instance resolves to its abstract AF_UNIX address when it
    has one — the caller holds an in-process handle, so it is on the
    daemon's host by construction and the Unix-socket fast path is
    always valid (and measurably faster for relayed bulk transfers).
    """
    address = getattr(target, "address", None)
    if address is not None and not isinstance(target, (tuple, list, str)):
        unix = getattr(target, "unix_address", None)
        if unix:
            return unix
        return tuple(address)
    if isinstance(target, str):
        host, _, port = target.rpartition(":")
        if not port:
            raise ValueError(
                f"daemon address {target!r} is not 'host:port'"
            )
        return (host or "127.0.0.1", int(port))
    host, port = target
    return (str(host), int(port))


class Session:
    """A tenant's handle on a multi-session daemon.

    Created by :func:`connect`; holds the control link plus the join
    token every pilot channel uses to attach to the same daemon-side
    namespace.  ``code()`` is the one way to place pilots.
    """

    def __init__(self, link, address, name=None, worker_mode=None,
                 compress="auto", relay=False):
        self._link = link
        self.address = address if isinstance(address, str) \
            else tuple(address)
        self.name = name
        self.id = link.session_id
        self.token = link.session_token
        self.default_worker_mode = worker_mode
        self.default_compress = compress
        self.default_relay = bool(relay)
        self._placed = []
        # closed-pilot accumulator: (channel, last good transport
        # snapshot) for EVERY channel this session ever observed, so
        # status() keeps counting pilots that were stopped or replaced
        # (restart_worker swaps item.channel) mid-session.  The strong
        # channel ref pins id() uniqueness for the dict key.
        self._transport_seen = {}
        #: per-campaign accounting fed by CampaignRunner members
        self._campaigns = {}
        self._lock = threading.Lock()
        self._closed = False

    def _check_open(self):
        if self._closed:
            raise ProtocolError(f"session {self.id} is closed")

    def _channel_spec(self, worker_mode=None, channel_options=None):
        """``(channel_type, channel_options)`` pair that routes a
        :class:`~repro.codes.highlevel.CommunityCode` through this
        session (used by its ``session=`` constructor kwarg)."""
        options = dict(channel_options or {})
        options.setdefault(
            "worker_mode", worker_mode or self.default_worker_mode
        )
        options.setdefault("compress", self.default_compress)
        options.setdefault("relay", self.default_relay)
        options["session"] = self
        return "ibis", options

    def _adopt(self, placed):
        with self._lock:
            self._placed.append(placed)
        return placed

    def code(self, target, *args, channel_type=None, worker_mode=None,
             resource="local", node_count=1, channel_options=None,
             **kwargs):
        """Place a pilot in this session.

        *target* is either a :class:`~repro.codes.highlevel.
        CommunityCode` subclass — instantiated with its channel routed
        through this session, positional/keyword args forwarded — or a
        plain interface factory, for which the pilot channel itself is
        returned.  *channel_type* (alias *worker_mode*) picks the
        daemon-side pilot mode: "thread", "subprocess" or "shm".
        """
        self._check_open()
        mode = worker_mode or channel_type
        options = dict(channel_options or {})
        options.setdefault("resource", resource)
        options.setdefault("node_count", node_count)
        from ..codes.highlevel import CommunityCode
        if isinstance(target, type) and issubclass(target, CommunityCode):
            placed = target(
                *args, session=self, channel_type=mode,
                channel_options=options, **kwargs
            )
        else:
            from .channel import DistributedChannel

            if args or kwargs:
                # constructor args travel inside the pickled factory
                target = functools.partial(target, *args, **kwargs)
            _, options = self._channel_spec(mode, options)
            placed = DistributedChannel(target, **options)
        return self._adopt(placed)

    def echo(self, payload):
        """Round-trip *payload* over the control link (bench surface)."""
        self._check_open()
        return self._link.echo(payload)

    def note_campaign_member(self, campaign, status, wall_s,
                             restarts=0):
        """Bill one ensemble-campaign member outcome to this session.

        Called by :class:`~repro.ensemble.runner.CampaignRunner` as
        members finish; the totals surface under ``status()``'s
        ``campaigns`` key so daemon-side accounting and campaign
        accounting read off the same endpoint.
        """
        if status not in ("ok", "failed", "cached"):
            raise ValueError(f"unknown member status {status!r}")
        with self._lock:
            entry = self._campaigns.setdefault(str(campaign), {
                "members": 0, "ok": 0, "failed": 0, "cached": 0,
                "wall_s": 0.0, "restarts": 0,
            })
            entry["members"] += 1
            entry[status] += 1
            entry["wall_s"] += float(wall_s)
            entry["restarts"] += int(restarts)

    def _transport_snapshots(self):
        """Refresh and return every channel snapshot, live or retired.

        Live channels are re-polled; a channel whose stats can no
        longer be read — or that was replaced by ``restart_worker``
        and is no longer reachable through ``_placed`` — keeps its
        last good snapshot, so merged totals never go backwards when
        a pilot stops mid-session.
        """
        for item in self._placed:
            channel = getattr(item, "channel", item)
            try:
                snapshot = dict(channel.transport_stats)
            except Exception:  # noqa: BLE001 - keep last good snapshot
                continue
            self._transport_seen[id(channel)] = (channel, snapshot)
        return [
            snapshot for _, snapshot in self._transport_seen.values()
        ]

    def status(self):
        """Daemon-side accounting for this session plus the merged
        client-side transport stats of every channel it opened —
        including pilots already stopped or respawned, via the
        closed-pilot accumulator."""
        self._check_open()
        info = self._link.status()
        with self._lock:
            stats = (
                [self._link.transport_stats]
                + self._transport_snapshots()
            )
            info["campaigns"] = {
                name: dict(entry)
                for name, entry in self._campaigns.items()
            }
        info["client_transport"] = merge_transport_stats(stats)
        return info

    def close(self, stop_codes=True):
        """Stop this tenant's pilots and release the daemon session.

        Idempotent; with ``stop_codes=False`` only the session is
        released (pilots must already be stopped)."""
        if self._closed:
            return
        self._closed = True
        if stop_codes:
            with self._lock:
                placed = list(self._placed)
                self._placed.clear()
            for item in placed:
                stop = getattr(item, "stop", None)
                if stop is None:
                    continue
                try:
                    stop()
                except Exception:  # noqa: BLE001 - teardown best-effort
                    pass
        self._link.close_session()
        self._link.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self):
        state = "closed" if self._closed else "open"
        return (
            f"<Session {self.id} ({state}) at "
            f"{_format_address(self.address)}>"
        )


def connect(address, *, name=None, worker_mode=None, compress="auto",
            relay=False):
    """Open a :class:`Session` against a running Ibis daemon.

    *address* is an :class:`~repro.distributed.daemon.IbisDaemon`
    instance, a ``(host, port)`` pair, or a ``"host:port"`` string
    (the form printed by ``python -m repro.distributed.daemon``).
    *name* labels the session in ``status()`` output; *worker_mode*,
    *compress* and *relay* become the session's defaults for pilots
    placed via :meth:`Session.code` (``relay=True`` routes pilot
    traffic through the daemon's zero-decode splice instead of the
    decoded dispatcher).

    Raises :class:`~repro.rpc.protocol.RemoteError` when the daemon
    rejects the session (``--max-sessions`` reached) and
    :class:`~repro.rpc.protocol.ProtocolError` against a daemon
    speaking another protocol version.
    """
    from .channel import _DaemonLink

    addr = _resolve_address(address)
    link = _DaemonLink(address=addr, session_name=name)
    return Session(
        link, addr, name=name, worker_mode=worker_mode,
        compress=compress, relay=relay,
    )
