"""The subprocess channel — TRUE off-process workers.

AMUSE runs every community code as a separate OS process talking to the
coupler over a socket (paper Sec. 4.1; the MPI and sockets channels
both spawn real worker executables).  The in-process channels of this
reproduction share the coupler's GIL, so concurrent ``evolve_model``
calls only overlap while workers sleep or wait on IO — numpy kernels
serialize.  This module restores the real AMUSE process model:

* :func:`main` — the worker bootstrap entrypoint.  ``python -m
  repro.rpc.subproc --connect host:port --interface mod:Class`` connects
  back to the spawning channel, receives the pickled interface factory
  in a bootstrap frame, instantiates the interface and hands the socket
  to the existing :func:`~repro.rpc.channel.worker_loop` — the same
  loop, the same wire protocol (hello capability handshake included),
  but with its own interpreter and its own GIL.
* :class:`SubprocessChannel` — the coupler side: spawns the child,
  bootstraps it, and then behaves exactly like the sockets channel
  (pipelined async calls, ``batch()`` multi-call frames, zero-copy
  out-of-band buffers).

Lifecycle guarantees:

* ``stop()`` asks the worker to stop over the wire, then escalates:
  bounded wait for a clean exit, ``terminate()`` (SIGTERM), bounded
  wait, ``kill()`` (SIGKILL).  It never hangs on a wedged child.
* a child that dies unexpectedly surfaces as
  :class:`~repro.rpc.protocol.ConnectionLostError` carrying the exit
  code and a tail of the child's captured stderr — on every in-flight
  request, and again from ``stop()``.
* children that were never stopped (crashed scripts) are reaped by an
  ``atexit`` hook, so no orphan worker outlives the coupler.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import os
import pickle
import secrets
import socket
import subprocess
import sys
import threading
import traceback
import warnings

from .channel import StreamChannel, register_channel_factory, worker_loop
from .protocol import (
    ConnectionLostError,
    ProtocolError,
    RemoteError,
    recv_frame,
    send_frame,
)

__all__ = ["SubprocessChannel", "main"]

#: how much captured child stderr is kept for crash reports
_STDERR_TAIL_BYTES = 8192


# -- orphan reaping ---------------------------------------------------------

_live_children = set()
_live_children_lock = threading.Lock()


def _track_child(proc):
    with _live_children_lock:
        _live_children.add(proc)


def _untrack_child(proc):
    with _live_children_lock:
        _live_children.discard(proc)


@atexit.register
def _reap_orphans():
    """Terminate-then-kill any worker child still alive at interpreter
    exit — a crashed script must not leave orphan workers burning CPU."""
    with _live_children_lock:
        children = list(_live_children)
        _live_children.clear()
    for proc in children:
        if proc.poll() is None:
            proc.terminate()
    for proc in children:
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# -- coupler side -----------------------------------------------------------


def _interface_spec(interface_factory):
    """Best-effort "module:Class" label for the spawned command line —
    makes the worker identifiable in ``ps`` output.  The pickled
    factory sent over the socket is authoritative."""
    target = interface_factory
    if isinstance(target, functools.partial):
        target = target.func
    module = getattr(target, "__module__", None)
    qualname = getattr(target, "__qualname__", None)
    if module and qualname and "<" not in qualname:
        return f"{module}:{qualname}"
    return None


def _child_env():
    """Child environment with the ``repro`` package importable."""
    env = os.environ.copy()
    src_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not existing else \
        src_root + os.pathsep + existing
    return env


class SubprocessChannel(StreamChannel):
    """Channel to a worker running in a spawned child process.

    The listener is bound on loopback, the child is spawned with
    ``--connect host:port``, connects back, receives the pickled
    interface factory, and serves :func:`worker_loop` — real pipelined
    RPC to a worker with its own GIL, so concurrent numpy kernels
    genuinely overlap (see ``benchmarks/bench_async_overlap.py``).
    """

    kind = "subprocess"
    _lost_message = "subprocess worker connection lost"

    def __init__(self, interface_factory=None, host="127.0.0.1",
                 spawn_timeout=30.0, stop_timeout=10.0,
                 kill_timeout=5.0, compress=None, compress_min=None,
                 shm_segment_size=None, shm_min=None,
                 warm=False, preload=None):
        super().__init__()
        warm = warm or interface_factory is None
        if warm and interface_factory is not None:
            raise ValueError(
                "warm=True pre-spawns a factory-less worker; pass the "
                "interface factory to activate() instead"
            )
        self._spawn_timeout = float(spawn_timeout)
        self._stop_timeout = float(stop_timeout)
        self._kill_timeout = float(kill_timeout)
        self._compress_min = compress_min
        self._shm_min = shm_min
        self._escalated = False
        self._activated = False
        self._proc = None
        self._stderr_buf = bytearray()
        self._stderr_lock = threading.Lock()
        self._stderr_thread = None
        self._reader_thread = None

        # same-host child: prefer an abstract-namespace AF_UNIX
        # listener over loopback TCP — faster bulk transfers (and
        # faster still under the daemon's zero-decode splice, which
        # can kernel-splice between Unix sockets), nothing on the
        # filesystem to clean up.  A non-default host means the
        # caller wants a routable listener: keep TCP.
        if host == "127.0.0.1" and hasattr(socket, "AF_UNIX"):
            listener = socket.socket(
                socket.AF_UNIX, socket.SOCK_STREAM
            )
            bind_to = (f"\0repro-worker-{os.getpid()}-"
                       f"{secrets.token_hex(4)}")
        else:
            listener = socket.socket(
                socket.AF_INET, socket.SOCK_STREAM
            )
            bind_to = (host, 0)
        try:
            listener.bind(bind_to)
            listener.listen(1)
            listener.settimeout(self._spawn_timeout)
            if listener.family == socket.AF_INET:
                self.address = listener.getsockname()
                connect_arg = f"{self.address[0]}:{self.address[1]}"
            else:
                self.address = bind_to
                connect_arg = "unix:" + bind_to.replace("\0", "@", 1)

            command = [
                sys.executable, "-m", "repro.rpc.subproc",
                "--connect", connect_arg,
            ]
            if preload:
                command += ["--preload", ",".join(preload)]
            spec = None if interface_factory is None else \
                _interface_spec(interface_factory)
            if spec is not None:
                command += ["--interface", spec]
            self._proc = subprocess.Popen(
                command, env=_child_env(), stderr=subprocess.PIPE,
            )
            _track_child(self._proc)
            self._stderr_thread = threading.Thread(
                target=self._drain_stderr, name="subproc-stderr",
                daemon=True,
            )
            self._stderr_thread.start()

            # the child connects back only after its --preload imports
            # completed, so a returned accept IS the warm-ready signal
            self._sock, _ = listener.accept()
            if self._sock.family == socket.AF_INET:
                self._sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
        except BaseException as exc:
            raise self._wrap_spawn_failure(exc, listener) from exc
        finally:
            try:
                listener.close()
            except OSError:
                pass

        if not warm:
            self.activate(
                interface_factory, compress=compress,
                compress_min=compress_min,
                shm_segment_size=shm_segment_size, shm_min=shm_min,
            )

    def activate(self, interface_factory, compress=None,
                 compress_min=None, shm_segment_size=None,
                 shm_min=None):
        """Bootstrap a spawned worker: ship the factory, negotiate the
        wire (compression/shm/cancel), start the reader thread.

        Runs as part of ``__init__`` for a cold spawn; a warm-pool
        channel (``warm=True``) parks after the spawn — interpreter up,
        ``--preload`` imports done, child blocked waiting for the
        factory frame — and is activated here at claim time, skipping
        everything that makes cold spawns slow.
        """
        if self._activated:
            raise ProtocolError("subprocess channel already activated")
        self._compress_min = compress_min
        self._shm_min = shm_min
        try:
            self._sock.settimeout(self._spawn_timeout)
            self._bootstrap(interface_factory)
            caps = self._offer_capabilities(
                compress=compress, compress_min=compress_min,
                shm_segment_size=shm_segment_size, shm_min=shm_min,
            )
            self._negotiate_hello(caps)
            self._sock.settimeout(None)
        except BaseException as exc:
            raise self._wrap_spawn_failure(exc, None) from exc
        self._activated = True
        self._reader_thread = threading.Thread(
            target=self._read_responses, name="subproc-reader",
            daemon=True,
        )
        self._reader_thread.start()
        return self

    def detach_for_relay(self, interface_factory):
        """Bootstrap the child for a relay, WITHOUT negotiating a wire.

        Ships the pickled factory and waits for the pid ack — the same
        first half as :meth:`activate` — but deliberately performs no
        hello and starts no reader thread: on a daemon-relayed pilot
        the *client* negotiates capabilities end to end through the
        splice, so the daemon leg must stay a dumb byte pipe.  Returns
        the raw socket for the relay pump; the channel itself stays
        un-activated, so ``stop()`` takes the parked-worker path
        (close + escalate) for teardown.
        """
        if self._activated:
            raise ProtocolError(
                "subprocess channel already activated; a relay detach "
                "needs a parked worker"
            )
        try:
            self._sock.settimeout(self._spawn_timeout)
            self._bootstrap(interface_factory)
            self._sock.settimeout(None)
        except BaseException as exc:
            raise self._wrap_spawn_failure(exc, None) from exc
        return self._sock

    def death_info(self):
        """Obituary for a relay-detached worker: pid, exit code (the
        child is reaped when it just died) and the stderr tail — the
        payload of the daemon's ``relay_lost`` frame, mirroring what
        :meth:`_connection_lost_error` reports for local children."""
        returncode = None
        try:
            returncode = self._proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            pass
        else:
            _untrack_child(self._proc)
        message = (
            f"relayed pilot (worker pid {self._proc.pid}) "
            "connection lost"
        )
        return {
            "message": message,
            "pid": self._proc.pid,
            "returncode": returncode,
            "stderr_tail": self._stderr_tail().strip(),
        }

    def _wrap_spawn_failure(self, exc, listener):
        """Shared constructor/activate failure path: tear down, enrich
        transport errors with the child's fate, return what to raise."""
        self._abort_spawn(listener)
        if isinstance(exc, (socket.timeout, OSError, ProtocolError)) \
                and not isinstance(exc, ConnectionLostError):
            error = ConnectionLostError(
                "subprocess worker failed to come up: "
                f"{type(exc).__name__}: {exc}"
                f"{self._stderr_suffix()}",
                returncode=self._returncode(),
                stderr_tail=self._stderr_tail(),
            )
            error.__cause__ = exc
            return error
        return exc

    # -- spawn / bootstrap --------------------------------------------------

    def alive(self):
        """True while the worker child has not exited (a parked warm
        worker may die silently; the pool health-checks with this)."""
        return self._proc is not None and self._proc.poll() is None

    @property
    def pid(self):
        """OS process id of the worker child."""
        return self._proc.pid

    def _bootstrap(self, interface_factory):
        """Ship the pickled factory; the child acks once the interface
        is constructed (or reports the constructor's failure)."""
        factory_bytes = pickle.dumps(interface_factory, protocol=5)
        self.bytes_sent += send_frame(
            self._sock, ("factory", 0, factory_bytes)
        )
        reply = recv_frame(self._sock)
        if reply[0] == "error":
            _kind, _call_id, exc_class, msg, tb = reply
            raise RemoteError(exc_class, msg, tb)
        self.worker_pid = reply[2]["pid"]

    def _abort_spawn(self, listener):
        """Constructor failure: close sockets, release any offered shm
        segments and put the child down."""
        self._release_shm()
        for sock in (self._sock, listener):
            try:
                if sock is not None:
                    sock.close()
            except OSError:
                pass
        self._sock = None
        if self._proc is not None:
            self._escalate_shutdown()

    def _drain_stderr(self):
        stream = self._proc.stderr
        while True:
            chunk = stream.read1(4096)
            if not chunk:
                return
            with self._stderr_lock:
                self._stderr_buf += chunk
                del self._stderr_buf[:-_STDERR_TAIL_BYTES]

    def _stderr_tail(self):
        if self._stderr_thread is not None:
            # the pipe closes when the child dies; give the drain
            # thread a moment to pull the last chunk through
            self._stderr_thread.join(timeout=1.0)
        with self._stderr_lock:
            return bytes(self._stderr_buf).decode("utf-8", "replace")

    def _stderr_suffix(self):
        tail = self._stderr_tail().strip()
        return f"; stderr tail:\n{tail}" if tail else ""

    def _returncode(self):
        return None if self._proc is None else self._proc.poll()

    # -- death reporting ----------------------------------------------------

    def _connection_lost_error(self):
        """Enrich the loss error with the child's fate: reap it (it is
        gone or going) and attach exit code plus captured stderr."""
        returncode = None
        try:
            returncode = self._proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            pass
        else:
            _untrack_child(self._proc)
        message = (
            f"subprocess worker (pid {self._proc.pid}) connection lost"
        )
        if returncode is not None:
            message += f" (exit code {returncode})"
        tail = self._stderr_tail().strip()
        if tail:
            message += f"; stderr tail:\n{tail}"
        return ConnectionLostError(
            message, returncode=returncode, stderr_tail=tail,
        )

    # -- shutdown -----------------------------------------------------------

    def _escalate_shutdown(self):
        """Bounded wait → terminate → bounded wait → kill → wait.

        Returns the child's exit code.  Sets ``_escalated`` when the
        exit was forced by us (so a -SIGTERM/-SIGKILL return code is
        not misread as a worker crash)."""
        proc = self._proc
        try:
            try:
                return proc.wait(timeout=self._stop_timeout)
            except subprocess.TimeoutExpired:
                pass
            self._escalated = True
            proc.terminate()
            try:
                return proc.wait(timeout=self._kill_timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                return proc.wait()
        finally:
            _untrack_child(proc)

    def _describe(self):
        return f"subprocess channel (worker pid {self._proc.pid})"

    def stop(self):
        """Stop the worker and reap the child.

        Repeated calls are idempotent.  A child that had ALREADY died
        with a nonzero exit code (a crash, not our escalation) raises
        :class:`ConnectionLostError` carrying its stderr tail — after
        the process and sockets are fully released, so the error never
        costs the cleanup.
        """
        if not self._activated:
            # parked warm worker: no reader thread is running, so a
            # wire stop would wait out its timeout unanswered — closing
            # the socket is the discard signal (the child exits cleanly
            # on EOF while awaiting the factory frame)
            self._stopped = True
            if self._closed:
                return
            self._closed = True
            try:
                if self._sock is not None:
                    self._sock.close()
            except OSError:
                pass
            self._escalate_shutdown()
            self._release_shm()
            return
        # an unacknowledged remote stop needs no warning here: the
        # escalation below deals with the child either way
        if not self._begin_stop():
            return
        returncode = self._escalate_shutdown()
        # the child is reaped (cleanly, or via terminate/kill): the
        # segments must never outlive it, whatever path got us here
        self._release_shm()
        if self._escalated:
            warnings.warn(
                f"{self._describe()}: worker did not exit within "
                f"{self._stop_timeout}s; escalated to "
                "terminate/kill",
                RuntimeWarning, stacklevel=2,
            )
        elif returncode:
            raise ConnectionLostError(
                f"subprocess worker (pid {self._proc.pid}) exited "
                f"with code {returncode}{self._stderr_suffix()}",
                returncode=returncode,
                stderr_tail=self._stderr_tail(),
            )


register_channel_factory("subprocess", SubprocessChannel)


# -- worker side ------------------------------------------------------------


def _load_interface(spec):
    """Resolve a "module:Class" spec to the interface class."""
    module_name, _, qualname = spec.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def main(argv=None):
    """Worker bootstrap: connect back, build the interface, serve.

    Spawned as ``python -m repro.rpc.subproc --connect host:port
    --interface mod:Class``.  The authoritative interface factory
    arrives pickled in the first frame; ``--interface`` is the fallback
    (and the human-readable label in process listings).
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.rpc.subproc",
        description="repro worker bootstrap (spawned by "
                    "SubprocessChannel)",
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT|unix:@NAME",
        help="address of the spawning channel's listener (TCP "
             "host:port, or unix:@name for an abstract AF_UNIX "
             "socket)",
    )
    parser.add_argument(
        "--interface", default=None, metavar="MOD:CLASS",
        help="interface class (fallback when the bootstrap frame "
             "carries no factory)",
    )
    parser.add_argument(
        "--preload", default=None, metavar="MOD[,MOD...]",
        help="comma-separated modules imported before connecting back "
             "(warm-pool spawns pay import cost up front)",
    )
    args = parser.parse_args(argv)

    # preload BEFORE connecting back: the parent treats its returned
    # accept() as the warm-ready signal, so the imports must be done
    if args.preload:
        for name in args.preload.split(","):
            if not name:
                continue
            try:
                importlib.import_module(name)
            except Exception:  # noqa: BLE001 - warm-up is best-effort
                traceback.print_exc(file=sys.stderr)

    if args.connect.startswith("unix:"):
        name = args.connect[len("unix:"):]
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.connect(name.replace("@", "\0", 1))
    else:
        host, _, port = args.connect.rpartition(":")
        conn = socket.create_connection((host, int(port)))
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    try:
        message = recv_frame(conn)
    except (ProtocolError, OSError):
        # EOF while parked: the spawner discarded this warm worker
        # before ever activating it — a clean, silent exit
        return 0
    kind, call_id, *rest = message
    if kind != "factory":
        send_frame(conn, ("error", call_id, "ProtocolError",
                          f"expected factory frame, got {kind!r}", ""))
        return 1
    try:
        factory_bytes = rest[0]
        if factory_bytes is not None:
            factory = pickle.loads(factory_bytes)
        elif args.interface is not None:
            factory = _load_interface(args.interface)
        else:
            raise ProtocolError(
                "no factory in bootstrap frame and no --interface"
            )
        interface = factory()
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        send_frame(conn, ("error", call_id, type(exc).__name__,
                          str(exc), traceback.format_exc()))
        return 1
    send_frame(conn, ("result", call_id, {"pid": os.getpid()}))

    worker_loop(interface, conn)
    return 0


if __name__ == "__main__":
    sys.exit(main())
