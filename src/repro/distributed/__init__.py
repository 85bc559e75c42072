"""Distributed AMUSE: daemon, sessions, ibis channel, pilots, jungle
runner.

The paper's jungle-computing model (Sec. 5) runs simulations through a
local **Ibis daemon**: the coupler script talks to a loopback gateway
which starts and proxies workers on whatever resources are reachable.
This package reproduces that stack and extends it into a multi-tenant
service:

Quick start — run the daemon as a service, then connect::

    $ python -m repro.distributed.daemon --warm-pool 2 --idle-timeout 300
    ibis daemon listening on 127.0.0.1:43211

    from repro.distributed import connect

    with connect("127.0.0.1:43211") as session:
        gravity = session.code(PhiGRAPE, conv, channel_type="shm")
        gravity.evolve_model(1 | nbody_system.time)
        print(session.status()["session"]["accounting"])

Public surface:

* :func:`connect` → :class:`Session` — THE way to place pilots on a
  daemon.  Every session is an isolated namespace: its pilots are
  addressable only through connections holding its token, its calls
  pass fair admission control (FIFO within the session, round-robin
  across sessions), and ``Session.status()`` reports its accounting
  (calls, bytes, compute/queue seconds, warm-pool hits) next to the
  merged client-side transport stats.
* :class:`IbisDaemon` — the server.  Embed it (``with IbisDaemon(...)
  as daemon:``) or run ``python -m repro.distributed.daemon`` with
  ``--warm-pool N`` (pre-spawned subprocess workers that cut
  time-to-first-evolve), ``--max-sessions M`` and ``--idle-timeout S``.
* :class:`DistributedChannel` — the wire layer underneath a session's
  pilots.  Constructed directly, each channel is its own
  single-tenant session.
* The modeled wide-area side: :class:`DistributedAmuse`,
  :class:`ResourceSpec`, :class:`Pilot`, :class:`JungleRunner`,
  :class:`FaultPolicy`, :class:`WorkerDiedError` and
  :func:`discover_placement` — reservation/queueing semantics of the
  paper's testbed, independent of the live daemon.
"""

from .channel import DistributedChannel
from .core import (
    DistributedAmuse,
    FaultPolicy,
    JungleRunner,
    Pilot,
    ResourceSpec,
    WorkerDiedError,
)
from .discovery import discover_placement
from .session import Session, connect


def __getattr__(name):
    # IbisDaemon loads lazily so `python -m repro.distributed.daemon`
    # does not re-import the module runpy is about to execute (the
    # sys.modules RuntimeWarning)
    if name == "IbisDaemon":
        from .daemon import IbisDaemon

        return IbisDaemon
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

__all__ = [
    "connect",
    "Session",
    "IbisDaemon",
    "DistributedChannel",
    "DistributedAmuse",
    "ResourceSpec",
    "Pilot",
    "JungleRunner",
    "FaultPolicy",
    "WorkerDiedError",
    "discover_placement",
]
