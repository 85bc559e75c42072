"""High-level (script-side) model code wrappers — async-first API.

These are the objects an AMUSE script instantiates: they hide the channel
and the worker behind a units-checked interface.  "This API is based as
much as possible on the physical interactions of the different types of
models, rather than their underlying numerical representation" (paper
Sec. 4.1) — and "AMUSE implements ... automatic unit conversion", which
happens here: gravity/hydro workers run in N-body units internally, the
script sees SI quantities through a
:class:`~repro.units.nbody.ConvertBetweenGenericAndSiUnits`.

**The API is async-first.**  Every remote operation ``code.m(...)`` also
exists as ``code.m.async_(...)``, which returns a *unit-aware future*
(:class:`~repro.rpc.futures.Future` / ``QuantityFuture``) instead of
blocking; unit conversion and mirror refreshes happen at
future-resolution time, in the joining thread.  The blocking form is a
thin shim — exactly ``async_(...).result()`` — so legacy scripts keep
working unchanged while concurrent ones overlap their models, the
paper's core performance claim ("multiple simulations ... executed
concurrently", Sec. 5).  Illegal overlaps (a second evolve, particle
edits or ``stop`` while an evolve future is outstanding) raise
:class:`~repro.codes.base.CodeStateError` eagerly in the caller.

**Each code's remote surface is a table.**  A wrapper declares what
its worker exposes as rows, and one factory per row kind derives the
remote operations from them — both call forms, the state guard and the
unit conversion — the way AMUSE generates its channel-side stubs from a
specified interface (paper Sec. 4):

* ``_STATE_ATTRS`` — the particle columns, as (worker getter, worker
  setter, mirror attribute, code unit) in the order the worker's
  ``new_particle`` takes them.  ``add_particles``, ``pull_state``,
  ``push_state`` and the RESTART replay of ``restart_worker`` all walk
  it.
* ``name = _query(method, unit)`` — a worker call whose result is
  converted to script units at join time (energies, potentials, the
  bridge field queries, the model clock).  Refused on a stopped code.
* ``name = _mutation(name, method, unit)`` — a worker call that writes
  particle state with one converted argument (kicks, mass pushes,
  energy injection).  A transition: refused on a stopped code or while
  an evolve is in flight.

To expose another worker call, add a row — a column, a ``_query`` or a
``_mutation`` line in the class body — not a method.  Hand-written
remote methods are kept for calls with logic of their own: the evolve,
whose mirror refresh (the ``_pull_requests`` getters that
``pull_state`` also sends) travels right behind it on the same
connection, and the batched state sync.

Blocking usage (unchanged from the classic API)::

    conv = nbody_system.nbody_to_si(1000 | units.MSun, 1 | units.parsec)
    gravity = PhiGRAPE(conv, channel_type="sockets", kernel="gpu")
    gravity.add_particles(stars)
    gravity.evolve_model(1.0 | units.Myr)
    gravity.stop()

Concurrent usage — gravity, hydro and stellar evolution advance
simultaneously on their own resources and join at the coupling point::

    from repro.codes import EvolveGroup

    group = EvolveGroup([gravity, hydro, se])
    group.evolve(1.0 | units.Myr)          # overlapped, joined

    # or hand-rolled with futures:
    f1 = gravity.evolve_model.async_(1.0 | units.Myr)
    f2 = hydro.evolve_model.async_(1.0 | units.Myr)
    wait_all([f1, f2])
"""

from __future__ import annotations

import functools

import numpy as np

from ..datamodel import Particles
from ..rpc import (
    Future,
    ProtocolError,
    QuantityFuture,
    new_channel,
    remote_method,
    wait_all,
)
from ..units import nbody as nbody_system
from ..units import units as u
from ..units.core import Quantity
from .base import CodeStateError, InflightTracker
from .gadget import GadgetInterface
from .phigrape import PhiGRAPEInterface
from .sse import SSEInterface
from .treecode import FiInterface, OctgravInterface

__all__ = [
    "CommunityCode",
    "GravitationalDynamicsCode",
    "PhiGRAPE",
    "Octgrav",
    "Fi",
    "Gadget",
    "SSE",
]


def _query(method, unit, ids=False, field=False):
    """Row factory for a converted query: worker *method* — called
    with this code's particle ids when *ids*, or as a bridge field
    evaluation ``(eps, points, sources=None)`` when *field* — whose
    result is converted from *unit* (a unit, or the name of the code
    attribute holding it) to script units at join time."""
    if field:
        def launch(self, eps, points, sources=None):
            return self._field_query(method, unit, eps, points, sources)
    else:
        def launch(self):
            self._require_open(method)
            code_unit = getattr(self, unit) if isinstance(unit, str) \
                else unit
            return QuantityFuture(
                self.channel.async_call(
                    method, *((self._ids,) if ids else ())
                ),
                transform=lambda value: self._from_code(value, code_unit),
                description=f"{type(self).__name__}.{method}",
            )
    launch.__name__ = method
    launch.__doc__ = f"Worker ``{method}``, in script units."
    return remote_method(launch)


def _mutation(name, method, unit, mirror=None, subset=False):
    """Row factory for the mutation *name*: worker *method* applied to
    this code's particles — with *subset*, to those at the mirror
    indices given as the first argument, whose ids it sends; else to
    all of them, which it says with ``ids=None`` — with one value
    converted to *unit*: the caller's, or the mirror attribute
    *mirror*.  It is a transition, so it is refused while another one
    is in flight and blocks new ones until its future is joined; a
    code without particles sends nothing."""

    def launch(self, *args):
        if not len(self._ids):
            self._require_edit(name)
            return Future.completed(None)

        def call():
            ids = None
            rest = args
            if subset:
                indices, *rest = args
                ids = self._ids[np.asarray(indices, dtype=np.intp)]
            (value,) = rest if mirror is None else \
                (getattr(self.particles, mirror),)
            return self.channel.async_call(
                method, ids, self._to_code(value, unit)
            )

        return self._transition(name, call, transform=lambda _v: None)

    launch.__name__ = name
    launch.__doc__ = f"Worker ``{method}`` on this code's particles."
    return remote_method(launch)


class _ParametersProxy:
    """Attribute-style access to the worker parameters of *code*.

    Every successful write is recorded in the code's replay cache,
    which :meth:`CommunityCode.restart_worker` pushes onto a respawned
    worker.  Like every other remote access, it is refused with
    :class:`CodeStateError` once the code is stopped.
    """

    def __init__(self, code, names):
        object.__setattr__(self, "_code", code)
        object.__setattr__(self, "_names", tuple(names))

    def _channel_for(self, name, action):
        if name not in self._names:
            raise AttributeError(
                f"unknown parameter {name!r}; valid: {sorted(self._names)}"
            )
        self._code._require_open(f"{action} parameter {name}")
        return self._code.channel

    def __getattr__(self, name):
        return self._channel_for(name, "read").call("get_parameter", name)

    def __setattr__(self, name, value):
        channel = self._channel_for(name, "set")
        self._code._inflight.require_idle(f"set parameter {name}")
        self._code._epoch += 1
        channel.call("set_parameter", name, value)
        self._code._parameter_cache[name] = value

    def __repr__(self):
        self._code._require_open("read parameters")
        channel = self._code.channel
        # ONE batched frame for the full table, not a round trip per
        # parameter
        names = sorted(self._names)
        with channel.batch():
            requests = [
                channel.async_call("get_parameter", name) for name in names
            ]
        values = wait_all(requests)
        pairs = ", ".join(
            f"{n}={v!r}" for n, v in zip(names, values, strict=True)
        )
        return f"<parameters {pairs}>"


class CommunityCode:
    """Base for script-side code wrappers.

    Subclasses set ``INTERFACE`` to a low-level interface class.  The
    worker is started through a channel chosen by name ("direct"/"mpi",
    "sockets", "subprocess", "ibis"/"distributed") — switching resource
    or channel is the single-line change the paper demonstrates
    (Sec. 6.2: "we only had to change a single line in our simulation
    script").  ``channel_type="subprocess"`` runs the worker in its own
    OS process: concurrent models then overlap real compute, not just
    sleep/IO (the AMUSE process model).

    Remote operations are :class:`~repro.rpc.futures.remote_method`\\ s:
    ``code.evolve_model(t)`` blocks, ``code.evolve_model.async_(t)``
    returns a future joined at the next coupling point.  A per-code
    :class:`~repro.codes.base.InflightTracker` rejects operations that
    would race with an outstanding evolve.
    """

    INTERFACE = None
    _TIME_UNIT = nbody_system.time
    #: the particle columns (see the module docstring); a code without
    #: particles has none
    _STATE_ATTRS = ()

    def __init__(self, convert_nbody=None, channel_type="direct",
                 channel_options=None, session=None, **parameters):
        interface_cls = self.INTERFACE
        if interface_cls is None:
            raise TypeError(
                f"{type(self).__name__} does not define an interface"
            )
        if session is not None:
            # place this code's pilot inside a daemon session (the
            # repro.distributed.connect surface); channel_type then
            # names the daemon-side pilot mode, not a channel factory
            channel_type, channel_options = session._channel_spec(
                None if channel_type == "direct" else channel_type,
                channel_options,
            )
        # retained so restart_worker can respawn through the same
        # factory (the FaultPolicy.RESTART primitive); a partial (not a
        # closure) so the ibis channel can pickle it across the
        # daemon's loopback socket
        self._channel_type = channel_type
        self._channel_options = dict(channel_options or {})
        self._interface_factory = functools.partial(
            interface_cls, **parameters
        )
        #: parameters set through the proxy, in write order — replayed
        #: verbatim onto a respawned worker
        self._parameter_cache = {}
        #: the worker's model clock (code units) at the last completed
        #: evolve — restored on restart so the replay resumes, not
        #: re-integrates
        self._model_time_code = 0.0
        #: bumped by every write that can move the worker's masses or
        #: positions, so a bridge can tell that a field it evaluated
        #: from this code still holds
        self._epoch = 0
        self._open_channel()
        self.converter = convert_nbody
        self._inflight = InflightTracker(type(self).__name__)
        self.particles = Particles(0)
        self._ids = np.empty(0, dtype=np.int64)
        self._stopped = False

    def _open_channel(self):
        """Start a worker through the retained factory, and the
        parameters proxy over it."""
        self.channel = new_channel(
            self._channel_type, self._interface_factory,
            **self._channel_options,
        )
        self.parameters = _ParametersProxy(
            self, self.channel.call("parameter_names")
        )

    # -- unit plumbing -------------------------------------------------------

    def _to_code(self, quantity, code_unit):
        """Script quantity -> bare number in the code's unit."""
        if self.converter is not None and not quantity.unit.is_generic:
            quantity = self.converter.to_nbody(quantity)
        return quantity.value_in(code_unit)

    def _from_code(self, number, code_unit):
        """Bare number in the code's unit -> script quantity."""
        q = Quantity(number, code_unit)
        if self.converter is not None:
            q = self.converter.to_si(q)
        return q

    # -- state guards --------------------------------------------------------

    def _require_open(self, action):
        if self._stopped:
            raise CodeStateError(
                f"{type(self).__name__} has been stopped; "
                f"cannot {action}"
            )

    def _require_edit(self, action):
        """Guard for operations that mutate worker state: the code must
        be open AND no async transition may be in flight."""
        self._require_open(action)
        self._inflight.require_idle(action)

    # -- evolution (the async-first core) ------------------------------------

    def _transition(self, name, launch, transform=None):
        """Run the mutating async operation *name*: mark it in flight,
        issue its channel calls with *launch* (one request, or a list
        of them), and return the future that retires it at join time
        whatever the outcome.

        Every mutating remote method goes through here, so ANY ordering
        of overlapping mutations (evolve-then-kick or kick-then-evolve)
        raises :class:`CodeStateError` eagerly instead of letting a late
        join clobber the worker state.  A launch that raises retires the
        transition at once, so a failed send can never brick the
        tracker."""
        self._require_open(name)
        self._inflight.begin(name)
        if name != "kick":
            # a kick writes velocities only; every other transition
            # may move masses or positions
            self._epoch += 1
        try:
            issued = launch()
        except BaseException:
            self._inflight.finish(name)
            raise
        multi = isinstance(issued, list)
        return Future(
            request=None if multi else issued,
            requests=issued if multi else None, transform=transform,
            cleanup=lambda: self._inflight.finish(name),
            description=f"{type(self).__name__}.{name}",
        )

    @remote_method
    def evolve_model(self, end_time):
        """Advance the worker to *end_time* and refresh the mirror.

        The evolve travels in a frame of its own, so it stays
        cancellable, and the mirror refresh's getters follow it at once
        in one batched frame on the same connection, without waiting
        for the evolve's reply: the worker runs a connection's frames
        in order, so the getters read the evolved state.  Joining the
        future only applies the values that already arrived, with no
        round trip of its own.  ``evolve_model.async_(t)`` returns that
        future: the worker advances in the background and the join runs
        the unit conversion.
        """
        t_code = self._to_code(end_time, self._TIME_UNIT)

        def _launch():
            return [
                self.channel.async_call("evolve_model", float(t_code)),
                *self._pull_requests(),
            ]

        def _join(values):
            evolved, *pulled = values
            self._apply_pull(pulled)
            self._model_time_code = float(t_code)
            return evolved

        return self._transition("evolve_model", _launch, transform=_join)

    # -- particles -----------------------------------------------------------

    def _upload(self, particles):
        """One ``new_particle`` call carrying every ``_STATE_ATTRS``
        column of *particles* in code units (a vector column as one
        argument per component); returns the worker's ids for them and
        the converted columns."""
        columns = [
            self._to_code(getattr(particles, attr), unit)
            for _getter, _setter, attr, unit in self._STATE_ATTRS
        ]
        ids = self.channel.call("new_particle", *(
            component for column in columns
            for component in (column.T if np.ndim(column) == 2
                              else (column,))
        ))
        return np.asarray(ids, dtype=np.int64), columns

    def add_particles(self, particles):
        """Register script particles with the worker; returns the local
        mirror.  The mirror holds what the worker holds: each column
        converted to code units and back."""
        self._require_edit("add_particles")
        self._epoch += 1
        ids, columns = self._upload(particles)
        mirror = Particles(keys=np.asarray(particles.key))
        for (_getter, _setter, attr, unit), column in zip(
                self._STATE_ATTRS, columns, strict=True):
            setattr(mirror, attr, self._from_code(column, unit))
        self.particles.add_particles(mirror)
        self._ids = np.concatenate([self._ids, ids])
        return self.particles

    def _pull_requests(self):
        """Send the getters of one mirror refresh — every
        ``_STATE_ATTRS`` column in one batched frame, nothing for a
        code without particles — and return their requests.  The
        getters carry no ids: ``None`` asks for every particle this
        code registered, in registration order, which is the mirror's
        order."""
        if not len(self._ids):
            return []
        with self.channel.batch():
            return [
                self.channel.async_call(getter)
                for getter, _setter, _attr, _unit in self._STATE_ATTRS
            ]

    def _apply_pull(self, values):
        """Hand the values of :meth:`_pull_requests` to the mirror, in
        script units.  Nothing else holds them — the wire decoder
        receives into fresh buffers, and a worker getter copies even
        on the ``direct`` channel — so the mirror keeps each column as
        it is, with no copy of its own."""
        if values:
            for (_getter, _setter, attr, unit), value in zip(
                    self._STATE_ATTRS, values, strict=True):
                self.particles._adopt_attribute(
                    attr, self._from_code(value, unit)
                )
        return self.particles

    @remote_method
    def pull_state(self):
        """Refresh the local mirror from the worker in one batched
        frame; the async form applies the values (and unit conversion)
        at join time."""
        self._require_open("pull_state")
        return Future(
            requests=self._pull_requests(), transform=self._apply_pull,
            description=f"{type(self).__name__}.pull_state",
        )

    # -- lifecycle -----------------------------------------------------------

    get_model_time = _query("get_model_time", "_TIME_UNIT")
    model_time = property(get_model_time)

    @property
    def stopped(self):
        """True once :meth:`stop` has completed."""
        return self._stopped

    def stop(self):
        """Stop the worker.  A second stop — or stopping while an async
        evolve is in flight — raises :class:`CodeStateError` instead of
        racing the channel shutdown."""
        if self._stopped:
            raise CodeStateError(
                f"{type(self).__name__} has already been stopped"
            )
        self._inflight.require_idle("stop")
        self.channel.stop()
        self._stopped = True

    def shutdown(self):
        """Unconditional worker shutdown — the cleanup path.

        Unlike :meth:`stop` this never raises for an in-flight async
        transition and is a no-op on an already-stopped code.  An
        outstanding future is never left hanging: its join either
        returns normally (the worker answered every call of it before
        the channel closed — for an evolve, the mirror refresh's
        getters too) or raises the channel error of a call still on
        the wire.  Used by ``__exit__`` during exception unwinding and
        by :meth:`EvolveGroup.stop`.
        """
        if self._stopped:
            return
        try:
            self.channel.stop()
        except ProtocolError:
            # the worker is already gone (e.g. a crashed subprocess
            # child surfacing as ConnectionLostError); cleanup must
            # still release the script-side state, never re-raise
            pass
        self._inflight.resync()
        self._stopped = True

    def restart_worker(self):
        """Respawn the worker through the original channel factory and
        replay the script-side state — the RESTART fault-policy
        primitive (the paper's Sec. 5 "transparently find a
        replacement machine" future work).

        The dead (or hung) channel is force-closed, the in-flight
        tracker resynchronized, a fresh worker spawned with the same
        channel type/options, and every parameter ever set through the
        proxy replayed in write order.  The particle mirror is then
        re-uploaded column by column (converted back to code units
        exactly like the original upload; the worker assigns new ids,
        the mirror keeps its keys) and committed, and the model clock
        restored.  The code is usable immediately — typically
        relaunched by :meth:`~repro.rpc.taskgraph.TaskGraph.run`
        resuming its graph.
        """
        try:
            self.channel.stop()
        except ProtocolError:
            # the worker is already gone (ConnectionLostError from a
            # SIGKILLed child) or the channel is beyond an orderly
            # stop; respawning is the whole point
            pass
        self._inflight.resync()
        self._epoch += 1
        self._open_channel()
        for name, value in self._parameter_cache.items():
            self.channel.call("set_parameter", name, value)
        self._stopped = False
        if len(self._ids):
            self._ids, _columns = self._upload(self.particles)
            self.channel.call("ensure_state", "RUN")
        self.channel.call("set_model_time", self._model_time_code)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if not self._stopped:
            if exc[0] is None and self._inflight.inflight is None:
                self.stop()
            else:
                # unwinding an exception (or exiting with an
                # outstanding future): an orderly stop could raise —
                # CodeStateError for the in-flight transition, or
                # ConnectionLostError from a crashed subprocess
                # worker — and mask the body's exception; force the
                # shutdown instead
                self.shutdown()
        return False


class GravitationalDynamicsCode(CommunityCode):
    """Shared wrapper for PhiGRAPE / Octgrav / Fi (and Gadget's gravity
    surface): particle management, evolution, energies, bridge fields."""

    _MASS_UNIT = nbody_system.mass
    _LENGTH_UNIT = nbody_system.length
    _SPEED_UNIT = nbody_system.speed

    _STATE_ATTRS = (
        ("get_mass", "set_mass", "mass", _MASS_UNIT),
        ("get_position", "set_position", "position", _LENGTH_UNIT),
        ("get_velocity", "set_velocity", "velocity", _SPEED_UNIT),
    )

    def commit_particles(self):
        self._require_edit("commit_particles")
        self._epoch += 1
        self.channel.call("ensure_state", "RUN")

    @remote_method
    def push_state(self):
        """Send every mirror attribute in ``_STATE_ATTRS`` to the
        worker in one batched frame, to all of its particles
        (``ids=None``)."""
        if not len(self._ids):
            self._require_edit("push_state")
            return Future.completed(None)

        def _launch():
            writes = [
                (setter, self._to_code(getattr(self.particles, attr), unit))
                for _getter, setter, attr, unit in self._STATE_ATTRS
            ]
            with self.channel.batch():
                return [
                    self.channel.async_call(setter, None, value)
                    for setter, value in writes
                ]

        return self._transition(
            "push_state", _launch, transform=lambda _values: None
        )

    #: mirror masses to the worker (stellar-evolution coupling)
    push_masses = _mutation("push_masses", "set_mass", _MASS_UNIT,
                            mirror="mass")
    #: a velocity increment for every particle (bridge kicks): one
    #: pipelined ``add_velocity`` round trip, no join-time channel I/O,
    #: so kicks on independent codes overlap fully
    kick = _mutation("kick", "add_velocity", _SPEED_UNIT)

    # -- diagnostics ---------------------------------------------------------

    get_kinetic_energy = _query("get_kinetic_energy", nbody_system.energy)
    get_potential_energy = _query(
        "get_potential_energy", nbody_system.energy
    )
    get_total_energy = _query("get_total_energy", nbody_system.energy)
    kinetic_energy = property(get_kinetic_energy)
    potential_energy = property(get_potential_energy)
    total_energy = property(get_total_energy)

    # -- bridge field surface ------------------------------------------------

    def _field_query(self, method, unit, eps, points, sources):
        """Evaluate a field method, optionally uploading source
        particles first — upload and query travel in ONE batched frame
        (the coupling model's per-kick exchange).  Returns a
        :class:`QuantityFuture`; unit conversion runs at join time."""
        self._require_open(method)
        if sources is not None:
            # the source upload REPLACES the worker's particle
            # content — a mutation, so it must not pipeline behind an
            # in-flight evolve of this same code
            self._inflight.require_idle(f"{method} with source upload")
        eps2 = float(self._to_code(eps, self._LENGTH_UNIT)) ** 2
        pts = self._to_code(points, self._LENGTH_UNIT)
        upload = None
        with self.channel.batch():
            if sources is not None:
                mass, pos = sources
                upload = self.channel.async_call(
                    "load_field_particles", mass, pos
                )
            request = self.channel.async_call(method, eps2, pts)

        def _convert(value):
            if upload is not None:
                upload.result()   # a failed upload must raise, not let
                                  # the query pass off stale field data
            return self._from_code(value, unit)

        return QuantityFuture(
            request, transform=_convert,
            description=f"{type(self).__name__}.{method}",
        )

    get_gravity_at_point = _query(
        "get_gravity_at_point", nbody_system.acceleration, field=True
    )
    get_potential_at_point = _query(
        "get_potential_at_point", nbody_system.speed ** 2, field=True
    )


class PhiGRAPE(GravitationalDynamicsCode):
    """Direct N-body dynamics; ``kernel="cpu"`` or ``"gpu"``."""

    INTERFACE = PhiGRAPEInterface


class Octgrav(GravitationalDynamicsCode):
    """GPU Barnes–Hut tree gravity (the coupling model of the paper)."""

    INTERFACE = OctgravInterface


class Fi(GravitationalDynamicsCode):
    """CPU tree gravity — the coupling fallback when no GPU exists."""

    INTERFACE = FiInterface


class Gadget(GravitationalDynamicsCode):
    """SPH gas dynamics; adds internal energy handling on top of the
    gravitational surface."""

    INTERFACE = GadgetInterface

    _STATE_ATTRS = GravitationalDynamicsCode._STATE_ATTRS + (
        ("get_internal_energy", "set_internal_energy", "u",
         GravitationalDynamicsCode._SPEED_UNIT ** 2),
    )

    #: specific internal energy *du* added to the particles at the
    #: given mirror indices — the supernova/wind feedback path of the
    #: embedded-cluster run
    inject_energy = _mutation(
        "inject_energy", "add_internal_energy",
        GravitationalDynamicsCode._SPEED_UNIT ** 2, subset=True,
    )
    #: potential of the gas at each gas particle (mirror order),
    #: evaluated by the worker on its own arrays so that no particle
    #: counts its own softened potential
    get_potential = _query(
        "get_potential", nbody_system.speed ** 2, ids=True
    )
    get_thermal_energy = _query("get_thermal_energy", nbody_system.energy)
    thermal_energy = property(get_thermal_energy)


class SSE(CommunityCode):
    """Stellar evolution; native units are MSun/RSun/LSun/Myr/K, so no
    N-body converter is involved."""

    INTERFACE = SSEInterface
    _TIME_UNIT = u.Myr
    #: the one uploaded column: ``new_particle`` takes the ZAMS mass
    #: (the RESTART replay re-seeds from the mirror's current masses,
    #: which keeps the script-visible state continuous); the rest of
    #: the stellar state arrives through ``get_state``
    _STATE_ATTRS = (("get_mass", None, "mass", u.MSun),)

    def __init__(self, channel_type="direct", channel_options=None,
                 session=None, **parameters):
        super().__init__(
            convert_nbody=None, channel_type=channel_type,
            channel_options=channel_options, session=session,
            **parameters,
        )

    def add_particles(self, particles):
        super().add_particles(particles)
        return self.pull_state()

    def _pull_requests(self):
        if not len(self._ids):
            return []
        return [self.channel.async_call("get_state")]

    def _apply_pull(self, values):
        if values:
            mass, radius, lum, teff, stype = values[0]
            adopt = self.particles._adopt_attribute
            adopt("mass", Quantity(mass, u.MSun))
            adopt("radius", Quantity(radius, u.RSun))
            adopt("luminosity", Quantity(lum, u.LSun))
            adopt("temperature", Quantity(teff, u.K))
            adopt("stellar_type", stype)
        return self.particles

    time_of_next_supernova = _query("time_of_next_supernova", u.Myr)
