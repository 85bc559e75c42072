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


class _ParametersProxy:
    """Attribute-style access to worker parameters over the channel.

    *on_set* (when given) records every successful parameter write —
    the replay cache :meth:`CommunityCode.restart_worker` pushes onto a
    respawned worker.
    """

    def __init__(self, channel, names, inflight=None, on_set=None):
        object.__setattr__(self, "_channel", channel)
        object.__setattr__(self, "_names", tuple(names))
        object.__setattr__(self, "_inflight", inflight)
        object.__setattr__(self, "_on_set", on_set)

    def __getattr__(self, name):
        if name not in self._names:
            raise AttributeError(
                f"unknown parameter {name!r}; valid: {sorted(self._names)}"
            )
        return self._channel.call("get_parameter", name)

    def __setattr__(self, name, value):
        if name not in self._names:
            raise AttributeError(
                f"unknown parameter {name!r}; valid: {sorted(self._names)}"
            )
        if self._inflight is not None:
            self._inflight.require_idle(f"set parameter {name}")
        self._channel.call("set_parameter", name, value)
        if self._on_set is not None:
            self._on_set(name, value)

    def __repr__(self):
        # ONE batched frame for the full table, not a round trip per
        # parameter
        names = sorted(self._names)
        with self._channel.batch():
            requests = [
                self._channel.async_call("get_parameter", name)
                for name in names
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
        # partial (not a closure) so the ibis channel can pickle the
        # factory across the daemon's loopback socket
        factory = functools.partial(interface_cls, **parameters)

        # retained so restart_worker can respawn through the same
        # factory (the FaultPolicy.RESTART primitive)
        self._channel_type = channel_type
        self._channel_options = dict(channel_options or {})
        self._interface_factory = factory
        #: parameters set through the proxy, in write order — replayed
        #: verbatim onto a respawned worker
        self._parameter_cache = {}
        #: the worker's model clock (code units) at the last completed
        #: evolve — restored on restart so the replay resumes, not
        #: re-integrates
        self._model_time_code = 0.0

        self.channel = new_channel(
            channel_type, factory, **self._channel_options
        )
        self.converter = convert_nbody
        self._inflight = InflightTracker(type(self).__name__)
        self.parameters = _ParametersProxy(
            self.channel, self.channel.call("parameter_names"),
            self._inflight, on_set=self._record_parameter,
        )
        self.particles = Particles(0)
        self._ids = np.empty(0, dtype=np.int64)
        self._stopped = False

    def _record_parameter(self, name, value):
        self._parameter_cache[name] = value

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

    def _begin_transition(self, name):
        """Mark a mutating async operation in flight.  Every mutating
        remote method registers here, so ANY ordering of overlapping
        mutations (evolve-then-kick or kick-then-evolve) raises
        :class:`CodeStateError` eagerly instead of letting a late join
        clobber the worker state."""
        self._require_open(name)
        self._inflight.begin(name)

    def _transition_future(self, name, request=None, requests=None,
                           transform=None):
        """Future for an in-flight transition: retires it at join time
        whatever the outcome."""
        return Future(
            request=request, requests=requests, transform=transform,
            cleanup=lambda: self._inflight.finish(name),
            description=f"{type(self).__name__}.{name}",
        )

    def _abort_transition(self, name):
        self._inflight.finish(name)

    def _launch_guarded(self, name, launch):
        """Run *launch* (which issues the channel calls for an already-
        begun transition); abort the transition if the launch itself
        raises, so a failed send can never brick the tracker."""
        try:
            return launch()
        except BaseException:
            self._abort_transition(name)
            raise

    def _launch_evolve(self, t_code):
        """Issue the evolve, mark the transition in flight, and return
        a future that refreshes the mirror at join time."""
        self._begin_transition("evolve_model")
        request = self._launch_guarded(
            "evolve_model",
            lambda: self.channel.async_call(
                "evolve_model", float(t_code)
            ),
        )

        def _join(value):
            self.pull_state()
            self._model_time_code = float(t_code)
            return value

        return self._transition_future(
            "evolve_model", request, transform=_join
        )

    @remote_method
    def evolve_model(self, end_time):
        """Advance the worker to *end_time* and refresh the mirror.

        ``evolve_model.async_(t)`` returns the future instead: the
        worker advances in the background and the mirror refresh (plus
        unit conversion) runs when the future is joined.
        """
        return self._launch_evolve(
            self._to_code(end_time, self._TIME_UNIT)
        )

    @remote_method
    def pull_state(self):
        """Refresh the local mirror from the worker (no-op by default;
        subclasses fetch their attribute sets in one batched frame)."""
        self._require_open("pull_state")
        return Future.completed(
            self.particles,
            description=f"{type(self).__name__}.pull_state",
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def model_time(self):
        self._require_open("read model_time")
        return self._from_code(
            self.channel.call("get_model_time"), self._TIME_UNIT
        )

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
        returns normally (the worker finished the call before the
        channel closed) or raises — typically :class:`CodeStateError`
        from the post-evolve mirror refresh, or a channel error if the
        call was still on the wire.  Used by ``__exit__`` during
        exception unwinding and by :meth:`EvolveGroup.stop`.
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
        channel type/options, every parameter ever set through the
        proxy replayed in write order, and the subclass's
        :meth:`_replay_state` hook re-uploads the particle mirror and
        restores the model clock.  The code is usable immediately —
        typically relaunched by
        :meth:`~repro.rpc.taskgraph.TaskGraph.run` resuming its graph.
        """
        try:
            self.channel.stop()
        except ProtocolError:
            # the worker is already gone (ConnectionLostError from a
            # SIGKILLed child) or the channel is beyond an orderly
            # stop; respawning is the whole point
            pass
        self._inflight.resync()
        self.channel = new_channel(
            self._channel_type, self._interface_factory,
            **self._channel_options,
        )
        self.parameters = _ParametersProxy(
            self.channel, self.channel.call("parameter_names"),
            self._inflight, on_set=self._record_parameter,
        )
        for name, value in self._parameter_cache.items():
            self.channel.call("set_parameter", name, value)
        self._stopped = False
        self._replay_state()
        return self

    def _replay_state(self):
        """Push the cached script-side state onto a fresh worker.

        The base replay restores the model clock; subclasses that
        mirror particles re-upload them first (in code units, through
        the same converter as the original upload, so unit-converted
        state round-trips exactly).
        """
        self.channel.call("set_model_time", self._model_time_code)

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

    _TIME_UNIT = nbody_system.time
    _MASS_UNIT = nbody_system.mass
    _LENGTH_UNIT = nbody_system.length
    _SPEED_UNIT = nbody_system.speed

    def add_particles(self, particles):
        """Register script particles with the worker; returns the local
        mirror subset."""
        self._require_edit("add_particles")
        mass = self._to_code(particles.mass, self._MASS_UNIT)
        pos = self._to_code(particles.position, self._LENGTH_UNIT)
        vel = self._to_code(particles.velocity, self._SPEED_UNIT)
        ids = self.channel.call(
            "new_particle", mass,
            pos[:, 0], pos[:, 1], pos[:, 2],
            vel[:, 0], vel[:, 1], vel[:, 2],
        )
        self._register(particles, ids, mass, pos, vel)
        return self.particles

    def _register(self, particles, ids, mass, pos, vel):
        mirror = Particles(keys=np.asarray(particles.key))
        mirror.mass = self._from_code(mass, self._MASS_UNIT)
        mirror.position = self._from_code(pos, self._LENGTH_UNIT)
        mirror.velocity = self._from_code(vel, self._SPEED_UNIT)
        self.particles.add_particles(mirror)
        self._ids = np.concatenate(
            [self._ids, np.asarray(ids, dtype=np.int64)]
        )

    def commit_particles(self):
        self._require_edit("commit_particles")
        self.channel.call("ensure_state", "RUN")

    def _replay_state(self):
        """RESTART replay: re-upload the mirror (converted back to
        code units exactly like the original ``add_particles``), run
        the fresh worker up to RUN, and restore the model clock.  The
        worker assigns new ids; the mirror keeps its keys."""
        if len(self._ids):
            mass = self._to_code(self.particles.mass, self._MASS_UNIT)
            pos = self._to_code(
                self.particles.position, self._LENGTH_UNIT
            )
            vel = self._to_code(
                self.particles.velocity, self._SPEED_UNIT
            )
            ids = self.channel.call(
                "new_particle", mass,
                pos[:, 0], pos[:, 1], pos[:, 2],
                vel[:, 0], vel[:, 1], vel[:, 2],
                *self._replay_extra_columns(),
            )
            self._ids = np.asarray(ids, dtype=np.int64)
            self.channel.call("ensure_state", "RUN")
        self.channel.call("set_model_time", self._model_time_code)

    def _replay_extra_columns(self):
        """Extra ``new_particle`` columns for the replay upload (the
        Gadget subclass adds internal energy)."""
        return ()

    #: (worker getter, worker setter, mirror attribute, code unit): the
    #: state pull_state reads and push_state writes, each in one
    #: batched frame; subclasses extend it to sync extra attributes
    _STATE_ATTRS = (
        ("get_mass", "set_mass", "mass", _MASS_UNIT),
        ("get_position", "set_position", "position", _LENGTH_UNIT),
        ("get_velocity", "set_velocity", "velocity", _SPEED_UNIT),
    )

    @remote_method
    def pull_state(self):
        """Refresh the local mirror from the worker.

        One batched frame fetches every attribute in ``_STATE_ATTRS``
        per sync instead of one frame per attribute; the async form
        applies the values (and unit conversion) at join time.
        """
        self._require_open("pull_state")
        if not len(self._ids):
            return Future.completed(
                self.particles,
                description=f"{type(self).__name__}.pull_state",
            )
        with self.channel.batch():
            requests = [
                self.channel.async_call(getter, self._ids)
                for getter, _setter, _attr, _unit in self._STATE_ATTRS
            ]

        def _apply(values):
            for (_getter, _setter, attr, unit), value in zip(
                    self._STATE_ATTRS, values, strict=True):
                setattr(self.particles, attr, self._from_code(value, unit))
            return self.particles

        return Future(
            requests=requests, transform=_apply,
            description=f"{type(self).__name__}.pull_state",
        )

    @remote_method
    def push_masses(self):
        """Send mirror masses to the worker (stellar-evolution coupling)."""
        self._begin_transition("push_masses")
        if not len(self._ids):
            self._abort_transition("push_masses")
            return Future.completed(None)
        request = self._launch_guarded(
            "push_masses",
            lambda: self.channel.async_call(
                "set_mass", self._ids,
                self._to_code(self.particles.mass, self._MASS_UNIT),
            ),
        )
        return self._transition_future(
            "push_masses", request, transform=lambda _v: None
        )

    @remote_method
    def push_state(self):
        """Send every mirror attribute in ``_STATE_ATTRS`` to the
        worker in one batched frame."""
        self._begin_transition("push_state")
        if not len(self._ids):
            self._abort_transition("push_state")
            return Future.completed(None)

        def _launch():
            writes = [
                (setter, self._to_code(getattr(self.particles, attr), unit))
                for _getter, setter, attr, unit in self._STATE_ATTRS
            ]
            with self.channel.batch():
                return [
                    self.channel.async_call(setter, self._ids, value)
                    for setter, value in writes
                ]

        requests = self._launch_guarded("push_state", _launch)
        return self._transition_future(
            "push_state", requests=requests,
            transform=lambda _values: None,
        )

    @remote_method
    def kick(self, velocity_delta):
        """Apply a velocity increment to all particles (bridge kicks).

        One pipelined ``add_velocity`` round trip per kick — no
        join-time channel I/O, so kicks on independent codes overlap
        fully when launched asynchronously."""
        self._begin_transition("kick")
        request = self._launch_guarded(
            "kick",
            lambda: self.channel.async_call(
                "add_velocity", self._ids,
                self._to_code(velocity_delta, self._SPEED_UNIT),
            ),
        )
        return self._transition_future(
            "kick", request, transform=lambda _v: None
        )

    # -- diagnostics ---------------------------------------------------------

    def _energy_future(self, getter):
        self._require_open(getter)
        return QuantityFuture(
            self.channel.async_call(getter),
            transform=lambda v: self._from_code(v, nbody_system.energy),
            description=f"{type(self).__name__}.{getter}",
        )

    @remote_method
    def get_kinetic_energy(self):
        return self._energy_future("get_kinetic_energy")

    @remote_method
    def get_potential_energy(self):
        return self._energy_future("get_potential_energy")

    @remote_method
    def get_total_energy(self):
        return self._energy_future("get_total_energy")

    @property
    def kinetic_energy(self):
        return self.get_kinetic_energy()

    @property
    def potential_energy(self):
        return self.get_potential_energy()

    @property
    def total_energy(self):
        return self.get_total_energy()

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

    @remote_method
    def get_gravity_at_point(self, eps, points, sources=None):
        return self._field_query(
            "get_gravity_at_point", nbody_system.acceleration,
            eps, points, sources,
        )

    @remote_method
    def get_potential_at_point(self, eps, points, sources=None):
        return self._field_query(
            "get_potential_at_point", nbody_system.speed ** 2,
            eps, points, sources,
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

    def add_particles(self, particles):
        self._require_edit("add_particles")
        mass = self._to_code(particles.mass, self._MASS_UNIT)
        pos = self._to_code(particles.position, self._LENGTH_UNIT)
        vel = self._to_code(particles.velocity, self._SPEED_UNIT)
        uu = self._to_code(particles.u, self._SPEED_UNIT ** 2)
        ids = self.channel.call(
            "new_particle", mass,
            pos[:, 0], pos[:, 1], pos[:, 2],
            vel[:, 0], vel[:, 1], vel[:, 2], uu,
        )
        self._register(particles, ids, mass, pos, vel)
        self.particles.u = self._from_code(uu, self._SPEED_UNIT ** 2)
        return self.particles

    _STATE_ATTRS = GravitationalDynamicsCode._STATE_ATTRS + (
        ("get_internal_energy", "set_internal_energy", "u",
         GravitationalDynamicsCode._SPEED_UNIT ** 2),
    )

    def _replay_extra_columns(self):
        return (self._to_code(self.particles.u, self._SPEED_UNIT ** 2),)

    def inject_energy(self, subset_indices, du):
        """Add specific internal energy *du* to the given particles —
        the supernova/wind feedback path of the embedded-cluster run."""
        self._require_edit("inject_energy")
        ids = self._ids[np.asarray(subset_indices, dtype=np.intp)]
        self.channel.call(
            "add_internal_energy", ids,
            self._to_code(du, self._SPEED_UNIT ** 2),
        )

    @remote_method
    def get_potential(self):
        """Potential of the gas at each gas particle (mirror order),
        evaluated by the worker on its own arrays so that no particle
        counts its own softened potential."""
        self._require_open("get_potential")
        return QuantityFuture(
            self.channel.async_call("get_potential", self._ids),
            transform=lambda v: self._from_code(
                v, nbody_system.speed ** 2
            ),
            description="Gadget.get_potential",
        )

    @remote_method
    def get_thermal_energy(self):
        return self._energy_future("get_thermal_energy")

    @property
    def thermal_energy(self):
        return self.get_thermal_energy()


class SSE(CommunityCode):
    """Stellar evolution; native units are MSun/RSun/LSun/Myr/K, so no
    N-body converter is involved."""

    INTERFACE = SSEInterface
    _TIME_UNIT = u.Myr

    def __init__(self, channel_type="direct", channel_options=None,
                 session=None, **parameters):
        super().__init__(
            convert_nbody=None, channel_type=channel_type,
            channel_options=channel_options, session=session,
            **parameters,
        )

    def add_particles(self, particles):
        self._require_edit("add_particles")
        zams = particles.mass.value_in(u.MSun)
        ids = self.channel.call("new_particle", zams)
        mirror = Particles(keys=np.asarray(particles.key))
        mirror.mass = Quantity(zams, u.MSun)
        self.particles.add_particles(mirror)
        self._ids = np.concatenate(
            [self._ids, np.asarray(ids, dtype=np.int64)]
        )
        self.pull_state()
        return self.particles

    def _replay_state(self):
        """RESTART replay: re-seed the fresh worker from the mirror's
        current masses and restore the evolution clock.  (The mirror
        holds evolved masses, not ZAMS values — replaying them keeps
        the script-visible state continuous across the respawn.)"""
        if len(self._ids):
            ids = self.channel.call(
                "new_particle", self.particles.mass.value_in(u.MSun)
            )
            self._ids = np.asarray(ids, dtype=np.int64)
            self.channel.call("ensure_state", "RUN")
        self.channel.call("set_model_time", self._model_time_code)

    @remote_method
    def pull_state(self):
        self._require_open("pull_state")
        if not len(self._ids):
            return Future.completed(
                self.particles, description="SSE.pull_state"
            )
        request = self.channel.async_call("get_state", self._ids)

        def _apply(state):
            mass, radius, lum, teff, stype = state
            self.particles.mass = Quantity(mass, u.MSun)
            self.particles.radius = Quantity(radius, u.RSun)
            self.particles.luminosity = Quantity(lum, u.LSun)
            self.particles.temperature = Quantity(teff, u.K)
            self.particles.stellar_type = np.asarray(stype)
            return self.particles

        return Future(
            request, transform=_apply, description="SSE.pull_state"
        )

    @remote_method
    def time_of_next_supernova(self):
        return QuantityFuture(
            self.channel.async_call("time_of_next_supernova"),
            transform=lambda t: Quantity(t, u.Myr),
            description="SSE.time_of_next_supernova",
        )
