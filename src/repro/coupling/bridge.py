"""BRIDGE-style coupling of independently evolving model codes.

Paper Fig. 7 shows the AMUSE gravitational/hydro/stellar-evolution
integrator: during one time step of the combined solver the gas dynamics
and gravitational (stellar) dynamics models *evolve in parallel*, and the
mutual gravity between the two systems is applied as half-step velocity
kicks ("p-kicks") computed by the *coupling model* (Octgrav on a GPU or
Fi on a CPU).

:class:`Bridge` implements that second-order kick–drift–kick operator
splitting (Fujii et al. 2007).  Each step runs as one
:class:`~repro.rpc.taskgraph.TaskGraph` with *per-edge* joins instead
of phase barriers: per system the chain is ``kick1 → drift → kick2``,
a drift also waits for the first-kick field queries against its own
worker, and a system's second kick waits only for the drifts of the
systems that SOURCE its coupling fields.  Systems whose partner graphs
are disjoint therefore pipeline independently — a fast code's kicks
ride the slack of the slowest drift (paper Fig. 7's uneven per-model
costs) instead of queueing at a global barrier.  The edges are exactly
the operator splitting's data dependencies, so every field evaluation
reads the mirror state it prescribes: first kicks see pre-drift
positions, second kicks post-drift ones.  This is the inter-model
parallelism that makes the paper's jungle scenario 4 faster than any
single-resource scenario.

:class:`CouplingField` wraps a tree code as the field solver: it
uploads the source-particle configuration and evaluates gravity at the
kicked system's positions, exactly the role Octgrav/Fi play in the
embedded-cluster run.

A field is evaluated only when its inputs changed.  A kick moves no
particle, so the first kick of a step usually sees exactly the
positions and masses the previous step's second kick saw.  Per kicked
system the bridge remembers the summed partner acceleration of its
last successful evaluation with the inputs that determined it: the
kicked system's mirror positions and the eps, and per partner the
gathered source arrays of a :class:`CouplingField` (plus its field
code's epoch) or the epoch of a system code used directly.  A code's
epoch counts the writes that can move its worker's masses or positions
(evolve, state and mass pushes, particle edits, parameter writes, a
worker restart; not a kick).  When every input equals the remembered
one, the field node returns the remembered sum without a round trip;
the result is bit-identical to evaluating it again.  A provider without
an epoch is always evaluated.
"""

from __future__ import annotations

import numpy as np

from ..codes.group import EvolveGroup
from ..rpc import Future, TaskGraph, remote_method
from ..units import nbody as nbody_system
from ..units.core import Quantity

__all__ = ["Bridge", "CouplingField"]


def _frozen(quantity):
    """A copy of *quantity*'s number with its unit, for an exact later
    comparison (a mirror attribute is written in place)."""
    if quantity is None:
        return None
    return np.array(quantity.number), quantity.unit


def _same(a, b):
    """Exact equality of two remembered field inputs: nested tuples of
    arrays (equal shape and values), units and plain values."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(
            _same(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


class CouplingField:
    """A tree code acting as gravity-field solver for bridge kicks.

    Each field evaluation issues ONE batched frame over the channel:
    the source-particle upload and the field query travel together and
    the worker executes them in order — halving the round trips per
    evaluation compared to one frame per call.  Both queries are
    :class:`~repro.rpc.futures.remote_method`\\ s, so the bridge can
    launch every system's field evaluation asynchronously and overlap
    them (``field.get_gravity_at_point.async_(...)``).  A bridge
    evaluates the field only when the gathered sources, the eps, the
    field code's epoch or the kicked positions changed since its last
    evaluation (see the module docstring).
    """

    def __init__(self, field_code, source_systems, eps=None):
        """*field_code* is a high-level tree code (Octgrav/Fi); *source
        systems* are the codes whose particles generate the field."""
        self.code = field_code
        self.sources = list(source_systems)
        self.eps = eps

    def _gather_sources(self):
        masses = []
        positions = []
        for system in self.sources:
            p = system.particles
            masses.append(self.code._to_code(p.mass, self.code._MASS_UNIT))
            positions.append(
                self.code._to_code(p.position, self.code._LENGTH_UNIT)
            )
        return np.concatenate(masses), np.concatenate(positions)

    @remote_method
    def get_gravity_at_point(self, eps, points, sources=None):
        """The field at *points*; *sources* are the gathered (mass,
        position) arrays to upload, gathered here when not given."""
        if sources is None:
            sources = self._gather_sources()
        return self.code.get_gravity_at_point.async_(
            self.eps or eps, points, sources=sources
        )

    @remote_method
    def get_potential_at_point(self, eps, points):
        return self.code.get_potential_at_point.async_(
            self.eps or eps, points, sources=self._gather_sources()
        )


class Bridge:
    """Kick–drift–kick coupling of multiple dynamical systems.

    Each registered system owns its particles and integrator; its
    *partners* provide the external gravity it feels.  ``evolve_model``
    advances everything to the requested time in steps of ``timestep``.

    Parameters
    ----------
    timestep : Quantity (time)
        The bridge (outer) step; models sub-cycle internally.
    fault_policy : FaultPolicy, optional
        Passed to the step graph: ``RESTART`` lets a step survive a
        dying worker (respawn + replay + resume), ``IGNORE`` drops the
        failed model's contribution for the step.  Default RAISE: a
        failed field query or kick raises an
        :class:`~repro.rpc.AggregateRequestError` after every launched
        sibling kick has been joined, so no mirror diverges from its
        worker.
    """

    def __init__(self, timestep, fault_policy=None):
        self.timestep = timestep
        self.fault_policy = fault_policy
        self.systems = []          # (code, partners)
        self.time = None
        #: per kicked system: (inputs, summed partner acceleration) of
        #: its last successful field evaluation
        self._fields = {}
        #: wall-clock style accounting for the monitoring displays
        self.kick_count = 0
        self.drift_count = 0

    def add_system(self, code, partners=()):
        """Register *code*; *partners* are field providers (codes or
        :class:`CouplingField` instances) whose gravity kicks it."""
        self.systems.append((code, list(partners)))
        if self.time is None:
            self.time = code.model_time
        return code

    @property
    def group(self):
        """The registered codes as an :class:`EvolveGroup` — derived
        from ``systems`` so the two can never fall out of sync."""
        return EvolveGroup([code for code, _ in self.systems])

    @property
    def particles(self):
        """All particles across systems (fresh copies, script units)."""
        sets = [code.particles for code, _ in self.systems]
        out = sets[0].copy()
        for more in sets[1:]:
            out.add_particles(more.copy())
        return out

    def _eps_for(self, code, default):
        if self.systems and code.converter is not None:
            return code.converter.to_si(default)
        return default

    # -- the step graph ----------------------------------------------------

    def _system_names(self):
        """Stable unique display name per registered system."""
        names = []
        seen = {}
        for code, _partners in self.systems:
            base = type(code).__name__
            count = seen.get(base, 0)
            seen[base] = count + 1
            names.append(base if count == 0 else f"{base}#{count}")
        return names

    def _partner_source_codes(self, partner):
        """The system codes whose DRIFT must complete before *partner*
        can evaluate a post-drift field: a CouplingField reads its
        source systems' mirrors at launch time; a system code used
        directly as field provider reads its own worker state."""
        sources = getattr(partner, "sources", None)
        if sources is not None:
            return list(sources)
        return [partner]

    @staticmethod
    def _partner_queried_workers(partner):
        """The codes whose WORKER the partner's field evaluation
        queries: a CouplingField queries its field code, a system code
        used directly as provider queries itself.  A first-kick query
        against a registered system's worker must therefore order
        BEFORE that system's drift, or it would read post-drift
        state."""
        field_code = getattr(partner, "code", None)
        if field_code is not None and hasattr(partner, "sources"):
            return [field_code]
        return [partner]

    @staticmethod
    def _partner_inputs(partner):
        """What *partner*'s field depends on besides the points and the
        eps, epoch first: a CouplingField's field-code epoch, its eps
        and the (mass, position) arrays it uploads; a system code's own
        epoch.  A provider that keeps no epoch gives None there."""
        if isinstance(partner, CouplingField):
            return (
                getattr(partner.code, "_epoch", None),
                _frozen(partner.eps), partner._gather_sources(),
            )
        return (getattr(partner, "_epoch", None),)

    def _launch_fields(self, code, partners, dt):
        """Launch every partner's field evaluation for *code*; returns
        a future resolving to the summed velocity delta for *dt*.

        When every input of the last successful evaluation for *code*
        is unchanged, the remembered sum is reused and nothing is sent.
        A launch failing partway (a stopped partner) joins the futures
        already launched, so no sibling field query is left dangling.
        """
        softening = Quantity(0.0, nbody_system.length)
        pos = code.particles.position
        eps = self._eps_for(code, softening)
        partner_inputs = tuple(
            self._partner_inputs(partner) for partner in partners
        )
        inputs = None
        if all(key[0] is not None for key in partner_inputs):
            inputs = (_frozen(pos), _frozen(eps), partner_inputs)
            remembered = self._fields.get(id(code))
            if remembered is not None and _same(remembered[0], inputs):
                return Future.completed(
                    remembered[1] * dt,
                    description=f"{type(code).__name__} field sum",
                )
        futures = []
        try:
            for partner, key in zip(partners, partner_inputs,
                                    strict=True):
                query = partner.get_gravity_at_point.async_
                futures.append(
                    query(eps, pos, sources=key[2])
                    if isinstance(partner, CouplingField)
                    else query(eps, pos)
                )
        except BaseException:
            for future in futures:
                future.exception()
            raise

        def _sum(accelerations):
            total = accelerations[0]
            for acc in accelerations[1:]:
                total = total + acc
            if inputs is not None:
                self._fields[id(code)] = (inputs, total)
            return total * dt

        return Future(
            requests=futures, transform=_sum,
            description=f"{type(code).__name__} field sum",
        )

    def _launch_kick(self, code, field_node):
        """Launch the kick for the dv computed by *field_node*; the
        join keeps the local mirror coherent with the worker."""
        dv = field_node.result
        kick_future = code.kick.async_(dv)

        def _apply(_value):
            code.particles.velocity = code.particles.velocity + dv
            return

        return Future(
            request=kick_future, transform=_apply,
            description=f"{type(code).__name__}.kick",
        )

    def _step_graph(self, dt):
        """One kick–drift–kick step as a TaskGraph with per-edge joins.

        Per system ``s``: ``kick1:s`` (field eval + kick) has no
        dependencies (it reads the pre-drift mirrors); ``drift:s``
        follows its own first kick plus any sibling's first-kick field
        query against ``s``'s worker (so a pre-drift field read can never race the
        drift on a shared worker); ``kick2:s`` follows its own drift
        plus the drifts of every system sourcing its coupling fields —
        the minimal edges under which first kicks read pre-drift state
        and second kicks read post-drift state, so the numerics match
        a barrier-ordered kick–drift–kick while a fast chain never
        waits for an unrelated slow one.
        """
        half = dt * 0.5
        names = self._system_names()
        graph = TaskGraph()
        drift_nodes = {}
        first_kicks = {}
        worker_queries = {}     # system code id -> kick1 field nodes
                                # querying that system's worker
        kicked = [
            bool(partners) and len(code.particles)
            for code, partners in self.systems
        ]
        for (code, partners), name, kicks in zip(
            self.systems, names, kicked, strict=True,
        ):
            if not kicks:
                continue
            field = graph.add(
                f"kick1:{name}:field",
                (lambda code=code, partners=partners:
                 self._launch_fields(code, partners, half)),
            )
            first_kicks[id(code)] = graph.add(
                f"kick1:{name}",
                (lambda code=code, field=field:
                 self._launch_kick(code, field)),
                after=[field], code=code,
            )
            for partner in partners:
                for queried in self._partner_queried_workers(partner):
                    worker_queries.setdefault(
                        id(queried), []
                    ).append(field)
        for (code, _partners), name in zip(self.systems, names,
                                           strict=True):
            # a drift waits for the system's own first kick AND for
            # every first-kick field query against this system's
            # worker — otherwise an unkicked system's drift could
            # overtake a sibling's pre-drift field evaluation on the
            # shared worker (order-dependent numerics)
            deps = []
            if id(code) in first_kicks:
                deps.append(first_kicks[id(code)])
            for field in worker_queries.get(id(code), ()):
                if field not in deps:
                    deps.append(field)
            drift_nodes[id(code)] = graph.add(
                f"drift:{name}",
                (lambda code=code:
                 code.evolve_model.async_(self.time + dt)),
                after=deps, code=code,
            )
        for (code, partners), name, kicks in zip(
            self.systems, names, kicked, strict=True,
        ):
            if not kicks:
                continue
            deps = [drift_nodes[id(code)]]
            for partner in partners:
                for source in self._partner_source_codes(partner):
                    node = drift_nodes.get(id(source))
                    if node is not None and node not in deps:
                        deps.append(node)
            field = graph.add(
                f"kick2:{name}:field",
                (lambda code=code, partners=partners:
                 self._launch_fields(code, partners, half)),
                after=deps,
            )
            graph.add(
                f"kick2:{name}",
                (lambda code=code, field=field:
                 self._launch_kick(code, field)),
                after=[field], code=code,
            )
        graph.run(fault_policy=self.fault_policy)
        self.kick_count += 2
        self.drift_count += 1
        return graph

    # -- main loop --------------------------------------------------------------

    def evolve_model(self, t_end):
        """Advance the coupled system to *t_end* (script-side units)."""
        if self.time is None:
            raise RuntimeError("no systems registered")
        while self.time < t_end - 1e-12 * self.timestep:
            dt = self.timestep
            remaining = t_end - self.time
            if remaining < dt:
                dt = remaining
            self._step_graph(dt)
            self.time = self.time + dt
        return self.time

    # -- diagnostics --------------------------------------------------------------

    def kinetic_energy(self):
        total = None
        for code, _ in self.systems:
            e = code.kinetic_energy
            total = e if total is None else total + e
        return total

    def potential_energy(self):
        """Internal potential energies plus cross terms via partners."""
        total = None
        for code, _ in self.systems:
            e = code.potential_energy
            total = e if total is None else total + e
        # cross-system potential (each pair counted once via kick fields)
        for code, partners in self.systems:
            if not partners or not len(code.particles):
                continue
            pos = code.particles.position
            for partner in partners:
                phi = partner.get_potential_at_point(
                    self._eps_for(code, Quantity(0.0, nbody_system.length)),
                    pos,
                )
                cross = (code.particles.mass * phi).sum() * 0.5
                total = cross if total is None else total + cross
        return total

    def stop(self):
        # the group knows the cleanup protocol: skip stopped members,
        # force-shutdown busy ones, never leak the rest of the workers
        self.group.stop()
