"""The five closed-loop workloads and the placements they run on.

One client (the coupler script below), one op in flight at a time; the
only concurrency is what the coupler itself launches (the bridge's
TaskGraph overlapping its pilots), never more than ``nproc`` busy
processes.  Every class here is driven by :mod:`child` inside a fresh
process: ``setup()`` → ``op()`` × n → ``final_state()`` /
``self_checks()`` → ``placement.stop_codes()``.

Heavy imports (numpy, scipy, repro) happen inside :func:`force_imports`
so that set-up time includes them, as a user's script would pay them.
"""

from __future__ import annotations

#: the canonical embedded cluster; ``--seed`` orients it (see
#: :class:`Cluster` for why it does not re-draw it)
CLUSTER_SEED = 4

#: timed ops per process for a 10 s run (about 10 s of timed ops over
#: the run's processes at the recorded baseline speed); run.py scales
#: them linearly with ``--seconds``
OPS_PER_10S = {
    "cluster_direct": 4,
    "cluster_jungle": 4,
    "bridge_chatty": 433,
    "state_pull": 30,
    "state_push": 21,
}
#: processes per run, each setting up and timing the same ops; run.py
#: reports their median.  A pilot's ``rows()`` loop runs 8.5 % slower,
#: start to finish, in one process out of four to ten (same
#: instructions, same page faults: where its 200 000-entry dict landed
#: in memory), so one process is not a reproducible sample.  The
#: cluster has no such mode and one process costs a whole run.
PROCESSES = {
    "cluster_direct": 1, "cluster_jungle": 1,
    "bridge_chatty": 3, "state_pull": 3, "state_push": 3,
}
#: fewest timed ops per process
MIN_OPS = {
    "cluster_direct": 1, "cluster_jungle": 1,
    "bridge_chatty": 40, "state_pull": 5, "state_push": 5,
}
#: untimed warm-up ops run at the end of set-up.  The cluster's first
#: iteration is its relaxation transient (7.3 s against 1.9–2.4 s for
#: each one after it), so it is the warm-up and the timed iterations
#: are like each other.
WARMUP_OPS = {
    "cluster_direct": 1, "cluster_jungle": 1,
    "bridge_chatty": 20, "state_pull": 3, "state_push": 3,
}

#: placement every workload's end-to-end run uses / its traced run uses
#: (traced runs stay in-process so all spans share one clock)
E2E_PLACEMENT = {
    "cluster_direct": "direct",
    "cluster_jungle": "jungle",
    "bridge_chatty": "jungle",
    "state_pull": "jungle",
    "state_push": "jungle",
}
TRACE_PLACEMENT = {
    name: "direct" if placement == "direct" else "sockets"
    for name, placement in E2E_PLACEMENT.items()
}


def ops_for(name, seconds, scale=1.0):
    """Timed ops per process for a run of *seconds*: fixed work, the
    same count on every commit, so a faster program finishes sooner
    (time to solution)."""
    return max(MIN_OPS[name],
               round(OPS_PER_10S[name] * seconds / 10.0 * scale))


def force_imports():
    """Everything a coupler script imports before its first model."""
    import numpy  # noqa: F401
    import scipy.spatial  # noqa: F401 - the feedback path's cKDTree

    import repro.codes  # noqa: F401
    import repro.coupling  # noqa: F401
    import repro.distributed  # noqa: F401
    import repro.ic  # noqa: F401


# -- placements -------------------------------------------------------------


class InProcess:
    """Every model in this process on the named channel: ``direct``
    (the plain single-process baseline) or ``sockets`` (thread workers
    behind loopback sockets; the traced placement)."""

    #: client connections to a daemon (see check.residue_checks)
    links = 0

    def __init__(self, channel_type):
        self.name = channel_type
        self.codes = []

    def open(self):
        pass

    def code(self, cls, *args, **params):
        code = cls(*args, channel_type=self.name, **params)
        self.codes.append(code)
        return code

    def stop_codes(self):
        for code in self.codes:
            if not code.stopped:
                code.stop()


class Jungle:
    """The paper's configuration shrunk to one host: an in-process
    IbisDaemon, one relayed session, every model a cold-spawned
    subprocess pilot placed with ``Session.code``."""

    name = "jungle"

    def open(self):
        from repro.distributed import IbisDaemon, connect

        self.daemon = IbisDaemon()
        self.daemon.start()
        self.session = connect(self.daemon, relay=True, name="bench-e2e")
        self.codes = []

    def code(self, cls, *args, **params):
        code = self.session.code(
            cls, *args, channel_type="subprocess", **params
        )
        self.codes.append(code)
        return code

    @property
    def links(self):
        """The session's control link plus one relay link per pilot."""
        return 1 + len(self.codes)

    def stop_codes(self):
        """Stops every pilot and reaps it, so RUSAGE_CHILDREN is final.
        The daemon stays up and ends with the process: its shutdown
        only adds seconds of joins on threads it cannot wake (timed as
        ``distributed.shutdown_s`` in layers.py)."""
        self.session.close()


def new_placement(name):
    return Jungle() if name == "jungle" else InProcess(name)


# -- workloads --------------------------------------------------------------


class Cluster:
    """``cluster_direct`` / ``cluster_jungle``: the four-model embedded
    cluster (PhiGRAPE + Gadget + SSE + Fi through Bridge); op = one
    coupled iteration.

    PhiGRAPE's shared adaptive Hermite step makes the cost of a run a
    chaotic function of the particle set: re-drawing the cluster per
    seed moves ``wall_s`` by ±15 % (seeds 10–21) and by 4x when a seed
    happens to draw a tight binary (seed 3).  No bound on ``wall_s``
    sees through that, so the cluster itself is fixed
    (``CLUSTER_SEED``) and ``--seed`` draws an exact symmetry of the
    integrators instead — a signed axis permutation plus a
    translation, applied to the particle sets on their way into the
    codes.  The program still sees different arrays for every seed;
    the physics, step counts and kernel work are the same to rounding.
    """

    def __init__(self, placement, seed, scale):
        self.placement = new_placement(placement)
        self.seed = seed
        self.n_stars = max(8, round(96 * scale))
        self.n_gas = max(32, round(256 * scale))

    def _seeded_factory(self):
        import numpy as np

        from repro.codes import Gadget, PhiGRAPE
        from repro.units import units as u
        from repro.units.core import Quantity

        rng = np.random.default_rng(self.seed)
        axes = np.zeros((3, 3))
        axes[np.arange(3), rng.permutation(3)] = rng.choice([-1.0, 1.0], 3)
        shift_pc = rng.uniform(-0.1, 0.1, 3)

        def orient(particles):
            pos = particles.position
            vel = particles.velocity
            particles.position = Quantity(
                pos.value_in(u.parsec) @ axes.T + shift_pc, u.parsec
            )
            particles.velocity = Quantity(vel.number @ axes.T, vel.unit)

        def factory(cls, converter, _channel_type, **params):
            args = () if converter is None else (converter,)
            code = self.placement.code(cls, *args, **params)
            if cls in (PhiGRAPE, Gadget):   # the codes given positions
                add = code.add_particles

                def add_oriented(particles):
                    orient(particles)
                    return add(particles)

                code.add_particles = add_oriented
            return code

        return factory

    def setup(self):
        force_imports()
        from repro.coupling.embedded import EmbeddedClusterSimulation

        self.placement.open()
        self.sim = EmbeddedClusterSimulation(
            n_stars=self.n_stars, n_gas=self.n_gas,
            mass_min=5, mass_max=100, star_mass_fraction=0.3,
            bridge_timestep_myr=0.4, se_interval=1, coupling_code="fi",
            rng=CLUSTER_SEED, code_factory=self._seeded_factory(),
        )
        for _ in range(WARMUP_OPS["cluster_direct"]):
            self.op()

    def op(self):
        self.sim.evolve_one_iteration()

    def channels(self):
        return [code.channel for code in self.placement.codes]

    def final_state(self):
        return {**self.sim.metrics(), **self.sim.diagnostics()}

    def self_checks(self):
        """Mass budget, read from the workers (not the mirrors): the
        stars in the gravity code weigh what stellar evolution says
        they weigh, and no gas was created or lost."""
        from repro.units import units as u

        sim = self.sim
        sim.gravity.pull_state()
        sim.hydro.pull_state()
        stars = float(sim.gravity.particles.mass.value_in(u.MSun).sum())
        evolved = float(sim.se.particles.mass.value_in(u.MSun).sum())
        gas = float(sim.hydro.particles.mass.value_in(u.MSun).sum())
        gas0 = float(sim.initial_gas.mass.value_in(u.MSun).sum())
        return [
            ("mass_budget.stars", abs(stars - evolved) <= 1e-12 * evolved,
             f"gravity {stars!r} vs stellar evolution {evolved!r} MSun"),
            ("mass_budget.gas", abs(gas - gas0) <= 1e-12 * gas0,
             f"gas {gas!r} vs initial {gas0!r} MSun"),
        ]


class BridgeChatty:
    """``bridge_chatty``: two small PhiGRAPE spheres kicking each other
    through Bridge with a tiny step; op = one bridge step.  Kernels do
    almost nothing, the per-call tax does everything."""

    def __init__(self, placement, seed, scale):
        self.placement = new_placement(placement)
        self.seed = seed
        self.n = max(8, round(32 * scale))

    def setup(self):
        force_imports()
        import numpy as np

        from repro.codes import PhiGRAPE
        from repro.coupling.bridge import Bridge
        from repro.ic import new_plummer_model
        from repro.units import nbody as nbody_system
        from repro.units import units as u
        from repro.units.core import Quantity

        rng = np.random.default_rng(self.seed)
        converter = nbody_system.nbody_to_si(
            Quantity(1000.0, u.MSun), Quantity(1.0, u.parsec)
        )
        spheres = []
        for k in range(2):
            sphere = new_plummer_model(self.n, converter, rng=rng)
            offset = np.array([3.0 * k, 0.0, 0.0])
            sphere.position = Quantity(
                sphere.position.value_in(u.parsec) + offset, u.parsec
            )
            spheres.append(sphere)
        self.placement.open()
        self.codes = []
        for sphere in spheres:
            code = self.placement.code(
                PhiGRAPE, converter, eps2=1e-2, eta=0.5
            )
            code.add_particles(sphere)
            code.commit_particles()
            self.codes.append(code)
        self.bridge = Bridge(timestep=Quantity(0.0005, u.Myr))
        self.bridge.add_system(self.codes[0], [self.codes[1]])
        self.bridge.add_system(self.codes[1], [self.codes[0]])
        for _ in range(WARMUP_OPS["bridge_chatty"]):
            self.op()

    def op(self):
        self.bridge.evolve_model(self.bridge.time + self.bridge.timestep)

    def channels(self):
        return [code.channel for code in self.codes]

    def final_state(self):
        from repro.units import units as u

        return {
            f"position_pc.{k}":
                code.particles.position.value_in(u.parsec).ravel().tolist()
            for k, code in enumerate(self.codes)
        }

    def self_checks(self):
        return []


class StateTransfer:
    """``state_pull`` / ``state_push``: one PhiGRAPE pilot holding a
    large particle set; op = one ``pull_state()``, or one
    ``push_state()`` followed by a full-size ``kick``.  Bytes dominate,
    not calls; reads and writes are separate workloads so a gain for
    one bought at the other's cost shows as a regression."""

    def __init__(self, name, placement, seed, scale):
        self.name = name
        self.push = name == "state_push"
        self.placement = new_placement(placement)
        self.seed = seed
        self.n = round(200_000 * scale)

    def setup(self):
        force_imports()
        import numpy as np

        from repro.codes import PhiGRAPE
        from repro.ic import new_plummer_model
        from repro.units import nbody as nbody_system
        from repro.units.core import Quantity

        rng = np.random.default_rng(self.seed)
        particles = new_plummer_model(self.n, rng=rng, do_scale=False)
        self.delta = Quantity(
            rng.normal(scale=1e-6, size=(self.n, 3)), nbody_system.speed
        )
        self.placement.open()
        self.code = self.placement.code(PhiGRAPE)
        # uploaded, never committed: a commit evaluates N^2 forces
        self.code.add_particles(particles)
        for _ in range(WARMUP_OPS[self.name]):
            self.op()

    def op(self):
        if self.push:
            self.code.push_state()
            self.code.kick(self.delta)
        else:
            self.code.pull_state()

    def channels(self):
        return [self.code.channel]

    def final_state(self):
        return {}

    def self_checks(self):
        """A pull after a push must hand back the mirror bit for bit
        (generic units on both sides: no conversion may round)."""
        import numpy as np

        mirror = self.code.particles
        names = ("mass", "position", "velocity")
        before = {
            name: getattr(mirror, name).number.copy() for name in names
        }
        self.code.push_state()
        self.code.pull_state()
        return [
            (f"roundtrip.{name}",
             np.array_equal(before[name], getattr(mirror, name).number),
             "push_state then pull_state changed the mirror")
            for name in names
        ]


def new_workload(name, placement, seed, scale=1.0):
    if name in ("cluster_direct", "cluster_jungle"):
        return Cluster(placement, seed, scale)
    if name == "bridge_chatty":
        return BridgeChatty(placement, seed, scale)
    if name in ("state_pull", "state_push"):
        return StateTransfer(name, placement, seed, scale)
    raise ValueError(f"unknown workload {name!r}")
