"""The embedded-star-cluster simulation (Pelupessy & Portegies Zwart 2011).

This is the workload of every experiment in the paper (Sec. 6): "an early
star cluster is simulated, including the gas from which the stars formed.
The stars interact with the gas, which is eventually pushed out of the
cluster completely.  Also, the stars themselves evolve, leading to
several of the bigger stars exploding in a supernova during the
simulation."

Four models cooperate (paper Fig. 7):

* PhiGRAPE — gravity between stars (CPU or GPU kernel);
* SSE — stellar evolution (lookup; exchanged every n-th inner step);
* Gadget — SPH gas dynamics;
* Octgrav *or* Fi — the coupling model computing the mutual star↔gas
  gravity applied as bridge "p-kicks".

Stellar mass loss is pushed into the gravity model, and the lost mass
carries feedback energy into the surrounding gas (winds continuously,
supernovae impulsively), which is what expels the gas and produces the
four stages of paper Fig. 6.
"""

from __future__ import annotations

import numpy as np

from ..codes import EvolveGroup, Fi, Gadget, Octgrav, PhiGRAPE, SSE
from ..ic import (
    new_plummer_gas_model,
    new_plummer_model,
    new_salpeter_mass_distribution,
)
from ..units import nbody as nbody_system
from ..units import units as u
from ..units.core import Quantity
from .bridge import Bridge, CouplingField

__all__ = ["EmbeddedClusterSimulation", "ClusterDiagnostics"]

#: canonical kinetic energy released by one core-collapse supernova
SN_ENERGY = Quantity(1.0e44, u.J)


class ClusterDiagnostics(dict):
    """Snapshot of the cluster state; behaves as a plain dict with the
    keys: time_myr, bound_gas_fraction, gas_half_mass_radius_pc,
    star_half_mass_radius_pc, shell_radius_pc, stage, n_supernovae,
    total_star_mass_msun, gas_mass_msun."""

    @property
    def stage(self):
        return self["stage"]


class EmbeddedClusterSimulation:
    """Driver wiring the four models into one simulation.

    Parameters mirror the experiment knobs of Sec. 6: which kernel runs
    the gravity (``gravity_kernel``), which code does the coupling
    (``coupling_code`` — "octgrav" needs a GPU, "fi" is the CPU
    fallback), and which channel each worker uses.
    """

    def __init__(
        self,
        n_stars=64,
        n_gas=512,
        star_mass_fraction=0.25,
        cluster_radius=(0.5, "parsec"),
        mass_min=0.3,
        mass_max=25.0,
        gravity_kernel="cpu",
        coupling_code="fi",
        channel_type="direct",
        channel_types=None,
        bridge_timestep_myr=0.05,
        se_interval=5,
        wind_speed_kms=20.0,
        sn_efficiency=0.01,
        feedback_neighbours=8,
        rng=None,
        code_factory=None,
    ):
        self.rng = (
            rng if isinstance(rng, np.random.Generator)
            else np.random.default_rng(rng)
        )
        channels = dict(
            gravity=channel_type, hydro=channel_type,
            se=channel_type, coupling=channel_type,
        )
        if channel_types:
            channels.update(channel_types)

        # -- initial conditions ------------------------------------------------
        star_masses = new_salpeter_mass_distribution(
            n_stars, mass_min=mass_min, mass_max=mass_max, rng=self.rng
        )
        total_star_mass = star_masses.sum()
        total_mass = total_star_mass / star_mass_fraction
        gas_mass = total_mass - total_star_mass
        radius = Quantity(cluster_radius[0], getattr(u, cluster_radius[1]))
        self.converter = nbody_system.nbody_to_si(total_mass, radius)

        stars = new_plummer_model(
            n_stars, convert_nbody=self.converter, rng=self.rng
        )
        stars.mass = star_masses
        gas = new_plummer_gas_model(
            n_gas, convert_nbody=self.converter, rng=self.rng,
            gas_fraction=float(
                (gas_mass / total_mass).number
                * (gas_mass / total_mass).unit.factor
            ),
        )
        self.initial_stars = stars
        self.initial_gas = gas

        # -- model codes ------------------------------------------------------------
        make = code_factory or _default_code_factory
        self.gravity = make(
            PhiGRAPE, self.converter, channels["gravity"],
            kernel=gravity_kernel, eps2=1e-4, eta=0.05,
        )
        self.hydro = make(
            Gadget, self.converter, channels["hydro"],
            n_neighbours=16, max_dt=1.0 / 16.0,
        )
        self.se = make(SSE, None, channels["se"])
        coupling_cls = {"octgrav": Octgrav, "fi": Fi}[coupling_code]
        self.coupling = make(
            coupling_cls, self.converter, channels["coupling"], eps2=1e-4
        )
        self.coupling_name = coupling_code

        self.gravity.add_particles(stars)
        self.hydro.add_particles(gas)
        self.se.add_particles(stars)

        # -- bridge (paper Fig. 7) ------------------------------------------------------
        self.bridge = Bridge(
            timestep=Quantity(bridge_timestep_myr, u.Myr)
        )
        gas_on_stars = CouplingField(self.coupling, [self.hydro])
        stars_on_gas = CouplingField(self.coupling, [self.gravity])
        self.bridge.add_system(self.gravity, [gas_on_stars])
        self.bridge.add_system(self.hydro, [stars_on_gas])

        self.se_interval = int(se_interval)
        self.wind_speed = Quantity(wind_speed_kms, u.kms)
        self.sn_efficiency = float(sn_efficiency)
        self.feedback_neighbours = int(feedback_neighbours)
        self.iteration = 0
        self.n_supernovae = 0
        self._previous_types = np.asarray(
            self.se.particles.stellar_type
        ).copy()

        # conservation baselines for metrics(): the ensemble campaign
        # layer aggregates drift/loss relative to the initial state
        self._initial_star_mass_msun = float(
            stars.mass.value_in(u.MSun).sum()
        )
        self._initial_gas_mass_msun = float(
            gas.mass.value_in(u.MSun).sum()
        )
        self._initial_gravity_energy_j = float(
            self.gravity.total_energy.value_in(u.J)
        )

    # -- time stepping ---------------------------------------------------------

    @property
    def model_time(self):
        return self.bridge.time

    def evolve_one_iteration(self):
        """One outer iteration: a bridge KDK step, plus the slower
        stellar-evolution exchange every ``se_interval`` iterations."""
        target = self.bridge.time + self.bridge.timestep
        self.bridge.evolve_model(target)
        self.iteration += 1
        if self.iteration % self.se_interval == 0:
            self.exchange_stellar_evolution()
        return self.model_time

    def run(self, n_iterations, callback=None):
        """Run *n_iterations*; optional per-iteration callback(sim)."""
        for _ in range(int(n_iterations)):
            self.evolve_one_iteration()
            if callback is not None:
                callback(self)
        return self.diagnostics()

    # -- stellar evolution & feedback coupling --------------------------------------

    def exchange_stellar_evolution(self):
        """Advance SSE to the current time; apply mass loss to the
        gravity model and feedback energy to nearby gas."""
        self.se.evolve_model(self.model_time)
        new_mass = self.se.particles.mass
        old_mass = self.gravity.particles.mass
        dm = old_mass - new_mass
        dm_msun = np.maximum(dm.value_in(u.MSun), 0.0)

        types = np.asarray(self.se.particles.stellar_type)
        exploded = (types >= 13) & (self._previous_types < 13)
        self.n_supernovae += int(exploded.sum())

        # push masses: SE -> gravitational dynamics (paper Fig. 7)
        self.gravity.particles.mass = new_mass
        self.gravity.push_masses()

        if dm_msun.sum() > 0 and len(self.hydro.particles):
            self._inject_feedback(dm_msun, exploded)
        self._previous_types = types.copy()

    def _inject_feedback(self, dm_msun, exploded):
        """Deposit wind + SN energy into each losing star's nearest gas."""
        gas_pos = self.hydro.particles.position.value_in(u.m)
        star_pos = self.gravity.particles.position.value_in(u.m)
        gas_mass_kg = self.hydro.particles.mass.value_in(u.kg)
        k = min(self.feedback_neighbours, len(gas_pos))
        from scipy.spatial import cKDTree

        losers = np.flatnonzero(dm_msun > 0)
        # one query for every losing star; k == 1 returns a flat array
        _, neigh = cKDTree(gas_pos).query(star_pos[losers], k=k)
        neigh = neigh.reshape(len(losers), k)
        wind_v = self.wind_speed.value_in(u.m / u.s)
        energy = np.where(
            exploded[losers],
            self.sn_efficiency * SN_ENERGY.value_in(u.J),
            0.5 * (dm_msun[losers] * u.MSun.factor) * wind_v ** 2,
        )
        # np.add.at, not a fancy-indexed +=: a gas particle near several
        # stars gets every deposit, summed in star order
        du_j_per_kg = np.zeros(len(gas_pos))
        np.add.at(
            du_j_per_kg, neigh,
            (energy / gas_mass_kg[neigh].sum(axis=1))[:, None],
        )
        targets = np.flatnonzero(du_j_per_kg > 0)
        if len(targets):
            self.hydro.inject_energy(
                targets, Quantity(du_j_per_kg[targets], u.J / u.kg)
            )

    # -- diagnostics (Fig. 6 stages) ---------------------------------------------------

    def gas_specific_energy(self):
        """Specific energy of each gas particle in the combined
        potential (J/kg): ½v² + u + φ_stars + φ_gas."""
        gas = self.hydro.particles
        v2 = (gas.velocity.value_in(u.m / u.s) ** 2).sum(axis=1)
        uu = gas.u.value_in(u.J / u.kg)
        # the gas-on-gas term comes from the worker's own arrays: the
        # mirror positions, sent back as field points, would match the
        # stored ones bit for bit only by accident and every other
        # particle would count its own softened potential
        phi_gas = self.hydro.get_potential().value_in(u.J / u.kg)
        phi_stars = CouplingField(
            self.coupling, [self.gravity]
        ).get_potential_at_point(
            Quantity(0.0, u.m), gas.position
        ).value_in(u.J / u.kg)
        return 0.5 * v2 + uu + phi_gas + phi_stars

    def diagnostics(self):
        """Snapshot used by the Fig. 6 stage bench and the examples."""
        gas = self.hydro.particles
        stars = self.gravity.particles
        espec = self.gas_specific_energy()
        gm = gas.mass.value_in(u.MSun)
        bound_fraction = float(gm[espec < 0].sum() / gm.sum())

        star_center = stars.center_of_mass()
        gas_r_pc = np.linalg.norm(
            gas.position.value_in(u.parsec)
            - star_center.value_in(u.parsec),
            axis=1,
        )
        shell_radius = float(np.median(gas_r_pc))
        gas_half = _half_mass_radius(gas_r_pc, gm)
        star_r_pc = np.linalg.norm(
            stars.position.value_in(u.parsec)
            - star_center.value_in(u.parsec),
            axis=1,
        )
        star_half = _half_mass_radius(
            star_r_pc, stars.mass.value_in(u.MSun)
        )
        return ClusterDiagnostics(
            time_myr=float(self.model_time.value_in(u.Myr)),
            iteration=self.iteration,
            bound_gas_fraction=bound_fraction,
            gas_half_mass_radius_pc=gas_half,
            star_half_mass_radius_pc=star_half,
            shell_radius_pc=shell_radius,
            n_supernovae=self.n_supernovae,
            total_star_mass_msun=float(
                stars.mass.value_in(u.MSun).sum()
            ),
            gas_mass_msun=float(gm.sum()),
            stage=_classify_stage(bound_fraction),
        )

    def metrics(self):
        """Scalar conservation metrics for campaign aggregation.

        Energy drift is measured on the stellar-dynamics code (the
        bridge's kicks and SN feedback make the *total* energy
        intentionally non-conserved); mass metrics are fractions of
        the initial star/gas reservoirs.  Everything is a plain float
        so the dict feeds straight into
        :class:`~repro.ensemble.aggregate.StreamingAggregate` and a
        JSON result cache entry.
        """
        d = self.diagnostics()
        e0 = self._initial_gravity_energy_j
        e1 = float(self.gravity.total_energy.value_in(u.J))
        star_loss = 1.0 - (
            d["total_star_mass_msun"] / self._initial_star_mass_msun
        )
        gas_loss = 1.0 - (
            d["gas_mass_msun"] / self._initial_gas_mass_msun
        )
        return {
            "energy_drift": abs((e1 - e0) / e0) if e0 else 0.0,
            "mass_loss": star_loss,
            "gas_mass_loss": gas_loss,
            "bound_gas_fraction": d["bound_gas_fraction"],
            "time_myr": d["time_myr"],
            "n_supernovae": float(d["n_supernovae"]),
        }

    def stop(self):
        EvolveGroup(
            (self.gravity, self.hydro, self.se, self.coupling)
        ).stop()

    # -- cost-model hooks ----------------------------------------------------------

    def codes_by_role(self):
        """role -> high-level code, for deployment/cost accounting."""
        return {
            "gravity": self.gravity,
            "hydro": self.hydro,
            "se": self.se,
            "coupling": self.coupling,
        }


def _default_code_factory(cls, converter, channel_type, **params):
    if converter is None:
        return cls(channel_type=channel_type, **params)
    return cls(converter, channel_type=channel_type, **params)


def _half_mass_radius(radii, masses):
    order = np.argsort(radii)
    cum = np.cumsum(masses[order])
    if cum[-1] <= 0:
        return 0.0
    idx = int(np.searchsorted(cum, 0.5 * cum[-1]))
    return float(radii[order][min(idx, len(radii) - 1)])


def _classify_stage(bound_fraction):
    """Map bound-gas fraction to the four stages of paper Fig. 6."""
    if bound_fraction > 0.8:
        return "embedded"
    if bound_fraction > 0.4:
        return "expanding"
    if bound_fraction > 0.1:
        return "shell"
    return "expelled"
