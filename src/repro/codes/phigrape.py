"""PhiGRAPE — direct-summation N-body dynamics (Harfst et al. 2007).

The paper uses PhiGRAPE for the gravity between stars, "available in both
a CPU and a GPU (using CUDA) variant".  This port implements the same
algorithm both variants share: a 4th-order Hermite predictor–corrector
with a shared adaptive time step (Aarseth criterion) and Plummer
softening.  The two kernel variants are numerically identical — the paper
stresses that kernel choice "has no influence in the result of the
simulation, but may have a dramatic effect on performance" — so
:class:`PhiGRAPEInterface` takes a ``kernel`` parameter ("cpu" or "gpu")
that only changes the device tag the jungle cost model charges time for.

All quantities are in N-body units (G = 1).
"""

from __future__ import annotations

import numpy as np

from .base import CodeInterface, InCodeParticleStorage, ParticleStateMixin
from .kernels import direct_acc_jerk, direct_acceleration, direct_potential

__all__ = ["PhiGRAPEInterface"]


class PhiGRAPEInterface(ParticleStateMixin, CodeInterface):
    """Low-level PhiGRAPE interface (Hermite scheme, direct summation)."""

    PARAMETERS = {
        "eps2": (1e-4, "Plummer softening length squared (nbody units)"),
        "eta": (0.02, "Aarseth accuracy parameter for the time step"),
        "kernel": ("cpu", "'cpu' or 'gpu' — identical physics, "
                          "different device for the cost model"),
        "initial_dt_fraction": (0.01, "first-step dt as fraction of eta"),
    }
    LITERATURE = "Harfst et al. (2007), New Astronomy 12"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.storage = InCodeParticleStorage(
            {"mass": 1, "pos": 3, "vel": 3}
        )
        self._acc = None
        self._jerk = None

    @property
    def KERNEL_DEVICE(self):  # noqa: N802 - mirrors the class attribute
        return "gpu" if self.kernel == "gpu" else "cpu"

    def commit_parameters(self):
        if self.kernel not in ("cpu", "gpu"):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        return 0

    def _state_written(self, what):
        if what == "mass":
            # mass updates do NOT invalidate: the stellar-evolution
            # coupling updates masses mid-run (paper Fig. 7, slower SE
            # exchange)
            self._acc = None
        else:
            self.invalidate_model()

    # -- dynamics -----------------------------------------------------------------

    def commit_particles(self):
        self._refresh_forces()
        return 0

    def _refresh_forces(self):
        st = self.storage
        self._acc, self._jerk = direct_acc_jerk(
            st.arrays["pos"], st.arrays["vel"], st.arrays["mass"],
            self.eps2,
        )
        self.interaction_count += len(st) ** 2

    def _timestep(self, t_left):
        """Shared adaptive step: eta * min |a|/|j| (Aarseth-style)."""
        a = np.linalg.norm(self._acc, axis=1)
        j = np.linalg.norm(self._jerk, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(j > 0, a / j, np.inf)
        dt = self.eta * float(ratio.min()) if len(ratio) else t_left
        if not np.isfinite(dt) or dt <= 0:
            dt = self.eta * self.initial_dt_fraction
        return min(dt, t_left)

    def evolve_model(self, end_time):
        """Hermite steps until model_time reaches *end_time*."""
        self.ensure_state("RUN")
        st = self.storage
        if len(st) == 0:
            self.model_time = float(end_time)
            return 0
        pos = st.arrays["pos"]
        vel = st.arrays["vel"]
        mass = st.arrays["mass"]
        if self._acc is None:
            self._refresh_forces()
        while self.model_time < end_time - 1e-15:
            dt = self._timestep(end_time - self.model_time)
            a0, j0 = self._acc, self._jerk
            # predict
            dt2, dt3 = dt * dt / 2.0, dt ** 3 / 6.0
            pos_p = pos + vel * dt + a0 * dt2 + j0 * dt3
            vel_p = vel + a0 * dt + j0 * dt * dt / 2.0
            # evaluate at prediction
            a1, j1 = direct_acc_jerk(pos_p, vel_p, mass, self.eps2)
            self.interaction_count += len(st) ** 2
            # correct (Hermite 4th order, Makino & Aarseth 1992)
            vel_c = vel + 0.5 * (a0 + a1) * dt + (j0 - j1) * dt * dt / 12.0
            pos_c = (
                pos + 0.5 * (vel + vel_c) * dt
                + (a0 - a1) * dt * dt / 12.0
            )
            pos[...] = pos_c
            vel[...] = vel_c
            self._acc, self._jerk = a1, j1
            self.model_time += dt
            self.step_count += 1
        return 0

    # -- diagnostics & bridge surface ------------------------------------------------

    def get_kinetic_energy(self):
        st = self.storage
        return float(
            0.5 * (st.arrays["mass"] * (st.arrays["vel"] ** 2).sum(axis=1)
                   ).sum()
        )

    def get_potential_energy(self):
        st = self.storage
        phi = direct_potential(
            st.arrays["pos"], st.arrays["mass"], self.eps2
        )
        return float(0.5 * (st.arrays["mass"] * phi).sum())

    def get_total_energy(self):
        return self.get_kinetic_energy() + self.get_potential_energy()

    def get_gravity_at_point(self, eps2, points):
        """Acceleration field of this system at external points."""
        st = self.storage
        self.interaction_count += len(st) * len(points)
        return direct_acceleration(
            st.arrays["pos"], st.arrays["mass"],
            eps2=max(float(eps2), self.eps2), targets=np.asarray(points),
        )

    def get_potential_at_point(self, eps2, points):
        st = self.storage
        self.interaction_count += len(st) * len(points)
        return direct_potential(
            st.arrays["pos"], st.arrays["mass"],
            eps2=max(float(eps2), self.eps2), targets=np.asarray(points),
        )

    def get_center_of_mass(self):
        st = self.storage
        m = st.arrays["mass"]
        return (m[:, None] * st.arrays["pos"]).sum(axis=0) / m.sum()
