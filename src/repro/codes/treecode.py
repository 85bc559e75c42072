"""Shared implementation of the Barnes–Hut tree gravity codes.

Octgrav (Gaburov et al. 2010, GPU) and Fi (Pelupessy 2005, CPU) both act
as the *coupling* model in the embedded-cluster simulation: they compute
the gravitational field that gas and stars exert on each other (the
"p-kicks" of paper Fig. 7).  Both expose the same interface; they differ
in device (GPU vs CPU — a factor the jungle cost model charges) and in
their default opening angle.

Self-contained dynamics (leapfrog KDK with a fixed time step, the usual
choice for tree codes) is also provided so the codes can be used as
standalone gravity solvers.

The field comes from :func:`~repro.codes.kernels.gravity_field`: a
direct sum up to ``kernels._DIRECT_MAX`` (1024) particles, where that is
measured to beat the tree, and the Barnes–Hut octree (``leaf_size``,
``theta``) above.
"""

from __future__ import annotations

import numpy as np

from .base import CodeInterface, InCodeParticleStorage, ParticleStateMixin
from .kernels import gravity_field

__all__ = ["TreeGravityInterface", "OctgravInterface", "FiInterface"]


class TreeGravityInterface(ParticleStateMixin, CodeInterface):
    """Base for Barnes–Hut tree gravity codes (N-body units, G = 1)."""

    PARAMETERS = {
        "eps2": (1e-4, "Plummer softening squared"),
        "theta": (0.6, "Barnes-Hut opening angle"),
        "timestep": (1.0 / 64.0, "leapfrog step (nbody time)"),
        "leaf_size": (16, "tree leaf size"),
    }

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.storage = InCodeParticleStorage(
            {"mass": 1, "pos": 3, "vel": 3}
        )
        self._tree = None

    # -- particles ------------------------------------------------------------

    def _state_written(self, what):
        if what == "particles":
            self.invalidate_model()
        if what != "vel":
            self._tree = None

    def load_field_particles(self, mass, pos):
        """Replace the whole particle content (coupling-model fast path).

        The coupling code (Octgrav/Fi) receives the current star + gas
        configuration before every kick phase; this single call replaces
        the delete-all/re-add dance with one bulk state upload.
        """
        self.storage = InCodeParticleStorage(
            {"mass": 1, "pos": 3, "vel": 3}
        )
        pos = np.asarray(pos, dtype=float)
        self.storage.add(mass=mass, pos=pos, vel=np.zeros_like(pos))
        self._tree = None
        if self.state in ("UNINITIALIZED", "INITIALIZED"):
            self.ensure_state("EDIT")
        return len(self.storage)

    # -- tree -------------------------------------------------------------------

    def _ensure_tree(self):
        if self._tree is None:
            st = self.storage
            self._tree = gravity_field(
                st.arrays["pos"], st.arrays["mass"],
                leaf_size=int(self.leaf_size),
            )
            n = len(st)
            self.interaction_count += int(
                n * max(1.0, np.log2(max(n, 2)))
            )
        return self._tree

    def commit_particles(self):
        self._ensure_tree()
        return 0

    # -- dynamics ----------------------------------------------------------------

    def evolve_model(self, end_time):
        """Leapfrog KDK until *end_time* with the fixed parameter step.

        The acceleration after a step's drift is the next step's
        first-kick acceleration (a kick moves no particle), so it is
        carried over: one tree build and walk per drift.  ``acc`` lives
        in this loop only and every call starts without one.
        """
        self.ensure_state("RUN")
        st = self.storage
        if len(st) == 0:
            self.model_time = float(end_time)
            return 0
        pos = st.arrays["pos"]
        vel = st.arrays["vel"]
        acc = None
        while self.model_time < end_time - 1e-15:
            dt = min(self.timestep, end_time - self.model_time)
            if acc is None:
                acc = self._field_acc(pos)
            vel += 0.5 * dt * acc
            pos += dt * vel
            self._tree = None
            acc = self._field_acc(pos)
            vel += 0.5 * dt * acc
            self.model_time += dt
            self.step_count += 1
        return 0

    def _field_acc(self, targets):
        tree = self._ensure_tree()
        n = len(self.storage)
        self.interaction_count += int(
            len(targets) * max(1.0, np.log2(max(n, 2)))
        )
        return tree.accelerations(
            targets=targets, theta=self.theta, eps2=self.eps2
        )

    # -- energies & bridge field surface --------------------------------------------

    def get_kinetic_energy(self):
        st = self.storage
        return float(
            0.5 * (st.arrays["mass"] * (st.arrays["vel"] ** 2).sum(axis=1)
                   ).sum()
        )

    def get_potential_energy(self):
        st = self.storage
        tree = self._ensure_tree()
        phi = tree.potentials(theta=self.theta, eps2=self.eps2)
        return float(0.5 * (st.arrays["mass"] * phi).sum())

    def get_total_energy(self):
        return self.get_kinetic_energy() + self.get_potential_energy()

    def get_gravity_at_point(self, eps2, points):
        tree = self._ensure_tree()
        pts = np.asarray(points, dtype=float)
        n = len(self.storage)
        self.interaction_count += int(
            len(pts) * max(1.0, np.log2(max(n, 2)))
        )
        return tree.accelerations(
            targets=pts, theta=self.theta,
            eps2=max(float(eps2), self.eps2),
        )

    def get_potential_at_point(self, eps2, points):
        tree = self._ensure_tree()
        pts = np.asarray(points, dtype=float)
        n = len(self.storage)
        self.interaction_count += int(
            len(pts) * max(1.0, np.log2(max(n, 2)))
        )
        return tree.potentials(
            targets=pts, theta=self.theta,
            eps2=max(float(eps2), self.eps2),
        )


class OctgravInterface(TreeGravityInterface):
    """Octgrav: "gravitational tree-code on graphics processing units"
    (Gaburov, Bédorf & Portegies Zwart 2010).  GPU device tag; slightly
    wider opening angle, as the original trades accuracy for throughput.
    """

    PARAMETERS = dict(TreeGravityInterface.PARAMETERS)
    PARAMETERS["theta"] = (0.6, "Barnes-Hut opening angle")
    KERNEL_DEVICE = "gpu"
    LITERATURE = "Gaburov, Bedorf & Portegies Zwart (2010)"


class FiInterface(TreeGravityInterface):
    """Fi: TreeSPH code of Pelupessy (2005) used here in gravity mode —
    the CPU fallback for the coupling model ("If no GPU is available,
    the Fi model, written in Fortran, can be used instead").
    """

    PARAMETERS = dict(TreeGravityInterface.PARAMETERS)
    PARAMETERS["theta"] = (0.5, "Barnes-Hut opening angle")
    KERNEL_DEVICE = "cpu"
    LITERATURE = "Pelupessy (2005), PhD thesis, Leiden Observatory"
