"""Gadget — smoothed-particle hydrodynamics (Springel 2005).

The gas in the embedded-cluster simulation is evolved by Gadget, "a CPU
only model, written in C/MPI", run on 8 nodes in the paper's experiments.
This port implements the standard SPH formulation Gadget-2 uses at the
resolution relevant here:

* cubic-spline kernel, adaptive smoothing lengths from a fixed neighbour
  number (k-NN via a cKDTree, fully vectorized);
* ideal-gas equation of state (γ = 5/3) with Monaghan artificial
  viscosity;
* self-gravity through the shared :func:`~repro.codes.kernels.gravity_field`:
  summed directly up to ``kernels._DIRECT_MAX`` (1024) gas particles,
  where that is measured to beat the tree, and by the Barnes–Hut
  octree above;
* kick–drift–kick leapfrog with a Courant-limited global step.  A step
  needs forces after its drift and again at the top of the next step,
  and only ``vel`` and ``u`` change in between, so everything a force
  evaluation derives from positions and masses alone (kd-tree,
  neighbours, ``h``, ``rho``, pair geometry, kernel gradients,
  self-gravity) is computed once per drift and reused; the reused
  arrays are what a fresh evaluation would recompute, so this is exact
  (see :func:`sph_state_arrays`).

The *MPI* character of the original is preserved by
:func:`run_parallel_step` /:class:`ParallelGadget`, which decompose the
particle set over the ranks of the in-process MPI substrate
(:mod:`repro.mpi`) and reproduce Gadget's allgather + local-work +
allreduce communication pattern.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .base import CodeInterface, InCodeParticleStorage, ParticleStateMixin
from .kernels import gravity_field

__all__ = [
    "GadgetInterface",
    "ParallelGadget",
    "cubic_spline_kernel",
    "cubic_spline_gradient",
    "sph_state_arrays",
]


def cubic_spline_kernel(r, h):
    """Monaghan & Lattanzio (1985) M4 cubic spline, 3-D normalisation.

    Support is 2h: W = σ/h³ · (1 - 1.5q² + 0.75q³) for q<1,
    0.25·σ/h³·(2-q)³ for 1≤q<2, with σ = 1/π and q = r/h.
    """
    q = np.asarray(r) / np.asarray(h)
    sigma = 1.0 / np.pi / np.asarray(h) ** 3
    w = np.where(
        q < 1.0,
        1.0 - 1.5 * q ** 2 + 0.75 * q ** 3,
        np.where(q < 2.0, 0.25 * (2.0 - q) ** 3, 0.0),
    )
    return sigma * w


def cubic_spline_gradient(r, h):
    """dW/dr of the cubic spline (same support/normalisation)."""
    q = np.asarray(r) / np.asarray(h)
    sigma = 1.0 / np.pi / np.asarray(h) ** 4
    dw = np.where(
        q < 1.0,
        -3.0 * q + 2.25 * q ** 2,
        np.where(q < 2.0, -0.75 * (2.0 - q) ** 2, 0.0),
    )
    return sigma * dw


def _sph_geometry(pos, mass, k, sel, decomposed, eps2, theta,
                  self_gravity):
    """Everything :func:`sph_state_arrays` derives from positions and
    masses alone: neighbour lists, smoothing lengths, densities, pair
    separations, kernel gradients and the self-gravity of the selected
    rows.  None of it reads ``vel`` or ``u``."""
    tree = cKDTree(pos)
    dist, idx = tree.query(pos[sel], k=k)
    if k == 1:
        dist = dist[:, None]
        idx = idx[:, None]
    # smoothing length: kernel support 2h holds the k neighbours
    h = np.maximum(dist[:, -1] / 2.0, 1e-10)

    # density (gather form)
    w = cubic_spline_kernel(dist, h[:, None])
    rho = (mass[idx] * w).sum(axis=1)

    # to evaluate the symmetric pressure term we need rho at the
    # neighbours too; recompute it globally only when decomposed
    if not decomposed:
        rho_all = rho
        h_all = h
    else:
        dist_all, idx_all = tree.query(pos, k=k)
        if k == 1:
            dist_all, idx_all = dist_all[:, None], idx_all[:, None]
        h_all = np.maximum(dist_all[:, -1] / 2.0, 1e-10)
        rho_all = (
            mass[idx_all] * cubic_spline_kernel(dist_all, h_all[:, None])
        ).sum(axis=1)

    r = np.maximum(dist, 1e-12)
    # symmetrised smoothing length
    h_ij = 0.5 * (h[:, None] + h_all[idx])
    geometry = {
        "idx": idx, "h": h, "rho": rho, "rho_all": rho_all, "r": r,
        "h_ij": h_ij,
        "dr": pos[sel][:, None, :] - pos[idx],         # (m, k, 3)
        "rho_ij": 0.5 * (rho[:, None] + rho_all[idx]),
        "mu_denominator": r ** 2 + 0.01 * h_ij ** 2,
        "grad": cubic_spline_gradient(r, h_ij),        # dW/dr at h_ij
        "rho2_i": rho[:, None] ** 2,
        "rho2_j": rho_all[idx] ** 2,
        "mass_j": mass[idx],
        "gravity": None,
    }
    if self_gravity:
        geometry["gravity"] = gravity_field(pos, mass).accelerations(
            targets=pos[sel], theta=theta, eps2=eps2
        )
    return geometry


def sph_state_arrays(pos, vel, mass, u, n_neighbours, gamma,
                     alpha, beta, eps2, theta, self_gravity,
                     row_slice=None, geometry=None):
    """Density + acceleration + du/dt for (a slab of) an SPH system.

    This is the shared compute core for the serial and MPI-parallel
    paths: the caller passes the *global* arrays and optionally a
    ``row_slice`` restricting which particles' results are computed
    (domain decomposition).  Returns (rho, h, acc, dudt, dt_courant)
    for the selected rows.

    The evaluation has a position/mass-only part (:func:`_sph_geometry`:
    kd-tree, neighbour query, ``h``, ``rho``, pair geometry, kernel
    gradients, self-gravity) and a cheap part that also reads
    ``vel`` and ``u`` (pressure, viscosity, the pair sums).  A KDK step
    evaluates forces after the drift and again at the top of the next
    step, and only ``vel`` and ``u`` change in between (the half kick),
    so an integrator loop passes one dict as *geometry*: an empty dict
    is filled, a filled one is reused, and the loop clears it on its
    drift line.  The reused arrays are the ones a fresh evaluation
    would recompute from the same inputs with the same operations, so
    the result is bit-identical to evaluating everything twice.
    """
    pos = np.asarray(pos, dtype=float)
    vel = np.asarray(vel, dtype=float)
    mass = np.asarray(mass, dtype=float)
    u = np.maximum(np.asarray(u, dtype=float), 1e-12)
    n = len(pos)
    sel = slice(0, n) if row_slice is None else row_slice
    if geometry is None:
        geometry = {}
    if not geometry:
        geometry.update(_sph_geometry(
            pos, mass, min(int(n_neighbours), n), sel,
            row_slice is not None, eps2, theta, self_gravity,
        ))
    g = geometry
    idx, h, rho, r, dr = g["idx"], g["h"], g["rho"], g["r"], g["dr"]

    pressure = (gamma - 1.0) * g["rho_all"] * u
    cs = np.sqrt(gamma * (gamma - 1.0) * u)

    dv = vel[sel][:, None, :] - vel[idx]
    # symmetrised sound speed
    c_ij = 0.5 * (cs[sel][:, None] + cs[idx])
    vdotr = (dv * dr).sum(axis=2)

    # Monaghan (1992) artificial viscosity
    mu = g["h_ij"] * vdotr / g["mu_denominator"]
    mu = np.where(vdotr < 0.0, mu, 0.0)
    visc = (-alpha * c_ij * mu + beta * mu ** 2) / g["rho_ij"]

    p_term = (
        pressure[sel][:, None] / g["rho2_i"]
        + pressure[idx] / g["rho2_j"]
        + visc
    )
    # ∇W = grad * dr/r
    coeff = g["mass_j"] * p_term * g["grad"] / r
    acc = -(coeff[:, :, None] * dr).sum(axis=1)

    du_coeff = g["mass_j"] * (
        pressure[sel][:, None] / g["rho2_i"] + 0.5 * visc
    ) * g["grad"] / r
    dudt = (du_coeff * vdotr).sum(axis=1)

    if self_gravity:
        acc = acc + g["gravity"]

    vmag = np.linalg.norm(vel[sel], axis=1)
    signal = cs[sel] + vmag + 1e-12
    dt_courant = float((h / signal).min()) if len(h) else np.inf
    return rho, h, acc, dudt, dt_courant


class GadgetInterface(ParticleStateMixin, CodeInterface):
    """Low-level Gadget interface (serial path; N-body units, G = 1)."""

    PARAMETERS = {
        "n_neighbours": (32, "SPH neighbour count"),
        "gamma": (5.0 / 3.0, "adiabatic index"),
        "alpha_visc": (1.0, "Monaghan viscosity alpha"),
        "beta_visc": (2.0, "Monaghan viscosity beta"),
        "courant": (0.3, "Courant factor for the global step"),
        "eps2": (1e-4, "gravitational softening squared"),
        "theta": (0.6, "gravity tree opening angle"),
        "self_gravity": (True, "include gas self-gravity"),
        "max_dt": (1.0 / 32.0, "upper bound on the leapfrog step"),
    }
    KERNEL_DEVICE = "cpu"
    LITERATURE = "Springel (2005), MNRAS 364"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.storage = InCodeParticleStorage(
            {"mass": 1, "pos": 3, "vel": 3, "u": 1, "rho": 1, "h": 1}
        )

    # -- particles ---------------------------------------------------------

    EXTRA_STATE = ("u",)

    def _state_written(self, what):
        # every evolve starts with a force evaluation on the stored
        # arrays, so mass, velocity and u writes leave the model
        # running (paper Fig. 7: exchanged between inner steps)
        if what in ("particles", "pos"):
            self.invalidate_model()

    def get_internal_energy(self, ids=None):
        return self.storage.read("u", ids)

    def set_internal_energy(self, ids, u):
        # feedback injection path: no state invalidation (paper Fig. 7:
        # SE/feedback exchanged between inner steps)
        self.storage.set("u", u, ids)
        return 0

    def add_internal_energy(self, ids, du):
        self.storage.add_to("u", du, ids)
        return 0

    def get_density(self, ids=None):
        return self.storage.read("rho", ids)

    def get_smoothing_length(self, ids=None):
        return self.storage.read("h", ids)

    # -- dynamics ---------------------------------------------------------------

    def _forces(self, geometry=None):
        """One force evaluation on the stored state; *geometry* is the
        integrator loop's holder for the position-only part (see
        :func:`sph_state_arrays`)."""
        st = self.storage
        # an empty (or absent) holder means this call runs the
        # neighbour and tree passes; a filled one means it reuses them
        new_positions = not geometry
        rho, h, acc, dudt, dt_c = sph_state_arrays(
            st.arrays["pos"], st.arrays["vel"], st.arrays["mass"],
            st.arrays["u"], self.n_neighbours, self.gamma,
            self.alpha_visc, self.beta_visc, self.eps2, self.theta,
            self.self_gravity, geometry=geometry,
        )
        st.arrays["rho"][...] = rho
        st.arrays["h"][...] = h
        if new_positions:
            n = len(st)
            self.interaction_count += n * min(self.n_neighbours, n)
            if self.self_gravity:
                self.interaction_count += int(
                    n * max(1.0, np.log2(max(n, 2)))
                )
        return acc, dudt, dt_c

    def commit_particles(self):
        if len(self.storage):
            self._forces()
        return 0

    def evolve_model(self, end_time):
        """KDK leapfrog to *end_time* with Courant-limited steps.

        The forces after the drift of step n and at the top of step
        n+1 see the same positions, so the position-only work is done
        once per drift: ``geometry`` lives in this loop only, is filled
        by the first evaluation after each drift and cleared by the
        next drift.  Every call starts with it empty, so positions set
        from outside between calls never meet stale geometry.
        """
        self.ensure_state("RUN")
        st = self.storage
        if len(st) == 0:
            self.model_time = float(end_time)
            return 0
        pos = st.arrays["pos"]
        vel = st.arrays["vel"]
        u = st.arrays["u"]
        geometry = {}
        while self.model_time < end_time - 1e-15:
            acc, dudt, dt_c = self._forces(geometry)
            dt = min(
                self.courant * dt_c, self.max_dt,
                end_time - self.model_time,
            )
            vel += 0.5 * dt * acc
            u += 0.5 * dt * dudt
            np.maximum(u, 1e-12, out=u)
            pos += dt * vel
            geometry.clear()
            acc, dudt, _ = self._forces(geometry)
            vel += 0.5 * dt * acc
            u += 0.5 * dt * dudt
            np.maximum(u, 1e-12, out=u)
            self.model_time += dt
            self.step_count += 1
        return 0

    # -- diagnostics / bridge surface -----------------------------------------------

    def get_kinetic_energy(self):
        st = self.storage
        return float(
            0.5 * (st.arrays["mass"] * (st.arrays["vel"] ** 2).sum(axis=1)
                   ).sum()
        )

    def get_thermal_energy(self):
        st = self.storage
        return float((st.arrays["mass"] * st.arrays["u"]).sum())

    def get_potential_energy(self):
        st = self.storage
        if not self.self_gravity or len(st) == 0:
            return 0.0
        return float(
            0.5 * (st.arrays["mass"] * self.get_potential()).sum()
        )

    def get_total_energy(self):
        return (
            self.get_kinetic_energy() + self.get_thermal_energy()
            + self.get_potential_energy()
        )

    def get_gravity_at_point(self, eps2, points):
        st = self.storage
        field = gravity_field(st.arrays["pos"], st.arrays["mass"])
        pts = np.asarray(points, dtype=float)
        self.interaction_count += int(
            len(pts) * max(1.0, np.log2(max(len(st), 2)))
        )
        return field.accelerations(
            targets=pts, theta=self.theta,
            eps2=max(float(eps2), self.eps2),
        )

    def get_potential_at_point(self, eps2, points):
        st = self.storage
        field = gravity_field(st.arrays["pos"], st.arrays["mass"])
        return field.potentials(
            targets=np.asarray(points, dtype=float), theta=self.theta,
            eps2=max(float(eps2), self.eps2),
        )

    def get_potential(self, ids=None):
        """Potential of the gas at the particles' own positions, each
        particle's own softened potential left out.

        Evaluated on the stored arrays: the field recognises a
        particle as its own source only at an exactly zero separation,
        which positions that went through a unit conversion on their
        way back in as ``get_potential_at_point`` targets do not keep.
        """
        st = self.storage
        field = gravity_field(st.arrays["pos"], st.arrays["mass"])
        phi = field.potentials(theta=self.theta, eps2=self.eps2)
        return phi if ids is None else phi[st.rows(ids)]


class ParallelGadget:
    """Domain-decomposed evolution of a :class:`GadgetInterface` over the
    in-process MPI substrate — Gadget's C/MPI character (paper: "8 nodes,
    C/MPI/Ibis, gas dynamics (Gadget)").

    Rank r owns a contiguous slab of particles.  Each step: allgather the
    (small) global state, compute forces for the local slab, allreduce
    the Courant step, advance the slab, allgather the result.  The serial
    and parallel paths share :func:`sph_state_arrays`, so results agree
    to round-off for the same step sequence.
    """

    def __init__(self, interface, world):
        self.interface = interface
        self.world = world

    def evolve_model(self, end_time):
        iface = self.interface
        iface.ensure_state("RUN")
        st = iface.storage
        n = len(st)
        if n == 0:
            iface.model_time = float(end_time)
            return 0
        size = self.world.size
        bounds = np.linspace(0, n, size + 1).astype(int)
        state = {
            "pos": st.arrays["pos"].copy(),
            "vel": st.arrays["vel"].copy(),
            "u": st.arrays["u"].copy(),
            "mass": st.arrays["mass"].copy(),
            "t": float(iface.model_time),
        }

        def rank_main(comm):
            lo, hi = bounds[comm.rank], bounds[comm.rank + 1]
            sl = slice(lo, hi)
            pos = comm.bcast(state["pos"], root=0)
            vel = comm.bcast(state["vel"], root=0)
            u = comm.bcast(state["u"], root=0)
            mass = comm.bcast(state["mass"], root=0)
            t = state["t"]
            # position-only part of the force evaluation, kept from
            # the post-drift call to the next step's first call
            geometry = {}
            while t < end_time - 1e-15:
                rho, h, acc, dudt, dt_c = sph_state_arrays(
                    pos, vel, mass, u, iface.n_neighbours, iface.gamma,
                    iface.alpha_visc, iface.beta_visc, iface.eps2,
                    iface.theta, iface.self_gravity, row_slice=sl,
                    geometry=geometry,
                )
                dt = comm.allreduce(
                    min(iface.courant * dt_c, iface.max_dt,
                        end_time - t),
                    op="min",
                )
                my_vel = vel[sl] + 0.5 * dt * acc
                my_u = np.maximum(u[sl] + 0.5 * dt * dudt, 1e-12)
                my_pos = pos[sl] + dt * my_vel
                pos = comm.allgatherv(my_pos)
                geometry.clear()
                # u and vel at half step are needed globally for forces
                vel_half = comm.allgatherv(my_vel)
                u_half = comm.allgatherv(my_u)
                rho, h, acc, dudt, _ = sph_state_arrays(
                    pos, vel_half, mass, u_half, iface.n_neighbours,
                    iface.gamma, iface.alpha_visc, iface.beta_visc,
                    iface.eps2, iface.theta, iface.self_gravity,
                    row_slice=sl, geometry=geometry,
                )
                my_vel = vel_half[sl] + 0.5 * dt * acc
                my_u = np.maximum(u_half[sl] + 0.5 * dt * dudt, 1e-12)
                vel = comm.allgatherv(my_vel)
                u = comm.allgatherv(my_u)
                t += dt
            return pos, vel, u, t

        results = self.world.run(rank_main)
        pos, vel, u, t = results[0]
        st.arrays["pos"][...] = pos
        st.arrays["vel"][...] = vel
        st.arrays["u"][...] = u
        iface.model_time = t
        iface.step_count += 1
        return 0
