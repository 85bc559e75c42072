"""The KDK loops evaluate position-only work once per position.

A kick–drift–kick step needs forces after its drift and again at the
top of the next step; nothing moves in between, so Gadget (serial and
MPI) and the tree codes carry the position-only part across the loop
boundary.  These tests pin that this changes no bit of the result:
each loop must end ``array_equal`` to a test-local loop that evaluates
everything afresh twice per step, also when a script edits the state
between two ``evolve_model`` calls.
"""

import numpy as np
import pytest

from repro.codes.gadget import (
    GadgetInterface,
    ParallelGadget,
    sph_state_arrays,
)
from repro.codes.kernels import gravity_field
from repro.codes.treecode import FiInterface
from repro.ic import new_plummer_gas_model, new_plummer_model
from repro.mpi import World

N_GAS = 96
GADGET = dict(n_neighbours=16, max_dt=1.0 / 64.0)


def new_gadget():
    gas = new_plummer_gas_model(N_GAS, rng=5)
    code = GadgetInterface(**GADGET)
    code.new_particle(
        gas.mass.number, *gas.position.number.T, *gas.velocity.number.T,
        gas.u.number,
    )
    code.ensure_state("RUN")
    return code


def gadget_state(code):
    arrays = code.storage.arrays
    return {name: arrays[name].copy()
            for name in ("pos", "vel", "u", "mass")}


def fresh_kdk(code, state, t, end_time, slabs=(None,)):
    """Advance *state* in place from *t* to *end_time*: every force
    evaluation from scratch, slab by slab as the MPI ranks would."""
    pos, vel, u, mass = (state[k] for k in ("pos", "vel", "u", "mass"))

    def forces():
        return [
            sph_state_arrays(
                pos, vel, mass, u, code.n_neighbours, code.gamma,
                code.alpha_visc, code.beta_visc, code.eps2, code.theta,
                code.self_gravity, row_slice=slab,
            )
            for slab in slabs
        ]

    def kick(parts, dt):
        for slab, (_rho, _h, acc, dudt, _dt_c) in zip(slabs, parts):
            rows = slice(None) if slab is None else slab
            vel[rows] = vel[rows] + 0.5 * dt * acc
            u[rows] = np.maximum(u[rows] + 0.5 * dt * dudt, 1e-12)

    steps = 0
    while t < end_time - 1e-15:
        parts = forces()
        dt = min(
            min(code.courant * part[4], code.max_dt, end_time - t)
            for part in parts
        )
        kick(parts, dt)
        pos += dt * vel
        kick(forces(), dt)
        t += dt
        steps += 1
    return t, steps


def assert_same_state(code, state):
    arrays = code.storage.arrays
    for name in ("pos", "vel", "u"):
        assert np.array_equal(arrays[name], state[name]), name


class TestGadgetHoistIsBitwise:
    def test_serial(self):
        code = new_gadget()
        state = gadget_state(code)
        t, steps = fresh_kdk(code, state, 0.0, 1.0 / 8.0)
        code.evolve_model(1.0 / 8.0)
        assert steps >= 8
        assert code.step_count == steps
        assert code.model_time == t
        assert_same_state(code, state)

    @pytest.mark.parametrize("ranks", [2, 3])
    def test_parallel(self, ranks):
        code = new_gadget()
        state = gadget_state(code)
        bounds = np.linspace(0, N_GAS, ranks + 1).astype(int)
        slabs = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        t, _ = fresh_kdk(code, state, 0.0, 1.0 / 16.0, slabs)
        ParallelGadget(code, World(ranks)).evolve_model(1.0 / 16.0)
        assert code.model_time == t
        assert_same_state(code, state)

    def test_velocity_and_energy_edits_between_calls(self):
        code = new_gadget()
        state = gadget_state(code)
        rng = np.random.default_rng(0)
        ids = np.arange(N_GAS)
        t, _ = fresh_kdk(code, state, 0.0, 1.0 / 32.0)
        code.evolve_model(1.0 / 32.0)

        kick = rng.normal(size=(N_GAS, 3)) * 0.01
        code.add_velocity(ids, kick)
        state["vel"] += kick
        new_u = state["u"][:7] * 3.0
        code.set_internal_energy(ids[:7], new_u)
        state["u"][:7] = new_u
        t, _ = fresh_kdk(code, state, t, 2.0 / 32.0)
        code.evolve_model(2.0 / 32.0)
        assert_same_state(code, state)

        new_vel = rng.normal(size=(N_GAS, 3)) * 0.1
        code.set_velocity(ids, new_vel)
        state["vel"][...] = new_vel
        t, _ = fresh_kdk(code, state, t, 3.0 / 32.0)
        code.evolve_model(3.0 / 32.0)
        assert code.model_time == t
        assert_same_state(code, state)

    def test_position_edit_between_calls(self):
        """Positions changed outside the loop never meet geometry of
        the old ones."""
        code = new_gadget()
        state = gadget_state(code)
        t, _ = fresh_kdk(code, state, 0.0, 1.0 / 32.0)
        code.evolve_model(1.0 / 32.0)

        moved = state["pos"][::-1] * 1.3
        code.set_position(np.arange(N_GAS), moved)
        state["pos"][...] = moved
        fresh_kdk(code, state, t, 2.0 / 32.0)
        code.evolve_model(2.0 / 32.0)
        assert_same_state(code, state)

    def test_interaction_count_counts_passes_computed(self):
        """One neighbour pass and one tree pass per distinct position
        set: the commit, then one per drift plus the call's first."""
        code = new_gadget()
        per_pass = N_GAS * GADGET["n_neighbours"] + int(
            N_GAS * np.log2(N_GAS)
        )
        assert code.interaction_count == per_pass          # the commit
        code.evolve_model(1.0 / 16.0)
        assert code.step_count >= 4
        assert code.interaction_count == per_pass * (
            1 + 1 + code.step_count
        )
        steps = code.step_count
        code.evolve_model(2.0 / 16.0)
        assert code.interaction_count == per_pass * (
            1 + 2 + code.step_count
        )
        assert code.step_count > steps


def new_fi():
    stars = new_plummer_model(80, rng=2)
    code = FiInterface(eps2=1e-3, timestep=1.0 / 64.0, leaf_size=4)
    code.new_particle(
        stars.mass.number, *stars.position.number.T,
        *stars.velocity.number.T,
    )
    code.ensure_state("RUN")
    return code


def fresh_tree_kdk(code, state, t, end_time):
    pos, vel, mass = state["pos"], state["vel"], state["mass"]

    def acc():
        field = gravity_field(pos, mass, leaf_size=code.leaf_size)
        return field.accelerations(
            targets=pos, theta=code.theta, eps2=code.eps2
        )

    while t < end_time - 1e-15:
        dt = min(code.timestep, end_time - t)
        vel += 0.5 * dt * acc()
        pos += dt * vel
        vel += 0.5 * dt * acc()
        t += dt
    return t


class TestTreeCodeHoistIsBitwise:
    def test_evolve_with_edits_between_calls(self):
        code = new_fi()
        arrays = code.storage.arrays
        state = {k: arrays[k].copy() for k in ("pos", "vel", "mass")}
        ids = np.arange(len(state["mass"]))
        t = fresh_tree_kdk(code, state, 0.0, 0.1)
        code.evolve_model(0.1)
        assert code.step_count == 7        # six full steps and a rest
        for name in ("pos", "vel"):
            assert np.array_equal(arrays[name], state[name])

        new_vel = state["vel"] * 0.5
        code.set_velocity(ids, new_vel)
        state["vel"][...] = new_vel
        t = fresh_tree_kdk(code, state, t, 0.15)
        code.evolve_model(0.15)
        for name in ("pos", "vel"):
            assert np.array_equal(arrays[name], state[name])

        moved = state["pos"][::-1] * 1.1
        code.set_position(ids, moved)
        state["pos"][...] = moved
        t = fresh_tree_kdk(code, state, t, 0.2)
        code.evolve_model(0.2)
        assert code.model_time == t
        for name in ("pos", "vel"):
            assert np.array_equal(arrays[name], state[name])

    def test_interaction_count_counts_passes_computed(self):
        code = new_fi()
        n = len(code.storage)
        per_pass = int(n * np.log2(n))
        assert code.interaction_count == per_pass    # the commit's build
        code.evolve_model(4.0 / 64.0)
        # the commit's tree serves the first walk; then one build and
        # one walk per drift
        assert code.step_count == 4
        assert code.interaction_count == per_pass * (1 + 1 + 2 * 4)
