"""Bridge (kick-drift-kick) coupling tests."""

import numpy as np
import pytest
from reference_bridge import barrier_evolve

from repro.codes import Fi, Gadget, PhiGRAPE
from repro.coupling import Bridge, CouplingField
from repro.ic import new_plummer_gas_model, new_plummer_model
from repro.units import Quantity, nbody_system, units


@pytest.fixture
def converter():
    return nbody_system.nbody_to_si(
        200.0 | units.MSun, 0.5 | units.parsec
    )


def make_two_system_bridge(converter, n_stars=24, n_gas=96, dt=0.02):
    stars = new_plummer_model(n_stars, convert_nbody=converter, rng=0)
    gas = new_plummer_gas_model(n_gas, convert_nbody=converter, rng=1)
    gravity = PhiGRAPE(converter, eta=0.1)
    hydro = Gadget(converter, n_neighbours=12)
    coupling = Fi(converter)
    gravity.add_particles(stars)
    hydro.add_particles(gas)
    bridge = Bridge(timestep=Quantity(dt, units.Myr))
    bridge.add_system(
        gravity, [CouplingField(coupling, [hydro])]
    )
    bridge.add_system(
        hydro, [CouplingField(coupling, [gravity])]
    )
    return bridge, gravity, hydro, coupling


class TestCouplingField:
    def test_field_matches_source_system(self, converter):
        stars = new_plummer_model(64, convert_nbody=converter, rng=2)
        gravity = PhiGRAPE(converter)
        gravity.add_particles(stars)
        coupling = Fi(converter, theta=0.3)
        field = CouplingField(coupling, [gravity])
        point = np.array([[3.0, 0.0, 0.0]]) * 3.086e16 | units.m
        acc_field = field.get_gravity_at_point(
            0.01 | units.parsec, Quantity(point.number, units.m)
        ).value_in(units.m / units.s ** 2)
        acc_direct = gravity.get_gravity_at_point(
            0.01 | units.parsec, Quantity(point.number, units.m)
        ).value_in(units.m / units.s ** 2)
        assert np.allclose(acc_field, acc_direct, rtol=0.05)
        gravity.stop()
        coupling.stop()

    def test_field_combines_sources(self, converter):
        stars = new_plummer_model(16, convert_nbody=converter, rng=3)
        a = PhiGRAPE(converter)
        a.add_particles(stars)
        coupling = Fi(converter)
        single = CouplingField(coupling, [a])
        double = CouplingField(coupling, [a, a])
        pt = Quantity(np.array([[1e17, 0.0, 0.0]]), units.m)
        acc1 = single.get_gravity_at_point(
            0.01 | units.parsec, pt).value_in(units.m / units.s ** 2)
        acc2 = double.get_gravity_at_point(
            0.01 | units.parsec, pt).value_in(units.m / units.s ** 2)
        assert np.allclose(2.0 * acc1, acc2, rtol=1e-6)
        a.stop()
        coupling.stop()


class TestBridge:
    def test_requires_systems(self):
        bridge = Bridge(timestep=Quantity(0.01, units.Myr))
        with pytest.raises(RuntimeError):
            bridge.evolve_model(0.1 | units.Myr)

    def test_time_advances_by_steps(self, converter):
        bridge, gravity, hydro, coupling = make_two_system_bridge(
            converter
        )
        bridge.evolve_model(0.06 | units.Myr)
        assert bridge.time.value_in(units.Myr) == pytest.approx(
            0.06, rel=1e-6
        )
        assert bridge.drift_count == 3
        assert bridge.kick_count == 6
        bridge.stop()

    def test_energy_roughly_conserved(self, converter):
        bridge, gravity, hydro, coupling = make_two_system_bridge(
            converter
        )
        e0 = (
            bridge.kinetic_energy() + bridge.potential_energy()
        ).value_in(units.J)
        bridge.evolve_model(0.08 | units.Myr)
        e1 = (
            bridge.kinetic_energy() + bridge.potential_energy()
        ).value_in(units.J)
        assert abs((e1 - e0) / e0) < 0.1
        bridge.stop()

    def test_async_and_sync_agree(self, converter):
        """The step graph and the barrier-ordered reference give the
        same positions bit for bit: the graph's edges are exactly the
        barrier phases' data dependencies."""
        results = []
        for evolve in (Bridge.evolve_model, barrier_evolve):
            bridge, gravity, hydro, coupling = make_two_system_bridge(
                converter
            )
            evolve(bridge, 0.04 | units.Myr)
            results.append(
                gravity.particles.position.value_in(units.m).copy()
            )
            bridge.stop()
        assert np.array_equal(results[0], results[1])

    def test_kick_changes_velocities(self, converter):
        bridge, gravity, hydro, coupling = make_two_system_bridge(
            converter
        )
        v0 = gravity.particles.velocity.value_in(units.kms).copy()
        bridge.evolve_model(0.02 | units.Myr)
        v1 = gravity.particles.velocity.value_in(units.kms)
        assert not np.allclose(v0, v1)
        bridge.stop()

    def test_combined_particles_view(self, converter):
        bridge, gravity, hydro, coupling = make_two_system_bridge(
            converter, n_stars=10, n_gas=20
        )
        assert len(bridge.particles) == 30
        bridge.stop()

    def test_gas_feels_star_gravity(self, converter):
        """A cold gas blob far from a star cluster must accelerate
        toward it through the coupling field."""
        stars = new_plummer_model(32, convert_nbody=converter, rng=4)
        gravity = PhiGRAPE(converter, eta=0.1)
        gravity.add_particles(stars)
        gas = new_plummer_gas_model(
            32, convert_nbody=converter, rng=5
        )
        gas.position = gas.position * 0.05 + Quantity(
            np.array([3.0, 0.0, 0.0]) * 1.5e16, units.m
        )
        gas.u = gas.u * 0.01
        hydro = Gadget(converter, n_neighbours=8, self_gravity=False)
        hydro.add_particles(gas)
        coupling = Fi(converter)
        bridge = Bridge(timestep=Quantity(0.02, units.Myr))
        bridge.add_system(hydro, [CouplingField(coupling, [gravity])])
        bridge.add_system(gravity, [])
        bridge.evolve_model(0.04 | units.Myr)
        vx = hydro.particles.velocity.value_in(units.kms)[:, 0]
        assert vx.mean() < 0.0   # falling toward the origin
        bridge.stop()
