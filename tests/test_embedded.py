"""Embedded-cluster simulation driver tests."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.coupling import EmbeddedClusterSimulation
from repro.coupling.embedded import SN_ENERGY
from repro.units import Quantity, units


@pytest.fixture(scope="module")
def sim():
    simulation = EmbeddedClusterSimulation(
        n_stars=16, n_gas=96, rng=11, mass_min=5.0, mass_max=25.0,
        bridge_timestep_myr=0.1, se_interval=2, star_mass_fraction=0.3,
    )
    yield simulation
    simulation.stop()


class TestSetup:
    def test_four_models_wired(self, sim):
        roles = sim.codes_by_role()
        assert sorted(roles) == ["coupling", "gravity", "hydro", "se"]

    def test_initial_diagnostics(self, sim):
        d = sim.diagnostics()
        assert d["stage"] == "embedded"
        assert d["bound_gas_fraction"] > 0.9
        assert d["n_supernovae"] == 0

    def test_mass_budget(self, sim):
        d = sim.diagnostics()
        total = d["total_star_mass_msun"] + d["gas_mass_msun"]
        star_frac = d["total_star_mass_msun"] / total
        assert star_frac == pytest.approx(0.3, rel=1e-6)

    def test_coupling_choice(self):
        s = EmbeddedClusterSimulation(
            n_stars=8, n_gas=32, rng=1, coupling_code="octgrav"
        )
        assert s.coupling_name == "octgrav"
        assert type(s.coupling).__name__ == "Octgrav"
        s.stop()

    def test_unknown_coupling_raises(self):
        with pytest.raises(KeyError):
            EmbeddedClusterSimulation(
                n_stars=8, n_gas=32, coupling_code="magic"
            )


class TestEvolution:
    def test_iteration_advances_time(self, sim):
        t0 = sim.model_time.value_in(units.Myr)
        sim.evolve_one_iteration()
        t1 = sim.model_time.value_in(units.Myr)
        assert t1 == pytest.approx(t0 + 0.1, rel=1e-6)

    def test_se_exchange_on_interval(self, sim):
        before = sim.se.model_time.value_in(units.Myr)
        # next iteration hits the se_interval=2 boundary
        while sim.iteration % 2 != 1:
            sim.evolve_one_iteration()
        sim.evolve_one_iteration()
        after = sim.se.model_time.value_in(units.Myr)
        assert after > before

    @pytest.mark.slow
    def test_mass_loss_propagates_to_gravity(self):
        s = EmbeddedClusterSimulation(
            n_stars=8, n_gas=48, rng=3, mass_min=15.0, mass_max=25.0,
            bridge_timestep_myr=1.0, se_interval=1,
        )
        m0 = s.gravity.channel.call("get_mass").sum()
        for _ in range(8):
            s.evolve_one_iteration()
        m1 = s.gravity.channel.call("get_mass").sum()
        assert m1 < m0     # winds + supernovae removed stellar mass
        s.stop()

    def test_feedback_heats_gas(self):
        """The SE exchange itself must deposit energy into the gas
        (measured immediately, before adiabatic expansion cools it)."""
        s = EmbeddedClusterSimulation(
            n_stars=8, n_gas=48, rng=3, mass_min=15.0, mass_max=25.0,
            bridge_timestep_myr=1.0, se_interval=1,
        )
        # move the bridge clock forward without evolving the gas, then
        # trigger the SE exchange: winds must heat nearby particles
        # (14 Myr: the 15-25 MSun stars are on the giant branch)
        s.bridge.time = 14.0 | units.Myr
        u0 = s.hydro.channel.call("get_internal_energy").copy()
        s.exchange_stellar_evolution()
        u1 = s.hydro.channel.call("get_internal_energy")
        assert u1.sum() > u0.sum()
        assert np.all(u1 >= u0 - 1e-12)
        s.stop()

    @pytest.mark.slow
    def test_supernova_counted(self):
        s = EmbeddedClusterSimulation(
            n_stars=6, n_gas=32, rng=5, mass_min=20.0, mass_max=30.0,
            bridge_timestep_myr=2.0, se_interval=1,
        )
        for _ in range(5):   # 10 Myr > t_SN(20..30 MSun)
            s.evolve_one_iteration()
        assert s.n_supernovae > 0
        s.stop()

    def test_run_with_callback(self):
        s = EmbeddedClusterSimulation(
            n_stars=8, n_gas=32, rng=6, bridge_timestep_myr=0.05
        )
        times = []
        s.run(3, callback=lambda sim: times.append(
            sim.model_time.value_in(units.Myr))
        )
        assert len(times) == 3
        assert times == sorted(times)
        s.stop()


class TestDiagnostics:
    def test_gas_specific_energy_shape(self, sim):
        espec = sim.gas_specific_energy()
        assert espec.shape == (96,)

    def test_bound_fraction_in_unit_interval(self, sim):
        d = sim.diagnostics()
        assert 0.0 <= d["bound_gas_fraction"] <= 1.0

    def test_stage_classification_boundaries(self):
        from repro.coupling.embedded import _classify_stage
        assert _classify_stage(0.95) == "embedded"
        assert _classify_stage(0.6) == "expanding"
        assert _classify_stage(0.2) == "shell"
        assert _classify_stage(0.01) == "expelled"


class TestGasPotentialHasNoSelfTerm:
    """``gas_specific_energy`` used to send the mirror positions back
    to the hydro worker as field points; the gas field drops a particle's
    own softened potential only at an exactly zero separation, which
    the pc -> m -> N-body round trip keeps for a minority of them, so
    most particles gained an extra -m/eps."""

    @pytest.fixture
    def evolved(self):
        simulation = EmbeddedClusterSimulation(
            n_stars=16, n_gas=96, rng=11, mass_min=5.0, mass_max=25.0,
            bridge_timestep_myr=0.1, star_mass_fraction=0.3,
        )
        simulation.evolve_one_iteration()
        yield simulation
        simulation.stop()

    def test_gas_term_is_the_workers_own_potential(self, evolved):
        from repro.codes.kernels import gravity_field
        from repro.units import nbody as nbody_system
        from repro.units.core import Quantity

        hydro = evolved.hydro
        worker = hydro.channel.interface
        arrays = worker.storage.arrays
        own = gravity_field(arrays["pos"], arrays["mass"]).potentials(
            theta=worker.theta, eps2=worker.eps2
        )
        want = evolved.converter.to_si(
            Quantity(own, nbody_system.speed ** 2)
        ).value_in(units.J / units.kg)
        got = hydro.get_potential().value_in(units.J / units.kg)
        assert np.allclose(got, want, rtol=1e-12, atol=0)
        assert np.array_equal(worker.get_potential([3, 1]), own[[3, 1]])

        # the bug: as field points, the same positions pick up the
        # self term wherever the round trip moved them by an ulp
        as_points = hydro.get_potential_at_point(
            Quantity(0.0, units.m), hydro.particles.position
        ).value_in(units.J / units.kg)
        assert (as_points < got * (1 + 1e-9)).sum() > len(got) // 4

    def test_unchanged_by_an_ulp_of_the_mirror_positions(self, evolved):
        before = evolved.gas_specific_energy()
        fraction = evolved.diagnostics()["bound_gas_fraction"]
        gas = evolved.hydro.particles
        position = gas.position
        gas.position = type(position)(
            np.nextafter(position.number, np.inf), position.unit
        )
        after = evolved.gas_specific_energy()
        # the star term does move with the field points, by an ulp's
        # worth; a self term appearing or vanishing is ~1.7x the value
        assert np.allclose(after, before, rtol=1e-9, atol=0)
        assert evolved.diagnostics()["bound_gas_fraction"] == fraction


class TestFeedbackQuery:
    """``_inject_feedback`` asks the kd-tree once for every losing
    star; it must deposit exactly what one query per star did."""

    @staticmethod
    def _per_star_loop(sim, dm_msun, exploded):
        gas_pos = sim.hydro.particles.position.value_in(units.m)
        star_pos = sim.gravity.particles.position.value_in(units.m)
        gas_mass_kg = sim.hydro.particles.mass.value_in(units.kg)
        k = min(sim.feedback_neighbours, len(gas_pos))
        tree = cKDTree(gas_pos)
        du = np.zeros(len(gas_pos))
        wind_v = sim.wind_speed.value_in(units.m / units.s)
        for star_idx in np.flatnonzero(dm_msun > 0):
            _, neigh = tree.query(star_pos[star_idx], k=k)
            neigh = np.atleast_1d(neigh)
            if exploded[star_idx]:
                energy = sim.sn_efficiency * SN_ENERGY.value_in(units.J)
            else:
                dm_kg = dm_msun[star_idx] * units.MSun.factor
                energy = 0.5 * dm_kg * wind_v ** 2
            du[neigh] += energy / gas_mass_kg[neigh].sum()
        return du

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_query_matches_per_star_loop(self, k, seed):
        rng = np.random.default_rng(seed)
        n_gas, n_stars = 40, 12
        injected = {}
        sim = SimpleNamespace(
            hydro=SimpleNamespace(
                particles=SimpleNamespace(
                    position=Quantity(
                        rng.normal(size=(n_gas, 3)) * 3e16, units.m
                    ),
                    mass=Quantity(
                        rng.uniform(0.5, 2.0, n_gas), units.MSun
                    ),
                ),
                inject_energy=lambda idx, du: injected.update(
                    idx=idx, du=du.value_in(units.J / units.kg)
                ),
            ),
            gravity=SimpleNamespace(particles=SimpleNamespace(
                position=Quantity(
                    rng.normal(size=(n_stars, 3)) * 3e16, units.m
                ),
            )),
            feedback_neighbours=k,
            wind_speed=Quantity(20.0, units.kms),
            sn_efficiency=0.01,
        )
        # stars close together share neighbours, so deposits overlap
        dm_msun = np.where(
            rng.random(n_stars) < 0.7, rng.uniform(0, 1e-3, n_stars), 0.0
        )
        dm_msun[0] = 0.5
        exploded = np.zeros(n_stars, dtype=bool)
        exploded[0] = True
        EmbeddedClusterSimulation._inject_feedback(sim, dm_msun, exploded)
        expected = self._per_star_loop(sim, dm_msun, exploded)
        targets = np.flatnonzero(expected > 0)
        assert np.array_equal(injected["idx"], targets)
        assert np.array_equal(injected["du"], expected[targets])
