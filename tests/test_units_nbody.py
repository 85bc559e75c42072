"""Generic (N-body) units and the nbody<->SI converter."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.units import Quantity, constants, nbody_system, units


@pytest.fixture
def sun_earth():
    return nbody_system.nbody_to_si(1.0 | units.MSun, 1.0 | units.AU)


class TestConverterConstruction:
    def test_requires_two_anchors(self):
        with pytest.raises(ValueError):
            nbody_system.nbody_to_si(1.0 | units.MSun)

    def test_rejects_dependent_anchors(self):
        with pytest.raises(ValueError):
            nbody_system.nbody_to_si(1.0 | units.m, 2.0 | units.m)

    def test_rejects_nonmechanical_anchor(self):
        with pytest.raises(ValueError):
            nbody_system.nbody_to_si(1.0 | units.K, 1.0 | units.m)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            nbody_system.nbody_to_si(-1.0 | units.MSun, 1.0 | units.AU)

    def test_mass_length_scales(self, sun_earth):
        assert sun_earth.mass_scale == pytest.approx(
            (1.0 | units.MSun).value_in(units.kg)
        )
        assert sun_earth.length_scale == pytest.approx(
            (1.0 | units.AU).value_in(units.m)
        )

    def test_velocity_time_anchors_work(self):
        conv = nbody_system.nbody_to_si(
            1.0 | units.MSun, 1.0 | units.kms
        )
        one = conv.to_nbody(1.0 | units.kms)
        assert one.number == pytest.approx(1.0)


class TestKepler:
    def test_time_unit_is_inverse_two_pi_year(self, sun_earth):
        """For M=MSun, a=AU: t_nbody = sqrt(a^3/GM) = yr/2pi."""
        t = sun_earth.to_si(1.0 | nbody_system.time)
        assert t.value_in(units.yr) == pytest.approx(
            1.0 / (2.0 * np.pi), rel=1e-4
        )

    def test_g_is_one_in_nbody(self, sun_earth):
        g_nbody = sun_earth.to_nbody(constants.G)
        assert g_nbody.number == pytest.approx(1.0)

    def test_circular_velocity(self, sun_earth):
        v = sun_earth.to_si(1.0 | nbody_system.speed)
        # circular orbital speed of Earth ~ 29.78 km/s
        assert v.value_in(units.kms) == pytest.approx(29.78, rel=1e-2)


class TestConversionRoundTrips:
    def test_energy_round_trip(self, sun_earth):
        e = 2.5 | nbody_system.energy
        back = sun_earth.to_nbody(sun_earth.to_si(e))
        assert back.number == pytest.approx(2.5)
        assert back.unit.powers == e.unit.powers

    def test_si_to_nbody_mass(self, sun_earth):
        m = sun_earth.to_nbody(2.0 | units.MSun)
        assert m.number == pytest.approx(2.0)

    def test_vector_quantities(self, sun_earth):
        pos = np.ones((3, 3)) | nbody_system.length
        si = sun_earth.to_si(pos)
        assert si.number.shape == (3, 3)
        assert si.value_in(units.AU)[0, 0] == pytest.approx(1.0)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_round_trip_property(self, value):
        conv = nbody_system.nbody_to_si(
            1000.0 | units.MSun, 1.0 | units.parsec
        )
        q = value | nbody_system.acceleration
        back = conv.to_nbody(conv.to_si(q))
        assert back.number == pytest.approx(value, rel=1e-10)

    @given(
        st.floats(min_value=0.1, max_value=1e6),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_any_anchor_pair_keeps_g_unity(self, mass_msun, radius_pc):
        conv = nbody_system.nbody_to_si(
            mass_msun | units.MSun, radius_pc | units.parsec
        )
        assert conv.to_nbody(constants.G).number == pytest.approx(1.0)


class TestGenericUnits:
    def test_generic_flag(self):
        assert nbody_system.mass.is_generic
        assert not units.kg.is_generic

    def test_g_constant_units(self):
        assert nbody_system.G.unit.is_generic
        assert nbody_system.G.number == 1.0

    def test_derived_generic_units(self):
        e = (1 | nbody_system.mass) * (1 | nbody_system.speed) ** 2
        assert e.unit.powers == nbody_system.energy.powers


class TestResolvedOncePerDimension:
    """The converter keeps (factor, target unit) per source dimension and
    still does today's float operations in today's order."""

    def test_to_nbody_is_the_explicit_product(self, sun_earth):
        factor = 1.0
        factor /= sun_earth.length_scale ** 1.0
        factor /= sun_earth.time_scale ** -1.0
        rng = np.random.default_rng(3)
        for number in (29.78, rng.normal(size=(50, 3))):
            q = Quantity(number, units.kms)
            for _ in range(2):          # the first call fills the cache
                out = sun_earth.to_nbody(q)
                assert np.array_equal(
                    out.number, number * units.kms.factor * factor)
                assert out.unit == nbody_system.length / nbody_system.time

    def test_to_si_is_the_explicit_product(self, sun_earth):
        factor = 1.0
        factor *= sun_earth.mass_scale ** 1.0
        factor *= sun_earth.length_scale ** 2.0
        factor *= sun_earth.time_scale ** -2.0
        scaled = 3.0 * nbody_system.energy
        rng = np.random.default_rng(4)
        for number in (0.25, rng.normal(size=(50, 3))):
            q = Quantity(number, scaled)
            for _ in range(2):
                out = sun_earth.to_si(q)
                assert np.array_equal(
                    out.number, number * scaled.factor * factor)
                assert out.unit == units.kg * units.m ** 2 / units.s ** 2

    def test_pickled_converter_forgets_its_cache(self, sun_earth):
        q = 1.0 | units.parsec
        before = sun_earth.to_nbody(q)
        back = pickle.loads(pickle.dumps(sun_earth))
        assert back._si_targets == {} and back._nbody_targets == {}
        after = back.to_nbody(q)
        assert after.number == before.number and after.unit == before.unit
