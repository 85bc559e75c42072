"""Particle set data model tests."""

import doctest
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro.datamodel.particles
from repro.datamodel import Particles
from repro.units import nbody_system, units


@pytest.fixture
def stars():
    p = Particles(4)
    p.mass = np.array([1.0, 2.0, 3.0, 4.0]) | units.MSun
    p.position = np.zeros((4, 3)) | units.parsec
    p.velocity = np.zeros((4, 3)) | units.kms
    return p


class TestBasics:
    def test_len_and_keys_unique(self):
        p = Particles(10)
        assert len(p) == 10
        assert len(set(p.key)) == 10

    def test_keys_unique_across_sets(self):
        a, b = Particles(5), Particles(5)
        assert not set(a.key) & set(b.key)

    def test_scalar_broadcast(self):
        p = Particles(3)
        p.mass = 2.0 | units.MSun
        assert p.mass.value_in(units.MSun).tolist() == [2.0] * 3

    def test_vector_attribute_shape(self, stars):
        assert stars.position.shape == (4, 3)

    def test_unknown_attribute_raises(self, stars):
        with pytest.raises(AttributeError):
            stars.banana

    def test_unitless_attribute(self):
        p = Particles(3)
        p.flag = np.array([1, 2, 3])
        assert p.flag.tolist() == [1.0, 2.0, 3.0]

    def test_assign_number_to_united_attr_raises(self, stars):
        with pytest.raises(TypeError):
            stars.mass = np.ones(4)

    def test_unit_is_normalised_on_assignment(self, stars):
        stars.mass = 1000.0 | (0.001 * units.MSun)
        assert stars.mass.value_in(units.MSun)[0] == pytest.approx(1.0)

    def test_coordinate_views(self, stars):
        stars.position = np.arange(12.0).reshape(4, 3) | units.m
        assert stars.x.value_in(units.m).tolist() == [0, 3, 6, 9]
        assert stars.vz.value_in(units.kms).tolist() == [0] * 4


class TestParticleProxy:
    def test_single_particle_access(self, stars):
        assert stars[1].mass.value_in(units.MSun) == 2.0

    def test_single_particle_assignment(self, stars):
        stars[0].mass = 10.0 | units.MSun
        assert stars.mass.value_in(units.MSun)[0] == 10.0

    def test_negative_index(self, stars):
        assert stars[-1].mass.value_in(units.MSun) == 4.0

    def test_particle_equality_by_key(self, stars):
        assert stars[0] == stars[0]
        assert stars[0] != stars[1]

    def test_as_set(self, stars):
        sub = stars[2].as_set()
        assert len(sub) == 1
        assert sub.mass.value_in(units.MSun)[0] == 3.0


class TestSubsets:
    def test_slice(self, stars):
        sub = stars[1:3]
        assert len(sub) == 2
        assert sub.mass.value_in(units.MSun).tolist() == [2.0, 3.0]

    def test_boolean_mask(self, stars):
        heavy = stars[stars.mass.value_in(units.MSun) > 2.5]
        assert len(heavy) == 2

    def test_subset_assignment_writes_through(self, stars):
        sub = stars[0:2]
        sub.mass = np.array([9.0, 9.0]) | units.MSun
        assert stars.mass.value_in(units.MSun)[0] == 9.0

    def test_subset_copy_is_independent(self, stars):
        copy = stars[0:2].copy()
        copy.mass = 1.0 | units.MSun
        assert stars.mass.value_in(units.MSun)[0] == 1.0  # original


class TestSetOperations:
    def test_add_particles(self, stars):
        other = Particles(2)
        other.mass = 5.0 | units.MSun
        other.position = np.ones((2, 3)) | units.parsec
        other.velocity = np.zeros((2, 3)) | units.kms
        stars.add_particles(other)
        assert len(stars) == 6
        assert stars.mass.value_in(units.MSun)[-1] == 5.0

    def test_add_particles_converts_units(self, stars):
        other = Particles(1)
        other.mass = (1.0 | units.MSun).in_(units.kg)
        other.position = np.zeros((1, 3)) | units.parsec
        other.velocity = np.zeros((1, 3)) | units.kms
        stars.add_particles(other)
        assert stars.mass.value_in(units.MSun)[-1] == pytest.approx(1.0)

    def test_remove_particles(self, stars):
        stars.remove_particles(stars[1:3])
        assert len(stars) == 2
        assert stars.mass.value_in(units.MSun).tolist() == [1.0, 4.0]

    def test_copy_preserves_keys(self, stars):
        copy = stars.copy()
        assert np.array_equal(copy.key, stars.key)
        copy.mass = 0.0 | units.MSun
        assert stars.mass.value_in(units.MSun)[0] == 1.0


def _peak_allocation(call):
    """Bytes *call* had allocated at its peak, beyond what it keeps."""
    tracemalloc.start()
    try:
        call()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestSetAttributeCopies:
    """A full assignment stores a new array, never the caller's, and
    allocates at most one column for it; the mirror refresh's private
    entry point stores the column it is handed."""

    N = 100_000

    @pytest.mark.parametrize("unit", [units.parsec, units.km])
    def test_one_pass_and_no_alias(self, unit):
        p = Particles(self.N)
        p.position = np.zeros((self.N, 3)) | units.parsec
        value = np.random.default_rng(0).normal(size=(self.N, 3))
        expected = value * unit.conversion_factor_to(units.parsec)
        peak = _peak_allocation(
            lambda: p.set_attribute("position", value | unit)
        )
        assert peak < 1.5 * value.nbytes
        stored = p.position.number
        assert not np.shares_memory(stored, value)
        assert np.array_equal(stored, expected)

    @pytest.mark.parametrize("unit", [units.parsec, units.km])
    def test_adopted_column_is_stored_as_handed(self, unit):
        p = Particles(self.N)
        p.position = np.zeros((self.N, 3)) | units.parsec
        value = np.random.default_rng(0).normal(size=(self.N, 3))
        expected = value * unit.conversion_factor_to(units.parsec)
        peak = _peak_allocation(
            lambda: p._adopt_attribute("position", value | unit)
        )
        assert peak < 0.5 * value.nbytes
        assert p.position.number is value
        assert p.position.unit is units.parsec
        assert np.array_equal(value, expected)

    def test_adopted_column_length_is_checked(self):
        p = Particles(3)
        with pytest.raises(ValueError, match="leading dimension"):
            p._adopt_attribute("mass", np.ones(4) | units.MSun)


class TestDocExamples:
    """The module docstring's example runs as written; tier-1 collects
    no doctests itself, so this is what keeps it true."""

    def test_examples_pass(self):
        result = doctest.testmod(repro.datamodel.particles)
        assert result.attempted > 0
        assert result.failed == 0


class TestChannels:
    def test_copy_attributes(self, stars):
        mirror = stars.copy()
        mirror.mass = mirror.mass * 3.0
        mirror.new_channel_to(stars).copy_attributes(["mass"])
        assert stars.mass.value_in(units.MSun)[1] == pytest.approx(6.0)

    def test_channel_matches_by_key_not_order(self, stars):
        shuffled = stars.copy()
        order = np.array([3, 2, 1, 0])
        reordered = Particles(keys=shuffled.key[order])
        reordered.mass = shuffled.mass[order] * 2.0
        reordered.new_channel_to(stars).copy_attributes(["mass"])
        assert stars.mass.value_in(units.MSun).tolist() == \
            [2.0, 4.0, 6.0, 8.0]

    def test_channel_creates_missing_attribute(self, stars):
        src = stars.copy()
        src.radius = np.ones(4) | units.RSun
        src.new_channel_to(stars).copy_attributes(["radius"])
        assert stars.radius.value_in(units.RSun).tolist() == [1.0] * 4

    def test_channel_unknown_keys_raise(self, stars):
        stranger = Particles(4)
        stranger.mass = 1.0 | units.MSun
        with pytest.raises(KeyError):
            stranger.new_channel_to(stars).copy_attributes(["mass"])


class TestDerivedPhysics:
    def test_total_mass(self, stars):
        assert stars.total_mass().value_in(units.MSun) == 10.0

    def test_center_of_mass(self, stars):
        stars.position = (
            np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]])
            | units.parsec
        )
        com = stars.center_of_mass()
        assert com.value_in(units.parsec)[0] == pytest.approx(0.1)

    def test_move_to_center(self, stars):
        stars.position = np.ones((4, 3)) | units.parsec
        stars.move_to_center()
        assert np.allclose(
            stars.center_of_mass().value_in(units.parsec), 0.0
        )

    def test_kinetic_energy(self, stars):
        stars.velocity = (
            np.array([[1.0, 0, 0]] * 4) | (units.m / units.s)
        )
        ke = stars.kinetic_energy()
        total_kg = stars.total_mass().value_in(units.kg)
        assert ke.value_in(units.J) == pytest.approx(0.5 * total_kg)

    def test_potential_energy_two_body(self):
        p = Particles(2)
        p.mass = 1.0 | units.kg
        p.position = (
            np.array([[0.0, 0, 0], [1.0, 0, 0]]) | units.m
        )
        pe = p.potential_energy()
        from repro.units import constants
        assert pe.value_in(units.J) == pytest.approx(
            -constants.G.number
        )

    def test_lagrangian_radii_monotonic(self):
        from repro.ic import new_plummer_model
        p = new_plummer_model(200, rng=1)
        radii = p.lagrangian_radii().number
        assert np.all(np.diff(radii) > 0)

    def test_scale_to_standard(self):
        from repro.ic import new_plummer_model
        p = new_plummer_model(100, rng=2, do_scale=False)
        p.scale_to_standard()
        assert p.kinetic_energy().number == pytest.approx(0.25, rel=1e-6)
        assert p.potential_energy(
            G=nbody_system.G).number == pytest.approx(-0.5, rel=1e-6)


class TestPropertyBased:
    @given(st.integers(min_value=1, max_value=30))
    def test_add_then_remove_is_identity(self, n):
        base = Particles(5)
        base.mass = 1.0 | units.MSun
        extra = Particles(n)
        extra.mass = 2.0 | units.MSun
        base.add_particles(extra)
        base.remove_particles(extra)
        assert len(base) == 5
        assert base.mass.value_in(units.MSun).tolist() == [1.0] * 5

    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=100.0),
            min_size=2, max_size=20,
        )
    )
    def test_total_mass_is_sum(self, masses):
        p = Particles(len(masses))
        p.mass = np.array(masses) | units.MSun
        assert p.total_mass().value_in(units.MSun) == pytest.approx(
            sum(masses), rel=1e-9
        )
