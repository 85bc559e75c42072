"""Unit and Quantity algebra tests (repro.units.core)."""

import copy
import doctest
import importlib
import pickle
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.units import (
    IncompatibleUnitsError, Quantity, Unit, nbody_system, units,
)
from repro.units import core
from repro.units.core import NONE_UNIT, to_quantity


class TestUnitAlgebra:
    def test_base_unit_identity(self):
        assert units.m == units.m
        assert units.m != units.s

    def test_named_symbols(self):
        assert repr(units.MSun) == "MSun"
        assert repr(units.km) == "km"

    def test_multiplication_combines_powers(self):
        momentum = units.kg * units.m / units.s
        assert momentum.powers[0] == 1
        assert momentum.powers[1] == 1
        assert momentum.powers[2] == -1

    def test_scaled_unit_from_number(self):
        minute = 60 * units.s
        assert minute.factor == pytest.approx(60.0)
        assert minute.powers == units.s.powers

    def test_division_by_number(self):
        half_m = units.m / 2
        assert half_m.factor == pytest.approx(0.5)

    def test_rtruediv_number(self):
        hz = 1 / units.s
        assert hz.powers == (units.s ** -1).powers

    def test_power_fractional(self):
        side = (units.m ** 2) ** 0.5
        assert side.powers == units.m.powers

    def test_units_are_immutable(self):
        with pytest.raises(AttributeError):
            units.m.factor = 2.0

    def test_units_hashable(self):
        assert len({units.m, units.km, 1000 * units.m}) == 2

    def test_conversion_factor(self):
        assert units.km.conversion_factor_to(units.m) == 1000.0

    def test_conversion_factor_incompatible(self):
        with pytest.raises(IncompatibleUnitsError):
            units.km.conversion_factor_to(units.s)

    def test_dimensionless(self):
        assert (units.m / units.m).is_dimensionless
        assert not units.m.is_dimensionless

    def test_repr_of_compound(self):
        text = repr(units.kg * units.m / units.s ** 2)
        assert "kg" in text and "m" in text


class TestQuantityConstruction:
    def test_pipe_scalar(self):
        q = 5.0 | units.m
        assert q.value_in(units.m) == 5.0

    def test_pipe_list_becomes_array(self):
        q = [1.0, 2.0] | units.m
        assert isinstance(q.number, np.ndarray)

    def test_pipe_ndarray(self):
        q = np.arange(4.0) | units.s
        assert q.shape == (4,)

    def test_cannot_restack_quantities(self):
        with pytest.raises(TypeError):
            (1.0 | units.m) | units.m

    def test_to_quantity_wraps_numbers(self):
        q = to_quantity(3.0)
        assert q.unit is NONE_UNIT


class TestQuantityArithmetic:
    def test_add_same_unit(self):
        assert ((1 | units.m) + (2 | units.m)).value_in(units.m) == 3

    def test_add_converts(self):
        total = (1.0 | units.km) + (500.0 | units.m)
        assert total.value_in(units.m) == pytest.approx(1500.0)

    def test_add_incompatible_raises(self):
        with pytest.raises(IncompatibleUnitsError):
            (1 | units.m) + (1 | units.s)

    def test_add_plain_number_raises(self):
        with pytest.raises(IncompatibleUnitsError):
            (1 | units.m) + 1.0

    def test_dimensionless_plus_number(self):
        q = (3.0 | units.none) + 1.0
        assert float(q) == pytest.approx(4.0)

    def test_subtract(self):
        assert ((3 | units.m) - (1 | units.m)).value_in(units.m) == 2

    def test_rsub(self):
        q = 0.0 | units.m
        result = (1.0 | units.km) - q
        assert result.value_in(units.km) == pytest.approx(1.0)

    def test_multiply_combines_units(self):
        e = (2.0 | units.kg) * (3.0 | units.m / units.s) ** 2
        assert e.value_in(units.J) == pytest.approx(18.0)

    def test_divide(self):
        v = (10.0 | units.m) / (2.0 | units.s)
        assert v.value_in(units.m / units.s) == pytest.approx(5.0)

    def test_scalar_multiply(self):
        assert (2 * (3.0 | units.m)).value_in(units.m) == 6.0

    def test_negation_abs(self):
        q = -(3.0 | units.m)
        assert q.value_in(units.m) == -3.0
        assert abs(q).value_in(units.m) == 3.0

    def test_pow(self):
        a = (2.0 | units.m) ** 3
        assert a.value_in(units.m ** 3) == pytest.approx(8.0)

    def test_sqrt(self):
        q = (9.0 | units.m ** 2).sqrt()
        assert q.value_in(units.m) == pytest.approx(3.0)

    def test_rtruediv(self):
        f = 1.0 / (0.5 | units.s)
        assert f.value_in(units.Hz) == pytest.approx(2.0)

    def test_float_cast_requires_dimensionless(self):
        with pytest.raises(TypeError):
            float(1.0 | units.m)


class TestQuantityComparison:
    def test_ordering_converts(self):
        assert (1.0 | units.km) > (500.0 | units.m)
        assert (1.0 | units.m) <= (1.0 | units.m)

    def test_eq_different_dimension_false(self):
        assert not ((1.0 | units.m) == (1.0 | units.s))

    def test_eq_converted(self):
        assert (1.0 | units.km) == (1000.0 | units.m)

    def test_hash_consistent_with_eq(self):
        assert hash(1.0 | units.km) == hash(1000.0 | units.m)


class TestVectorQuantity:
    def test_indexing_and_len(self):
        q = np.arange(5.0) | units.m
        assert len(q) == 5
        assert q[2].value_in(units.m) == 2.0

    def test_setitem(self):
        q = np.zeros(3) | units.m
        q[1] = 5.0 | units.m
        assert q.number[1] == 5.0

    def test_setitem_requires_quantity(self):
        q = np.zeros(3) | units.m
        with pytest.raises(TypeError):
            q[0] = 1.0

    def test_iteration_yields_quantities(self):
        q = np.arange(3.0) | units.s
        values = [item.value_in(units.s) for item in q]
        assert values == [0.0, 1.0, 2.0]

    def test_sum_mean_min_max(self):
        q = np.array([1.0, 2.0, 3.0]) | units.m
        assert q.sum().value_in(units.m) == 6.0
        assert q.mean().value_in(units.m) == 2.0
        assert q.min().value_in(units.m) == 1.0
        assert q.max().value_in(units.m) == 3.0

    def test_lengths_rowwise(self):
        q = np.array([[3.0, 4.0, 0.0]]) | units.m
        assert q.lengths().value_in(units.m)[0] == pytest.approx(5.0)

    def test_reshape_flatten(self):
        q = (np.arange(6.0) | units.m).reshape((2, 3))
        assert q.shape == (2, 3)
        assert q.flatten().shape == (6,)


FINITE = st.floats(
    min_value=-1e12, max_value=1e12,
    allow_nan=False, allow_infinity=False,
)


class TestUnitProperties:
    @given(FINITE)
    def test_conversion_round_trip(self, value):
        q = value | units.km
        back = q.in_(units.m).in_(units.km)
        assert back.value_in(units.km) == pytest.approx(
            value, rel=1e-12, abs=1e-9
        )

    @given(FINITE, FINITE)
    def test_addition_commutes(self, a, b):
        qa, qb = a | units.m, b | units.m
        assert (qa + qb).value_in(units.m) == pytest.approx(
            (qb + qa).value_in(units.m), rel=1e-12, abs=1e-9
        )

    @given(FINITE)
    def test_mixed_unit_addition_associates_with_factor(self, a):
        left = (a | units.km) + (1.0 | units.m)
        assert left.value_in(units.m) == pytest.approx(
            a * 1000.0 + 1.0, rel=1e-12, abs=1e-6
        )

    @given(st.integers(min_value=-4, max_value=4))
    def test_power_laws(self, n):
        unit = units.m ** n
        assert unit.powers[1] == n


class TestCanonicalDimensions:
    """Every unit of one dimension holds the same ``powers`` tuple, so a
    dimension is normalised once and compared by pointer afterwards."""

    def test_equal_dimensions_share_one_tuple(self):
        assert (units.m / units.s).powers is (units.km / units.hour).powers
        assert (60 * units.s).powers is units.s.powers
        assert ((units.m ** 2) ** 0.5).powers is units.m.powers
        assert (1 / units.s).powers is (units.s ** -1).powers

    def test_powers_stay_a_tuple_of_fractions(self):
        listed = [0] * len(units.m.powers)
        listed[1] = 1
        rebuilt = Unit(2.0, listed)
        assert rebuilt.powers is units.m.powers
        assert type(rebuilt.powers) is tuple
        assert all(type(p) is Fraction for p in rebuilt.powers)

    def test_tables_stop_growing_after_warm_up(self):
        conv = nbody_system.nbody_to_si(1000.0 | units.MSun,
                                        1.0 | units.parsec)
        scalar = 1.5 | units.parsec
        vector = Quantity(np.ones((4, 3)), units.kms)

        def work():
            conv.to_si(conv.to_nbody(scalar))
            conv.to_si(conv.to_nbody(vector))
            (units.m / units.s) * units.kg ** 2 / units.hour
            (1 / units.s) ** 0.5

        def sizes():
            return [len(table) for table in (
                core._EXPONENTS, core._DIMENSIONS, core._CANONICAL,
                core._PRODUCTS, core._QUOTIENTS, core._POWERS,
                conv._si_targets, conv._nbody_targets,
            )]

        work()
        before = sizes()
        for _ in range(10_000):
            work()
        assert sizes() == before

    def test_threads_agree_on_a_new_dimension(self):
        # an exponent no other test builds: the dimension is new here
        exponent = Fraction(4099, 7919)
        barrier = threading.Barrier(8)
        built = [None] * 8

        def build(k):
            powers = [0] * len(units.m.powers)
            powers[4] = exponent
            barrier.wait()
            built[k] = (Unit(1.0, powers).powers,
                        (units.cd ** exponent).powers)

        threads = [threading.Thread(target=build, args=(k,))
                   for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(b[0] is built[0][0] for b in built)
        assert all(b[1] is built[0][1] for b in built)


class TestPickleAndCopy:
    def test_unit_round_trip_is_canonical(self):
        for unit in (units.parsec, units.kms, NONE_UNIT, units.m ** -1.5):
            back = pickle.loads(pickle.dumps(unit))
            assert back == unit
            assert back.powers is unit.powers
            assert repr(back) == repr(unit)

    def test_quantity_round_trip(self):
        scalar = 2.5 | units.parsec
        vector = Quantity(np.arange(6.0).reshape(2, 3), units.kms)
        for q in (scalar, vector):
            for back in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q),
                         copy.copy(q)):
                assert np.array_equal(back.number, q.number)
                assert back.unit == q.unit
                assert back.unit.powers is q.unit.powers
        deep = copy.deepcopy(vector)
        deep.number[0, 0] = -1.0
        assert vector.number[0, 0] == 0.0


class TestDocExamples:
    """The docstring examples run as written; tier-1 collects no
    doctests itself, so this is what keeps them true."""

    @pytest.mark.parametrize("module", ["core", "nbody"])
    def test_examples_pass(self, module):
        mod = importlib.import_module(f"repro.units.{module}")
        result = doctest.testmod(mod)
        assert result.attempted > 0
        assert result.failed == 0
