"""Unit and Quantity core for the AMUSE-style unit system.

The paper (Sec. 4.1) stresses that AMUSE performs *checked, automatic unit
conversion* for every value crossing the coupler, "a requirement for
combining different models".  This module provides that machinery:

* :class:`Unit` — a physical unit: a scale factor times a product of powers
  of base dimensions.  Seven SI base dimensions are supported plus three
  *generic* (N-body) dimensions used by :mod:`repro.units.nbody`.
* :class:`Quantity` — a number (scalar or :class:`numpy.ndarray`) tagged
  with a :class:`Unit`.  All arithmetic is dimension checked.

Dimensions are canonical: a unit's ``powers`` is a tuple of
:class:`~fractions.Fraction`, and every unit with the same dimension holds
the *same* tuple object (``(m / s).powers is (km / hour).powers``).  A
dimension is normalised once, the first time it is seen; after that,
building a unit from it is an identity lookup, ``*``, ``/`` and ``**`` look
the result dimension up once per operand pair, and comparing two equal
dimensions (``==``, :meth:`Unit.conversion_factor_to`, ``is_generic``,
``is_dimensionless``) is a row of pointer compares.  The scale factors are
plain floats and their arithmetic is unchanged.  The tables grow with the
number of distinct dimensions (and ``**`` exponents) seen, and fill
through ``dict.setdefault`` so threads racing on a new dimension agree on
one tuple.

AMUSE idioms are kept:

>>> from repro.units import units
>>> m = 5.0 | units.MSun          # ``|`` attaches a unit to a value
>>> m.value_in(units.kg)          # doctest: +ELLIPSIS
9.94...e+30
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = [
    "Unit",
    "Quantity",
    "IncompatibleUnitsError",
    "new_base_unit",
    "new_quantity",
    "to_quantity",
    "is_quantity",
]

# Base dimensions.  The first seven are SI; the final three are the
# *generic* N-body dimensions (mass, length, time) used by nbody_system.
BASE_SYMBOLS = ("kg", "m", "s", "A", "K", "mol", "cd", "⟨m⟩", "⟨l⟩", "⟨t⟩")
N_BASE = len(BASE_SYMBOLS)

# Indices of the generic dimensions inside the powers vector.
GENERIC_MASS, GENERIC_LENGTH, GENERIC_TIME = 7, 8, 9
# SI dimensions the generic ones map onto.
SI_MASS, SI_LENGTH, SI_TIME = 0, 1, 2


class IncompatibleUnitsError(ValueError):
    """Raised when an operation mixes dimensionally incompatible units."""

    def __init__(self, left, right, operation="convert"):
        super().__init__(
            f"cannot {operation} between incompatible units "
            f"{left!r} and {right!r}"
        )
        self.left = left
        self.right = right


# -- canonical dimensions ---------------------------------------------------

#: exponent value -> the one Fraction object used for it
_EXPONENTS = {}
#: dimension vector (tuple of Fraction) -> the canonical tuple equal to it
_DIMENSIONS = {}
#: id of a canonical tuple -> that tuple (canonical tuples live forever, so
#: their ids are never reused)
_CANONICAL = {}
#: (id, id) -> canonical sum / difference of the two dimension vectors
_PRODUCTS = {}
_QUOTIENTS = {}
#: (id, exponent as given) -> (canonical scaled vector, float exponent)
_POWERS = {}


def _canonical(powers):
    """The canonical tuple of Fractions equal to *powers*."""
    canonical = _CANONICAL.get(id(powers))
    if canonical is powers:
        return canonical
    key = tuple(_EXPONENTS.setdefault(f, f) for f in map(Fraction, powers))
    canonical = _DIMENSIONS.setdefault(key, key)
    _CANONICAL.setdefault(id(canonical), canonical)
    return canonical


def _product(a, b):
    result = _PRODUCTS.get((id(a), id(b)))
    if result is None:
        result = _PRODUCTS.setdefault((id(a), id(b)), _canonical(
            tuple(x + y for x, y in zip(a, b, strict=True))))
    return result


def _quotient(a, b):
    result = _QUOTIENTS.get((id(a), id(b)))
    if result is None:
        result = _QUOTIENTS.setdefault((id(a), id(b)), _canonical(
            tuple(x - y for x, y in zip(a, b, strict=True))))
    return result


def _power(a, exponent):
    result = _POWERS.get((id(a), exponent))
    if result is None:
        fraction = Fraction(exponent).limit_denominator(1000000)
        result = _POWERS.setdefault((id(a), exponent), (
            _canonical(tuple(p * fraction for p in a)), float(fraction)))
    return result


_ZERO_POWERS = _canonical((0,) * N_BASE)
_NO_GENERIC = _ZERO_POWERS[GENERIC_MASS:]


class Unit:
    """A physical unit: ``factor`` × ∏ base_i ** powers_i.

    Units are immutable and hashable.  Multiplying or dividing units (or
    raising them to rational powers) produces derived units; multiplying a
    plain Python number by a unit produces a *scaled* unit (the AMUSE idiom
    ``minute = 60 * s``), while ``value | unit`` produces a
    :class:`Quantity`.
    """

    __slots__ = ("factor", "powers", "symbol")

    # Make numpy defer all binary-op dispatch to this class so that e.g.
    # ``np.arange(3) | units.m`` builds a vector Quantity instead of an
    # object array.
    __array_ufunc__ = None

    def __init__(self, factor, powers, symbol=None):
        object.__setattr__(self, "factor", float(factor))
        object.__setattr__(self, "powers", _canonical(powers))
        object.__setattr__(self, "symbol", symbol)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Unit instances are immutable")

    def __reduce__(self):
        return Unit, (self.factor, self.powers, self.symbol)

    # -- identity ---------------------------------------------------------

    def __hash__(self):
        return hash((self.factor, self.powers))

    def __eq__(self, other):
        if not isinstance(other, Unit):
            return NotImplemented
        return self.factor == other.factor and self.powers == other.powers

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    # -- properties -------------------------------------------------------

    @property
    def is_dimensionless(self):
        """True when all dimension exponents are zero."""
        return self.powers == _ZERO_POWERS

    @property
    def is_generic(self):
        """True when the unit involves any generic (N-body) dimension."""
        return self.powers[GENERIC_MASS:] != _NO_GENERIC

    def has_same_base_as(self, other):
        """True when *other* has identical dimension exponents."""
        return self.powers == other.powers

    # -- algebra ----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Unit):
            return Unit(
                self.factor * other.factor,
                _product(self.powers, other.powers),
            )
        if isinstance(other, (int, float)):
            return Unit(self.factor * other, self.powers)
        if isinstance(other, Quantity):
            return Quantity(other.number, self * other.unit)
        if isinstance(other, (np.ndarray, list, tuple)):
            return Quantity(np.asarray(other, dtype=float), self)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Unit):
            return Unit(
                self.factor / other.factor,
                _quotient(self.powers, other.powers),
            )
        if isinstance(other, (int, float)):
            return Unit(self.factor / other, self.powers)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return Unit(
                other / self.factor, _quotient(_ZERO_POWERS, self.powers)
            )
        if isinstance(other, (np.ndarray, list, tuple)):
            return Quantity(np.asarray(other, dtype=float), self ** -1)
        return NotImplemented

    def __pow__(self, exponent):
        powers, exponent = _power(self.powers, exponent)
        return Unit(self.factor ** exponent, powers)

    def __ror__(self, value):
        """``value | unit`` — the AMUSE quantity constructor."""
        return new_quantity(value, self)

    # -- conversion -------------------------------------------------------

    def conversion_factor_to(self, other):
        """Multiplier taking a value in *self* to a value in *other*."""
        if self.powers != other.powers:
            raise IncompatibleUnitsError(self, other)
        return self.factor / other.factor

    def as_quantity(self):
        """This unit expressed as a quantity of its own base form."""
        return Quantity(self.factor, Unit(1.0, self.powers))

    def named(self, symbol):
        """A copy of this unit carrying a display symbol."""
        return Unit(self.factor, self.powers, symbol)

    def base_form(self):
        """The factor-1 unit with the same dimensions."""
        return Unit(1.0, self.powers)

    # -- display ----------------------------------------------------------

    def _power_string(self):
        parts = []
        for sym, p in zip(BASE_SYMBOLS, self.powers, strict=True):
            if p == 0:
                continue
            if p == 1:
                parts.append(sym)
            else:
                parts.append(f"{sym}**{p}")
        return " * ".join(parts) if parts else "1"

    def __repr__(self):
        if self.symbol:
            return self.symbol
        if self.factor == 1.0:
            return self._power_string()
        return f"{self.factor:g} * {self._power_string()}"

    __str__ = __repr__


def new_base_unit(index, symbol):
    """Create the canonical unit for base dimension *index*."""
    powers = [0] * N_BASE
    powers[index] = 1
    return Unit(1.0, powers, symbol)


NONE_UNIT = Unit(1.0, _ZERO_POWERS, "none")


def is_quantity(value):
    """True when *value* is a :class:`Quantity`."""
    return isinstance(value, Quantity)


def new_quantity(value, unit):
    """Build a Quantity; lists/tuples become float ndarrays."""
    if isinstance(value, Quantity):
        raise TypeError(
            "cannot attach a unit to a Quantity; use in_() to convert"
        )
    if isinstance(value, (list, tuple)):
        value = np.asarray(value, dtype=float)
    return Quantity(value, unit)


def to_quantity(value):
    """Coerce plain numbers to dimensionless quantities."""
    if isinstance(value, Quantity):
        return value
    return Quantity(value, NONE_UNIT)


class Quantity:
    """A value with a unit.  Scalar when ``number`` is a float, vector when
    it is an ndarray.  All arithmetic checks dimensions; addition converts
    the right operand into the left operand's unit.
    """

    __slots__ = ("number", "unit")
    __array_ufunc__ = None

    def __init__(self, number, unit):
        if not isinstance(unit, Unit):
            raise TypeError(f"unit must be a Unit, got {type(unit)!r}")
        object.__setattr__(self, "number", number)
        object.__setattr__(self, "unit", unit)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Quantity instances are immutable")

    def __reduce__(self):
        return Quantity, (self.number, self.unit)

    # -- basic properties --------------------------------------------------

    @property
    def is_vector(self):
        return isinstance(self.number, np.ndarray)

    @property
    def shape(self):
        return np.shape(self.number)

    def __len__(self):
        return len(self.number)

    def __iter__(self):
        for value in self.number:
            yield Quantity(value, self.unit)

    def __getitem__(self, index):
        return Quantity(self.number[index], self.unit)

    def __setitem__(self, index, value):
        if not isinstance(value, Quantity):
            raise TypeError("can only assign quantities into a quantity")
        self.number[index] = value.value_in(self.unit)

    # -- conversion --------------------------------------------------------

    def value_in(self, unit):
        """The bare number of this quantity expressed in *unit*."""
        factor = self.unit.conversion_factor_to(unit)
        if factor == 1.0:
            return self.number
        return self.number * factor

    def in_(self, unit):
        """This quantity re-expressed in *unit* (a new Quantity)."""
        return Quantity(self.value_in(unit), unit)

    as_quantity_in = in_

    def in_base(self):
        """Re-expressed in the factor-1 base form of its unit."""
        return Quantity(self.number * self.unit.factor, self.unit.base_form())

    # -- arithmetic --------------------------------------------------------

    def _other_in_my_unit(self, other, operation):
        if isinstance(other, Quantity):
            try:
                return other.value_in(self.unit)
            except IncompatibleUnitsError:
                raise IncompatibleUnitsError(
                    self.unit, other.unit, operation
                ) from None
        if isinstance(other, (int, float, np.ndarray)):
            if self.unit.is_dimensionless:
                return np.asarray(other) / self.unit.factor \
                    if isinstance(other, np.ndarray) \
                    else other / self.unit.factor
        raise IncompatibleUnitsError(self.unit, other, operation)

    def __add__(self, other):
        return Quantity(
            self.number + self._other_in_my_unit(other, "add"), self.unit
        )

    __radd__ = __add__

    def __sub__(self, other):
        return Quantity(
            self.number - self._other_in_my_unit(other, "subtract"),
            self.unit,
        )

    def __rsub__(self, other):
        return Quantity(
            self._other_in_my_unit(other, "subtract") - self.number,
            self.unit,
        )

    def __mul__(self, other):
        if isinstance(other, Quantity):
            return Quantity(
                self.number * other.number, self.unit * other.unit
            )
        if isinstance(other, Unit):
            return Quantity(self.number, self.unit * other)
        return Quantity(self.number * other, self.unit)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Quantity):
            return Quantity(
                self.number / other.number, self.unit / other.unit
            )
        if isinstance(other, Unit):
            return Quantity(self.number, self.unit / other)
        return Quantity(self.number / other, self.unit)

    def __rtruediv__(self, other):
        if isinstance(other, (int, float, np.ndarray)):
            return Quantity(other / self.number, self.unit ** -1)
        return NotImplemented

    def __pow__(self, exponent):
        return Quantity(self.number ** exponent, self.unit ** exponent)

    def __neg__(self):
        return Quantity(-self.number, self.unit)

    def __pos__(self):
        return self

    def __abs__(self):
        return Quantity(abs(self.number), self.unit)

    def __mod__(self, other):
        return Quantity(
            np.mod(self.number, self._other_in_my_unit(other, "mod")),
            self.unit,
        )

    # -- comparisons -------------------------------------------------------

    def _compare(self, other, op):
        return op(self.number, self._other_in_my_unit(other, "compare"))

    def __eq__(self, other):
        if not isinstance(other, Quantity):
            return NotImplemented
        if self.unit.powers != other.unit.powers:
            return False
        return np.all(self.number == other.value_in(self.unit))

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __lt__(self, other):
        return self._compare(other, np.less)

    def __le__(self, other):
        return self._compare(other, np.less_equal)

    def __gt__(self, other):
        return self._compare(other, np.greater)

    def __ge__(self, other):
        return self._compare(other, np.greater_equal)

    def __hash__(self):
        base = self.in_base()
        num = base.number
        if isinstance(num, np.ndarray):
            num = num.tobytes()
        return hash((num, base.unit.powers))

    # -- numpy-flavoured helpers --------------------------------------------

    def sqrt(self):
        return Quantity(np.sqrt(self.number), self.unit ** Fraction(1, 2))

    def sum(self, axis=None):
        return Quantity(np.sum(self.number, axis=axis), self.unit)

    def mean(self, axis=None):
        return Quantity(np.mean(self.number, axis=axis), self.unit)

    def min(self, axis=None):
        return Quantity(np.min(self.number, axis=axis), self.unit)

    def max(self, axis=None):
        return Quantity(np.max(self.number, axis=axis), self.unit)

    def lengths(self):
        """Row-wise Euclidean norms for an (N, 3) vector quantity."""
        return Quantity(
            np.linalg.norm(np.atleast_2d(self.number), axis=-1), self.unit
        )

    def length(self):
        """Euclidean norm of a 1-D vector quantity."""
        return Quantity(np.linalg.norm(self.number), self.unit)

    def copy(self):
        number = self.number
        if isinstance(number, np.ndarray):
            number = number.copy()
        return Quantity(number, self.unit)

    def reshape(self, *shape):
        return Quantity(np.reshape(self.number, *shape), self.unit)

    def flatten(self):
        return Quantity(np.ravel(self.number), self.unit)

    def argsort(self, **kwargs):
        return np.argsort(self.number, **kwargs)

    def argmin(self):
        return int(np.argmin(self.number))

    def argmax(self):
        return int(np.argmax(self.number))

    def is_scalar(self):
        return not self.is_vector

    # -- display -----------------------------------------------------------

    def __repr__(self):
        return f"quantity<{self.number} {self.unit}>"

    def __str__(self):
        return f"{self.number} {self.unit}"

    def __format__(self, spec):
        return f"{format(self.number, spec)} {self.unit}"

    def __float__(self):
        if not self.unit.is_dimensionless:
            raise TypeError(
                f"cannot cast quantity with unit {self.unit} to float; "
                "use value_in()"
            )
        return float(self.number * self.unit.factor)

    def __bool__(self):
        return bool(np.any(self.number))
