"""Generic (N-body) units and the generic↔SI converter.

Gravitational N-body codes such as PhiGRAPE internally work in *N-body
units* where the gravitational constant G = 1.  AMUSE scripts construct a
:class:`ConvertBetweenGenericAndSiUnits` (spelled ``nbody_to_si`` here, as
in AMUSE) from two dimensionally independent anchor quantities — typically
the total mass and a scale radius — and the framework transparently
converts every value crossing a code boundary.

The converter solves, in log space, for the mass/length/time scale factors
(S_M, S_L, S_T) such that both anchors equal exactly 1 in N-body units and
G = 1 holds:  each anchor with SI dimension exponents (a_kg, a_m, a_s)
yields one linear equation  a_kg·x_M + a_m·x_L + a_s·x_T = ln(value_SI),
and the G constraint contributes  -x_M + 3·x_L - 2·x_T = ln(G_SI).

A conversion is resolved once per source dimension: the first
:meth:`~ConvertBetweenGenericAndSiUnits.to_si` (or ``to_nbody``) of a
quantity in a given dimension computes its scale factor and target unit and
the converter keeps them, keyed by the canonical dimension vector (see
:mod:`repro.units.core`).  Every call, first or not, then does the same float
arithmetic, ``number * unit.factor * factor``, so a cached conversion is
bit-identical to an uncached one.
"""

from __future__ import annotations

import numpy as np

from .core import (
    GENERIC_LENGTH,
    GENERIC_MASS,
    GENERIC_TIME,
    SI_LENGTH,
    SI_MASS,
    SI_TIME,
    Quantity,
    Unit,
    new_base_unit,
)
from . import astro

__all__ = [
    "mass",
    "length",
    "time",
    "speed",
    "acceleration",
    "energy",
    "density",
    "G",
    "nbody_to_si",
    "ConvertBetweenGenericAndSiUnits",
]

# The generic base units.
mass = new_base_unit(GENERIC_MASS, "nbody_mass")
length = new_base_unit(GENERIC_LENGTH, "nbody_length")
time = new_base_unit(GENERIC_TIME, "nbody_time")

speed = (length / time).named("nbody_speed")
acceleration = (length / time ** 2).named("nbody_acceleration")
energy = (mass * speed ** 2).named("nbody_energy")
density = (mass / length ** 3).named("nbody_density")

# In generic units the gravitational constant is exactly one.
G = Quantity(1.0, length ** 3 / (mass * time ** 2))

_GENERIC_TO_SI = {
    GENERIC_MASS: SI_MASS,
    GENERIC_LENGTH: SI_LENGTH,
    GENERIC_TIME: SI_TIME,
}


class ConvertBetweenGenericAndSiUnits:
    """Converter between generic (N-body, G=1) units and SI units.

    Parameters
    ----------
    *anchors : Quantity
        Two SI quantities whose dimensions, together with the G = 1
        constraint, uniquely fix the mass/length/time scales.  Each anchor
        equals exactly 1 in N-body units.

    Examples
    --------
    >>> from repro.units import units, nbody_system
    >>> conv = nbody_system.nbody_to_si(1.0 | units.MSun, 1.0 | units.AU)
    >>> round(float(conv.to_si(1.0 | nbody_system.time).value_in(units.yr)), 3)
    0.159
    """

    def __init__(self, *anchors):
        if len(anchors) != 2:
            raise ValueError(
                "need exactly two anchor quantities (e.g. total mass "
                f"and length scale); got {len(anchors)}"
            )
        rows = [
            # G constraint: L^3 M^-1 T^-2 = G_SI
            [-1.0, 3.0, -2.0],
        ]
        rhs = [np.log(astro.G.number)]
        for quantity in anchors:
            base = quantity.in_base()
            powers = base.unit.powers
            for idx, power in enumerate(powers):
                if power != 0 and idx not in (SI_MASS, SI_LENGTH, SI_TIME):
                    raise ValueError(
                        f"anchor {quantity!r} involves non-mechanical "
                        "dimensions; only mass/length/time anchors are "
                        "supported"
                    )
            if base.number <= 0:
                raise ValueError(f"anchor {quantity!r} must be positive")
            rows.append(
                [
                    float(powers[SI_MASS]),
                    float(powers[SI_LENGTH]),
                    float(powers[SI_TIME]),
                ]
            )
            rhs.append(np.log(base.number))
        matrix = np.array(rows)
        if abs(np.linalg.det(matrix)) < 1e-12:
            raise ValueError(
                "anchor quantities are not dimensionally independent "
                "given the G = 1 constraint"
            )
        solution = np.linalg.solve(matrix, np.array(rhs))
        # Scale factors: 1 nbody_mass = S_M kg, etc.
        self.mass_scale, self.length_scale, self.time_scale = np.exp(
            solution
        )

        # id of a canonical dimension vector -> (factor, target unit)
        self._si_targets = {}
        self._nbody_targets = {}

    def __getstate__(self):
        # The caches are keyed by object ids, which mean nothing in the
        # process that unpickles this converter.
        return {**self.__dict__, "_si_targets": {}, "_nbody_targets": {}}

    # -- scale lookup -------------------------------------------------------

    def _scales(self):
        return {
            GENERIC_MASS: self.mass_scale,
            GENERIC_LENGTH: self.length_scale,
            GENERIC_TIME: self.time_scale,
        }

    def _si_target(self, powers):
        powers = list(powers)
        factor = 1.0
        for g_idx, scale in self._scales().items():
            p = powers[g_idx]
            if p != 0:
                factor *= scale ** float(p)
                powers[_GENERIC_TO_SI[g_idx]] += p
                powers[g_idx] = 0
        return factor, Unit(1.0, powers)

    def _nbody_target(self, powers):
        powers = list(powers)
        factor = 1.0
        for g_idx, scale in self._scales().items():
            si_idx = _GENERIC_TO_SI[g_idx]
            p = powers[si_idx]
            if p != 0:
                factor /= scale ** float(p)
                powers[g_idx] += p
                powers[si_idx] = 0
        return factor, Unit(1.0, powers)

    def to_si(self, quantity):
        """Convert a (partly) generic quantity to pure SI."""
        unit = quantity.unit
        target = self._si_targets.get(id(unit.powers))
        if target is None:
            target = self._si_targets.setdefault(
                id(unit.powers), self._si_target(unit.powers))
        factor, si_unit = target
        return Quantity(quantity.number * unit.factor * factor, si_unit)

    def to_nbody(self, quantity):
        """Convert a (partly) SI quantity to pure generic units."""
        unit = quantity.unit
        target = self._nbody_targets.get(id(unit.powers))
        if target is None:
            target = self._nbody_targets.setdefault(
                id(unit.powers), self._nbody_target(unit.powers))
        factor, nbody_unit = target
        return Quantity(quantity.number * unit.factor * factor, nbody_unit)

    to_generic = to_nbody

    def __repr__(self):
        return (
            f"nbody_to_si(mass_scale={self.mass_scale:.6g} kg, "
            f"length_scale={self.length_scale:.6g} m, "
            f"time_scale={self.time_scale:.6g} s)"
        )


def nbody_to_si(*anchors):
    """AMUSE-compatible spelling for the converter constructor."""
    return ConvertBetweenGenericAndSiUnits(*anchors)
