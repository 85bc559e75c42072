"""Units-aware particle sets — the AMUSE in-memory data model.

A :class:`Particles` instance is a structure-of-arrays: every attribute is
stored once for the whole set as a NumPy array plus a unit.  Particles are
identified by unique integer *keys*, which makes it possible to copy
attributes between different sets holding the same particles (the local
script-side set and the sets living inside model codes) through
:class:`AttributeChannel` — exactly the mechanism AMUSE scripts use to move
state through the coupler.

>>> from repro.datamodel import Particles
>>> from repro.units import units
>>> stars = Particles(3)
>>> stars.mass = 1.0 | units.MSun          # broadcast scalar
>>> stars[0].mass = 2.0 | units.MSun       # per-particle access
>>> float(stars.total_mass().value_in(units.MSun))
4.0
"""

from __future__ import annotations

import itertools

import numpy as np

from ..units.core import Quantity
from ..units import astro

__all__ = ["Particles", "Particle", "AttributeChannel", "ParticlesSubset"]

_key_counter = itertools.count(1)


def _take_keys(n):
    start = next(_key_counter)
    # Reserve a contiguous block so keys stay unique across all sets.
    for _ in range(n - 1):
        next(_key_counter)
    return np.arange(start, start + n, dtype=np.int64)


def _broadcast_number(value, n, current=None, copy=True):
    """Normalise an attribute payload to an (n,) or (n, d) float array.

    A payload that already is such an array comes back as itself when
    *copy* is false (the caller owns it), else as a copy; any other
    payload comes back as a new array either way."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        if current is not None and current.ndim == 2:
            out = np.empty_like(current)
            out[...] = arr
            return out
        return np.full(n, float(arr))
    if arr.shape[0] != n:
        if arr.ndim == 1 and current is not None and current.ndim == 2 \
                and arr.shape[0] == current.shape[1]:
            return np.tile(arr, (n, 1))
        raise ValueError(
            f"attribute payload has leading dimension {arr.shape[0]}, "
            f"expected {n}"
        )
    return arr.copy() if copy and arr is value else arr


class Particles:
    """A set of particles with units-checked vector attributes."""

    _reserved = frozenset(
        ("_keys", "_attributes", "_n")
    )

    def __init__(self, size=0, keys=None):
        if keys is not None:
            keys = np.asarray(keys, dtype=np.int64)
            size = len(keys)
        else:
            keys = _take_keys(size) if size else np.empty(0, dtype=np.int64)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_n", int(size))
        object.__setattr__(self, "_attributes", {})

    # -- basic container behaviour -----------------------------------------

    def __len__(self):
        return self._n

    @property
    def key(self):
        return self._keys

    def attribute_names(self):
        return sorted(self._attributes)

    def has_attribute(self, name):
        return name in self._attributes

    def __iter__(self):
        for i in range(self._n):
            yield Particle(self, i)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            if index < 0:
                index += self._n
            if not 0 <= index < self._n:
                raise IndexError(index)
            return Particle(self, int(index))
        if isinstance(index, slice):
            return ParticlesSubset(self, np.arange(self._n)[index])
        index = np.asarray(index)
        if index.dtype == bool:
            index = np.flatnonzero(index)
        return ParticlesSubset(self, index.astype(np.intp))

    # -- attribute storage ---------------------------------------------------

    def __setattr__(self, name, value):
        if name in self._reserved or name.startswith("_"):
            object.__setattr__(self, name, value)
            return
        self.set_attribute(name, value)

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            number, unit = self._attributes[name]
        except KeyError:
            raise AttributeError(
                f"particle set has no attribute {name!r}; known: "
                f"{self.attribute_names()}"
            ) from None
        if unit is None:
            return number
        return Quantity(number, unit)

    def set_attribute(self, name, value, indices=None):
        """Store attribute *name*; scalars broadcast over the set.

        A full assignment stores a new array, never the caller's own,
        and makes at most one pass over it: a value in the stored unit
        (or without one) is copied, a value in another unit of the same
        dimension is converted into a fresh array that is stored as it
        is.  A partial one (*indices*) writes into the stored array."""
        number, unit, factor, current = self._normalise(
            name, value, indices is not None
        )
        if factor != 1.0:
            number = np.asarray(number, dtype=float) * factor
        if indices is None:
            arr = _broadcast_number(
                number, self._n,
                None if current is None else current[0],
                copy=factor == 1.0,
            )
            self._attributes[name] = (arr, unit)
        else:
            current[0][indices] = number

    def _adopt_attribute(self, name, value):
        """Store the full column *value* as attribute *name* without
        copying it: the caller hands over memory nothing else holds
        (the mirror refresh's decoded columns).  A value in another
        unit of the stored dimension is converted in place, and only
        when the factor is not exactly 1.0 (``x *= f`` rounds as
        ``x * f`` does)."""
        number, unit, factor, current = self._normalise(name, value, False)
        arr = _broadcast_number(
            number, self._n, None if current is None else current[0],
            copy=False,
        )
        if factor != 1.0:
            arr *= factor
        self._attributes[name] = (arr, unit)

    def _normalise(self, name, value, partial):
        """(number, unit, factor, current entry) for storing *value* as
        attribute *name*: *number* times *factor* is the value in the
        stored *unit*, so the backing array never changes unit under a
        view; *current* is None when the assignment replaces the
        attribute."""
        current = self._attributes.get(name)
        if isinstance(value, Quantity):
            number, unit = value.number, value.unit
        else:
            number, unit = value, None
        factor = 1.0
        if current is not None and current[1] is not None:
            if unit is None:
                raise TypeError(
                    f"attribute {name!r} has unit {current[1]}; "
                    "assign a quantity"
                )
            if unit.powers == current[1].powers:
                factor = unit.conversion_factor_to(current[1])
                unit = current[1]
            elif partial:
                raise TypeError(
                    f"cannot partially assign {unit} into attribute "
                    f"{name!r} stored as {current[1]}"
                )
            else:
                # Full reassignment with a different dimension replaces
                # the attribute (e.g. converting a set nbody -> SI).
                current = None
        if partial and current is None:
            raise AttributeError(
                f"cannot partially assign unknown attribute {name!r}"
            )
        return number, unit, factor, current

    def get_attribute(self, name, indices=None):
        number, unit = self._attributes[name]
        if indices is not None:
            number = number[indices]
        if unit is None:
            return number
        return Quantity(number, unit)

    # -- set operations -------------------------------------------------------

    def add_particles(self, other):
        """Append all particles of *other*; returns the new subset."""
        new_keys = np.concatenate([self._keys, other.key])
        old_n = self._n
        object.__setattr__(self, "_keys", new_keys)
        object.__setattr__(self, "_n", len(new_keys))
        for name in set(self._attributes) | set(other._all_attribute_names()):
            mine = self._attributes.get(name)
            theirs = other._lookup_attribute(name)
            if mine is None and theirs is None:
                continue
            if theirs is None:
                number = np.zeros(
                    (len(other),) + mine[0].shape[1:], dtype=float
                )
                unit = mine[1]
            else:
                number, unit = theirs
            if mine is None:
                fill = np.zeros((old_n,) + np.shape(number)[1:], dtype=float)
                merged = np.concatenate([fill, np.atleast_1d(number)])
            else:
                if (mine[1] is None) != (unit is None):
                    raise TypeError(
                        f"attribute {name!r} mixes unitless and united data"
                    )
                if unit is not None:
                    number = np.asarray(number, dtype=float) * \
                        unit.conversion_factor_to(mine[1])
                    unit = mine[1]
                merged = np.concatenate(
                    [mine[0], np.atleast_1d(np.asarray(number, dtype=float))]
                )
            self._attributes[name] = (merged, unit)
        return self[old_n:]

    def add_particle(self, particle):
        return self.add_particles(particle.as_set())[0]

    def remove_particles(self, other):
        """Remove every particle of *other* (matched by key)."""
        mask = ~np.isin(self._keys, other.key)
        self._apply_mask(mask)

    def remove_particle(self, particle):
        self.remove_particles(particle.as_set())

    def _apply_mask(self, mask):
        object.__setattr__(self, "_keys", self._keys[mask])
        object.__setattr__(self, "_n", int(mask.sum()))
        for name, (number, unit) in list(self._attributes.items()):
            self._attributes[name] = (number[mask], unit)

    def copy(self):
        """Deep copy preserving keys (so channels still match)."""
        out = Particles(keys=self._keys.copy())
        for name, (number, unit) in self._attributes.items():
            out._attributes[name] = (number.copy(), unit)
        return out

    def empty_copy(self):
        """Same keys, no attributes."""
        return Particles(keys=self._keys.copy())

    def select(self, predicate, attribute_names):
        """Subset for which ``predicate(*attributes)`` is True."""
        args = [self.get_attribute(n) for n in attribute_names]
        mask = predicate(*args)
        if isinstance(mask, Quantity):
            mask = mask.number
        return self[np.asarray(mask, dtype=bool)]

    def _all_attribute_names(self):
        return set(self._attributes)

    def _lookup_attribute(self, name):
        return self._attributes.get(name)

    # -- channels ---------------------------------------------------------------

    def new_channel_to(self, target):
        """Channel copying attributes from this set to *target* by key."""
        return AttributeChannel(self, target)

    # -- derived physics ----------------------------------------------------------

    def total_mass(self):
        return self.mass.sum()

    def center_of_mass(self):
        m = self.mass.number
        return Quantity(
            (m[:, None] * self.position.number).sum(axis=0) / m.sum(),
            self.position.unit,
        )

    def center_of_mass_velocity(self):
        m = self.mass.number
        return Quantity(
            (m[:, None] * self.velocity.number).sum(axis=0) / m.sum(),
            self.velocity.unit,
        )

    def move_to_center(self):
        """Shift to the barycentric frame (position and velocity)."""
        com = self.center_of_mass()
        self.position = self.position - com
        if self.has_attribute("velocity"):
            comv = self.center_of_mass_velocity()
            self.velocity = self.velocity - comv

    def kinetic_energy(self):
        m, v = self.mass, self.velocity
        return Quantity(
            0.5 * (m.number * (v.number ** 2).sum(axis=1)).sum(),
            m.unit * v.unit ** 2,
        )

    def potential_energy(self, G=None, block=2048):
        """Pairwise gravitational potential energy, blocked O(N^2)."""
        if G is None:
            G = astro.G if not self.position.unit.is_generic else \
                _nbody_G()
        m = self.mass.number
        pos = self.position.number
        n = len(m)
        total = 0.0
        for i0 in range(0, n, block):
            i1 = min(i0 + block, n)
            d = pos[i0:i1, None, :] - pos[None, :, :]
            r = np.sqrt((d ** 2).sum(axis=2))
            inv = np.zeros_like(r)
            np.divide(1.0, r, out=inv, where=r > 0)
            # only count pairs j < i to avoid double counting
            cols = np.arange(n)[None, :]
            rows = np.arange(i0, i1)[:, None]
            inv[cols >= rows] = 0.0
            total += (m[i0:i1, None] * m[None, :] * inv).sum()
        return -G * Quantity(
            total, self.mass.unit ** 2 / self.position.unit
        )

    def virial_radius(self):
        """R_vir = -G M^2 / (2 E_pot)."""
        epot = self.potential_energy()
        mtot = self.total_mass()
        G = astro.G if not self.position.unit.is_generic else _nbody_G()
        return -G * mtot ** 2 / (2.0 * epot)

    def lagrangian_radii(self, fractions=(0.1, 0.25, 0.5, 0.75, 0.9),
                         center=None):
        """Radii enclosing the given mass fractions (sorted by radius)."""
        pos = self.position.number
        if center is None:
            c = self.center_of_mass().number
        elif isinstance(center, Quantity):
            c = center.value_in(self.position.unit)
        else:
            c = np.asarray(center)
        r = np.linalg.norm(pos - c, axis=1)
        order = np.argsort(r)
        msorted = self.mass.number[order]
        cum = np.cumsum(msorted)
        cum /= cum[-1]
        radii = [r[order][np.searchsorted(cum, f)] for f in fractions]
        return Quantity(np.array(radii), self.position.unit)

    def scale_to_standard(self, convert_nbody=None):
        """Rescale to Heggie–Mathieu standard units (E=-1/4, M=1, G=1).

        When *convert_nbody* is given, positions/velocities/masses are
        interpreted through it; otherwise the set must already be in
        generic units.
        """
        conv = convert_nbody
        if conv is not None:
            mass = conv.to_nbody(self.mass)
            pos = conv.to_nbody(self.position)
            vel = conv.to_nbody(self.velocity)
        else:
            mass, pos, vel = self.mass, self.position, self.velocity
        from ..units import nbody as nbody_system
        total = mass.number.sum()
        mass = Quantity(mass.number / total, mass.unit)
        work = Particles(keys=self._keys.copy())
        work.mass = mass
        work.position = pos
        work.velocity = vel
        ekin = work.kinetic_energy().number
        epot = work.potential_energy(G=Quantity(
            1.0, nbody_system.G.unit)).number
        # scale radius so Epot = -0.5, then velocity so Ekin = 0.25
        rscale = epot / -0.5
        pos = Quantity(pos.number * rscale, pos.unit)
        work.position = pos
        epot = work.potential_energy(G=Quantity(
            1.0, nbody_system.G.unit)).number
        vscale = np.sqrt(0.25 / ekin) if ekin > 0 else 1.0
        vel = Quantity(vel.number * vscale, vel.unit)
        if conv is not None:
            mass = conv.to_si(mass)
            pos = conv.to_si(pos)
            vel = conv.to_si(vel)
        self.mass = mass
        self.position = pos
        self.velocity = vel

    # -- convenience coordinate views ------------------------------------------

    @property
    def x(self):
        return Quantity(self.position.number[:, 0], self.position.unit)

    @property
    def y(self):
        return Quantity(self.position.number[:, 1], self.position.unit)

    @property
    def z(self):
        return Quantity(self.position.number[:, 2], self.position.unit)

    @property
    def vx(self):
        return Quantity(self.velocity.number[:, 0], self.velocity.unit)

    @property
    def vy(self):
        return Quantity(self.velocity.number[:, 1], self.velocity.unit)

    @property
    def vz(self):
        return Quantity(self.velocity.number[:, 2], self.velocity.unit)

    def __repr__(self):
        return (
            f"<Particles n={self._n} "
            f"attributes={self.attribute_names()}>"
        )


def _nbody_G():
    from ..units import nbody as nbody_system
    return nbody_system.G


class ParticlesSubset:
    """A view on a subset of a :class:`Particles` set (by index array)."""

    def __init__(self, parent, indices):
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_indices", np.asarray(indices, dtype=np.intp))

    def __len__(self):
        return len(self._indices)

    @property
    def key(self):
        return self._parent.key[self._indices]

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return self._parent.get_attribute(name, self._indices)

    def __setattr__(self, name, value):
        if name.startswith("_"):
            object.__setattr__(self, name, value)
            return
        if isinstance(value, Quantity) and isinstance(value.number, np.ndarray):
            pass
        self._parent.set_attribute(name, _subset_payload(value), self._indices)

    def __iter__(self):
        for i in self._indices:
            yield Particle(self._parent, int(i))

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return Particle(self._parent, int(self._indices[index]))
        return ParticlesSubset(self._parent, self._indices[index])

    def copy(self):
        out = Particles(keys=self.key.copy())
        for name in self._parent.attribute_names():
            out._attributes[name] = _copied_entry(
                self._parent._attributes[name], self._indices
            )
        return out

    def attribute_names(self):
        return self._parent.attribute_names()

    def _all_attribute_names(self):
        return self._parent._all_attribute_names()

    def _lookup_attribute(self, name):
        entry = self._parent._attributes.get(name)
        if entry is None:
            return None
        return (entry[0][self._indices], entry[1])

    def new_channel_to(self, target):
        return AttributeChannel(self, target)

    # reuse physics helpers through a temporary copy
    def __repr__(self):
        return f"<ParticlesSubset n={len(self)} of {self._parent!r}>"


def _subset_payload(value):
    if isinstance(value, Quantity):
        return value
    return value


def _copied_entry(entry, indices):
    number, unit = entry
    return (number[indices].copy(), unit)


class Particle:
    """Proxy for a single particle inside a set."""

    def __init__(self, particles, index):
        object.__setattr__(self, "_particles", particles)
        object.__setattr__(self, "_index", index)

    @property
    def key(self):
        return int(self._particles.key[self._index])

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return self._particles.get_attribute(name, self._index)

    def __setattr__(self, name, value):
        self._particles.set_attribute(name, value, self._index)

    def as_set(self):
        """A one-particle subset wrapping this particle."""
        return ParticlesSubset(self._particles, np.array([self._index]))

    def __eq__(self, other):
        return isinstance(other, Particle) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"<Particle key={self.key}>"


class AttributeChannel:
    """Copies attribute values between two sets holding the same keys.

    This is AMUSE's ``new_channel_to`` mechanism: model codes hold their
    own particle sets; after evolving, the script copies the updated
    attributes back into its in-memory set (and vice versa before the next
    model call).
    """

    def __init__(self, source, target):
        self.source = source
        self.target = target
        self._mapping = None

    def _target_indices(self):
        if self._mapping is None:
            src_keys = np.asarray(self.source.key)
            tgt_keys = np.asarray(self.target.key)
            order = np.argsort(tgt_keys)
            pos = np.searchsorted(tgt_keys, src_keys, sorter=order)
            if np.any(pos >= len(tgt_keys)):
                raise KeyError("source contains keys unknown to target")
            idx = order[np.minimum(pos, len(tgt_keys) - 1)]
            if not np.array_equal(tgt_keys[idx], src_keys):
                raise KeyError("source contains keys unknown to target")
            self._mapping = idx
        return self._mapping

    def copy_attributes(self, names):
        idx = self._target_indices()
        for name in names:
            value = getattr(self.source, name)
            if isinstance(value, Quantity):
                payload = Quantity(np.asarray(value.number), value.unit)
            else:
                payload = np.asarray(value)
            _assign_indexed(self.target, name, payload, idx)

    def copy_attribute(self, name):
        self.copy_attributes([name])

    def copy(self):
        self.copy_attributes(
            [n for n in self.source.attribute_names()]
        )


def _assign_indexed(target, name, payload, idx):
    parent = target._parent if isinstance(target, ParticlesSubset) else target
    if isinstance(target, ParticlesSubset):
        idx = target._indices[idx]
    if not parent.has_attribute(name):
        # materialise the attribute with zeros, then assign the subset
        if isinstance(payload, Quantity):
            zeros = Quantity(
                np.zeros((len(parent),) + payload.number.shape[1:]),
                payload.unit,
            )
        else:
            zeros = np.zeros((len(parent),) + payload.shape[1:])
        parent.set_attribute(name, zeros)
    parent.set_attribute(name, payload, idx)
