"""Shared numerical kernels: direct-summation gravity and a Barnes–Hut
octree.

These are the compute cores behind the model codes: PhiGRAPE uses the
direct O(N²) acceleration+jerk kernel (the work a GRAPE board / GPU does),
Octgrav and Fi evaluate their field and Gadget its gas self-gravity
through :func:`gravity_field` (Octgrav is literally "a gravitational
tree-code on GPUs", Gaburov et al. 2010).  That factory chooses by the
source count alone: up to ``_DIRECT_MAX`` sources (the measured
crossover, see there) it sums the field directly, above it it builds an
:class:`Octree`; both answer the same ``accelerations`` /
``potentials`` calls.

All kernels are NumPy-vectorized and blocked to bound peak memory, per the
HPC guides ("vectorizing for loops", "beware of cache effects"): the
direct kernels take a block of about ``_PAIR_CHUNK`` (target, source)
pairs at a time, the tree walk cuts its pair lists at ``_PAIR_CHUNK``.
Inside, coordinates are component-major — (3, ...) arrays whose x, y and
z planes are contiguous — so that the ``einsum`` contractions over pairs
run along contiguous memory; the public functions take and return the
usual (N, 3).  Units never appear
here — raw float64 arrays only; unit handling happens at the AMUSE
interface layer.

Each kernel does its position-only work once per call; what is worth
keeping *between* calls (a step's post-drift forces are the next step's
first) is kept by the integrator loops that know nothing moved, see
:func:`repro.codes.gadget.sph_state_arrays`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "direct_acceleration",
    "direct_acc_jerk",
    "direct_potential",
    "total_energy",
    "Octree",
    "gravity_field",
]

#: most (target, source) pairs one block of a direct kernel, or one step
#: of a tree walk, holds at once: longer pair lists are cut into pieces
#: of about this length, which keeps the pair scratch in cache and
#: bounds the working memory independently of N and theta
_PAIR_CHUNK = 1 << 15


def _block_rows(block, n_sources):
    """Target rows per block: *block* if given, else about
    ``_PAIR_CHUNK`` pairs over *n_sources* sources."""
    if block is None:
        return max(1, _PAIR_CHUNK // max(1, n_sources))
    return block


def _pair_offsets(sources, targets, i0, i1, scratch):
    """``sources[:, None, :] - targets[:, i0:i1, None]`` written into
    (the leading rows of) *scratch*: a (3, b, N) block of separations,
    component-major so that every contraction over it runs along
    contiguous (b, N) planes."""
    d = scratch[:, :i1 - i0]
    np.subtract(sources[:, None, :], targets[:, i0:i1, None], out=d)
    return d


def _softened_r2(d, eps2):
    """Softened squared length of the component-major separations *d*
    (3, ...).  A pair at zero softened distance (a particle with itself
    when ``eps2`` is 0) gets inf, so that whatever is divided by a
    power of it vanishes."""
    r2 = np.einsum("x...,x...->...", d, d)
    r2 += eps2
    if not eps2 > 0:
        r2[~(r2 > 0)] = np.inf
    return r2


def _mass_over_r3(mass, r2):
    """``mass / r2**1.5`` per pair (0 where ``r2`` is inf)."""
    r3 = np.sqrt(r2)
    r3 *= r2
    return np.divide(mass, r3, out=r3)


def direct_acceleration(pos, mass, eps2=0.0, targets=None, G=1.0,
                        block=None):
    """Softened direct-sum gravitational acceleration.

    Parameters
    ----------
    pos : (N, 3) source positions;  mass : (N,) source masses.
    targets : (M, 3) evaluation points; defaults to the sources
        (self-interaction contributes zero force).
    block : target rows per block; by default about ``_PAIR_CHUNK``
        pairs (``_PAIR_CHUNK // N`` rows).
    """
    mass = np.asarray(mass, dtype=float)
    src = np.ascontiguousarray(np.asarray(pos, dtype=float).T)
    tgt = src if targets is None else np.ascontiguousarray(
        np.asarray(targets, dtype=float).T
    )
    m = tgt.shape[1]
    block = _block_rows(block, src.shape[1])
    acc = np.empty((3, m))
    scratch = np.empty((3, min(block, m), src.shape[1]))
    for i0 in range(0, m, block):
        i1 = min(i0 + block, m)
        d = _pair_offsets(src, tgt, i0, i1, scratch)
        m_r3 = _mass_over_r3(mass, _softened_r2(d, eps2))
        np.einsum("ij,xij->xi", m_r3, d, out=acc[:, i0:i1])
    return G * acc.T


def direct_acc_jerk(pos, vel, mass, eps2=0.0, G=1.0, block=None):
    """Acceleration and jerk (d a / d t) for the Hermite integrator.

    jerk_i = G Σ_j m_j [ v_ij / r³ - 3 (r_ij·v_ij) r_ij / r⁵ ]
    """
    mass = np.asarray(mass, dtype=float)
    pos = np.ascontiguousarray(np.asarray(pos, dtype=float).T)
    vel = np.ascontiguousarray(np.asarray(vel, dtype=float).T)
    n = pos.shape[1]
    block = _block_rows(block, n)
    acc = np.empty((3, n))
    jerk = np.empty((3, n))
    scratch = np.empty((2, 3, min(block, n), n))
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        dr = _pair_offsets(pos, pos, i0, i1, scratch[0])
        dv = _pair_offsets(vel, vel, i0, i1, scratch[1])
        r2 = _softened_r2(dr, eps2)
        m_rv_r5 = np.einsum("xij,xij->ij", dr, dv)
        m_rv_r5 /= r2
        m_r3 = _mass_over_r3(mass, r2)
        m_rv_r5 *= m_r3
        np.einsum("ij,xij->xi", m_r3, dr, out=acc[:, i0:i1])
        np.einsum("ij,xij->xi", m_r3, dv, out=jerk[:, i0:i1])
        jerk[:, i0:i1] -= 3.0 * np.einsum("ij,xij->xi", m_rv_r5, dr)
    return G * acc.T, G * jerk.T


def direct_potential(pos, mass, eps2=0.0, targets=None, G=1.0,
                     block=None):
    """Softened potential φ at the target points (the sources when
    *targets* is None).

    A target at exactly zero separation from a source gets nothing
    from it, the octree's self-hit rule, so a particle's own m/ε stays
    out of its potential.
    """
    mass = np.asarray(mass, dtype=float)
    src = np.ascontiguousarray(np.asarray(pos, dtype=float).T)
    tgt = src if targets is None else np.ascontiguousarray(
        np.asarray(targets, dtype=float).T
    )
    m = tgt.shape[1]
    block = _block_rows(block, src.shape[1])
    phi = np.empty(m)
    scratch = np.empty((3, min(block, m), src.shape[1]))
    for i0 in range(0, m, block):
        i1 = min(i0 + block, m)
        d = _pair_offsets(src, tgt, i0, i1, scratch)
        r = np.sqrt(_softened_r2(d, eps2))
        m_r = np.divide(mass, r, out=r)
        if eps2 > 0:
            # unsoftened, _softened_r2 already made these pairs inf
            m_r[~d.any(axis=0)] = 0.0
        np.sum(m_r, axis=1, out=phi[i0:i1])
    return -G * phi


def total_energy(pos, vel, mass, eps2=0.0, G=1.0):
    """Kinetic + potential energy (diagnostic for integrator tests)."""
    ke = 0.5 * (mass * (np.asarray(vel) ** 2).sum(axis=1)).sum()
    phi = direct_potential(pos, mass, eps2, G=G)
    pe = 0.5 * (mass * phi).sum()
    return ke + pe


#: one row per node of :class:`Octree`; ``start:end`` is the node's
#: slice of ``Octree.order``, ``first_child`` the row of its first
#: child (children are contiguous rows, in octant order)
_NODE_DTYPE = np.dtype([
    ("center", float, 3), ("half", float), ("mass", float),
    ("com", float, 3), ("start", np.intp), ("end", np.intp),
    ("is_leaf", bool), ("first_child", np.intp), ("n_children", np.intp),
])

#: child-centre direction per octant id (bit 2 = x, bit 1 = y, bit 0 = z)
_OCTANT_SIGN = np.array(
    [[1.0 if octant & bit else -1.0 for bit in (4, 2, 1)]
     for octant in range(8)]
)


def _segment_positions(starts, counts):
    """Concatenated ``arange(start, start + count)`` over all pairs."""
    ends = counts.cumsum()
    return (starts - (ends - counts)).repeat(counts) + np.arange(ends[-1])


class Octree:
    """Barnes–Hut octree over a fixed particle distribution.

    Built once per force evaluation (positions move every step), as a
    flat structure of arrays: ``nodes`` is a record array with one row
    per node (breadth-first, a node's children contiguous) and
    ``order`` lists the particles so that every node owns one slice of
    it.  Both the build and the walk advance a whole tree level at a
    time — the build by a stable sort of the level's particles on
    (parent, octant), the walk over arrays of (target, node) pairs —
    so the Python-level work grows with the depth (and with the pair
    count over ``_PAIR_CHUNK``), not with the number of nodes.
    """

    def __init__(self, pos, mass, leaf_size=16):
        self.pos = np.asarray(pos, dtype=float)
        self.mass = np.asarray(mass, dtype=float)
        if self.pos.ndim != 2 or self.pos.shape[1] != 3:
            raise ValueError("positions must be (N, 3)")
        self.leaf_size = int(leaf_size)
        self.order = np.arange(len(self.pos))
        self.nodes = self._build_levels()

    # -- construction -------------------------------------------------------

    def _build_levels(self):
        """Split level by level; returns the node record array."""
        pos, mass, order = self.pos, self.mass, self.order
        if not len(pos):
            return np.recarray(0, dtype=_NODE_DTYPE)
        lo = pos.min(axis=0)
        hi = pos.max(axis=0)
        # this level's nodes: slice starts into ``order``, particle
        # counts, cube centres, the half width they share, and their
        # particles in node order
        start = np.zeros(1, dtype=np.intp)
        count = np.array([len(pos)])
        center = (0.5 * (lo + hi))[None, :]
        half = float(max((hi - lo).max() / 2.0, 1e-12))
        members = order
        fields = {name: [] for name in _NODE_DTYPE.names}
        n_nodes = 0
        while True:
            first = count.cumsum() - count
            weight = mass.take(members)
            node_mass = np.add.reduceat(weight, first)
            com = np.add.reduceat(
                weight[:, None] * pos.take(members, axis=0), first, axis=0
            )
            massless = node_mass == 0.0
            com /= np.where(massless, 1.0, node_mass)[:, None]
            com[massless] = center[massless]
            is_leaf = (count <= self.leaf_size) | (half < 1e-12)
            n_nodes += len(count)
            n_children = np.zeros(len(count), dtype=np.intp)
            first_child = np.zeros(len(count), dtype=np.intp)
            for name, column in (
                ("center", center), ("half", np.full(len(count), half)),
                ("mass", node_mass), ("com", com), ("start", start),
                ("end", start + count), ("is_leaf", is_leaf),
                ("first_child", first_child), ("n_children", n_children),
            ):
                fields[name].append(column)
            if is_leaf.all():
                break
            # the internal nodes' particles, stably sorted on
            # (node, octant): every child becomes one run of equal keys
            split = (~is_leaf).nonzero()[0]
            members = members[(~is_leaf).repeat(count)]
            start, count = start.take(split), count.take(split)
            center = center.take(split, axis=0)
            above = pos.take(members, axis=0) >= center.repeat(count, axis=0)
            key = np.arange(0, 8 * len(split), 8).repeat(count)
            key += above[:, 0] * 4 + above[:, 1] * 2 + above[:, 2]
            by_key = key.argsort(kind="stable")
            key = key.take(by_key)
            members = members.take(by_key)
            slots = _segment_positions(start, count)
            order[slots] = members
            run = np.concatenate(([True], key[1:] != key[:-1])).nonzero()[0]
            child_key = key.take(run)
            parent = child_key >> 3
            fan = np.bincount(parent, minlength=len(split))
            n_children[split] = fan
            first_child[split] = n_nodes + fan.cumsum() - fan
            # the next level: one node per run
            start = slots.take(run)
            count = np.append(run[1:], len(key)) - run
            half = half / 2.0
            center = (
                center.take(parent, axis=0)
                + half * _OCTANT_SIGN.take(child_key & 7, axis=0)
            )
        nodes = np.recarray(n_nodes, dtype=_NODE_DTYPE)
        for name, columns in fields.items():
            nodes[name] = np.concatenate(columns)
        return nodes

    # -- traversal ------------------------------------------------------------

    def accelerations(self, targets=None, theta=0.6, eps2=0.0, G=1.0):
        """Monopole BH acceleration at the target points."""
        return G * self._walk_levels(targets, theta, eps2, False).T

    def potentials(self, targets=None, theta=0.6, eps2=0.0, G=1.0):
        """Monopole BH potential at the target points."""
        return G * self._walk_levels(targets, theta, eps2, True)[0]

    def _walk_levels(self, targets, theta, eps2, potential):
        """Field of the tree at *targets* (default: the particles),
        one level of (target, node) pairs at a time; returns it
        component-major, (3, M) or (1, M).

        A pair whose node is far enough (``size² < θ² r²``; never a
        leaf) contributes the node's monopole; a pair whose node is a
        leaf contributes the leaf's particles one by one; any other
        pair is replaced by the pairs of its children.  Zero-mass nodes
        are dropped.  Leaf pairs are set aside and evaluated in groups
        of equal leaf population, each group a dense (pairs, population)
        block.  Coordinates are handled component-major (contiguous x,
        y and z rows).
        """
        tgt = self.pos if targets is None else np.asarray(
            targets, dtype=float
        )
        n_targets = len(tgt)
        out = np.zeros((1 if potential else 3, n_targets))
        nodes = self.nodes
        if not len(nodes) or not n_targets:
            return out
        tgt = np.ascontiguousarray(tgt.T)
        sources = np.ascontiguousarray(self.pos.take(self.order, axis=0).T)
        source_mass = self.mass.take(self.order)
        node_mass, is_leaf = nodes.mass, nodes.is_leaf
        com = np.ascontiguousarray(nodes.com.T)
        start, first_child = nodes.start, nodes.first_child
        n_children = nodes.n_children
        population = nodes.end - start
        size2 = (2.0 * nodes.half) ** 2
        theta2 = theta * theta
        massless = bool((node_mass == 0.0).any())

        def add(target, d, point_mass, self_hits):
            """Add to ``out[:, target]`` the field of the point masses
            (c, k) at offsets *d* (3, c, k) from the k targets."""
            r2 = _softened_r2(d, eps2)
            if potential:
                r = np.sqrt(r2)
                term = np.divide(point_mass, r, out=r)
                if self_hits:
                    # a zero distance means target == source: leave
                    # out the particle's own softened potential
                    term[~d.any(axis=0)] = 0.0
                field = -term.sum(axis=0)[None, :]
            else:
                field = np.einsum(
                    "cj,xcj->xj", _mass_over_r3(point_mass, r2), d
                )
            for row, values in zip(out, field):
                row += np.bincount(target, values, n_targets)

        def add_leaves(target, leaf):
            """Evaluate (target, leaf) pairs particle by particle, the
            leaves of equal population together as one dense block."""
            count = population.take(leaf)
            for c in np.bincount(count).nonzero()[0]:
                group = (count == c).nonzero()[0]
                within = np.arange(c)[:, None]
                step = max(1, _PAIR_CHUNK // c)
                for lo in range(0, len(group), step):
                    piece = group[lo:lo + step]
                    piece_target = target.take(piece)
                    source = start.take(leaf.take(piece)) + within
                    d = sources.take(source, axis=1)          # (3, c, k)
                    d -= tgt.take(piece_target, axis=1)[:, None, :]
                    add(piece_target, d, source_mass.take(source), True)

        leaf_pairs, n_leaf_pairs = [], 0
        pending = [(np.arange(n_targets), np.zeros(n_targets, np.intp))]
        while pending:
            target, node = pending.pop()
            if len(target) > _PAIR_CHUNK:
                pending.append((target[_PAIR_CHUNK:], node[_PAIR_CHUNK:]))
                target, node = target[:_PAIR_CHUNK], node[:_PAIR_CHUNK]
            if massless:
                keep = node_mass.take(node).nonzero()[0]
                target, node = target.take(keep), node.take(keep)
            leaf = is_leaf.take(node)
            if leaf.any():
                rows = leaf.nonzero()[0]
                leaf_pairs.append((target.take(rows), node.take(rows)))
                n_leaf_pairs += len(rows)
                rows = (~leaf).nonzero()[0]
                target, node = target.take(rows), node.take(rows)
            d = com.take(node, axis=1)
            d -= tgt.take(target, axis=1)
            far = size2.take(node) < theta2 * np.einsum("xj,xj->j", d, d)
            rows = far.nonzero()[0]
            if len(rows):
                add(target.take(rows), d.take(rows, axis=1)[:, None, :],
                    node_mass.take(node.take(rows)), False)
            rows = (~far).nonzero()[0]
            if len(rows):
                parent = node.take(rows)
                fan = n_children.take(parent)
                pending.append((
                    target.take(rows).repeat(fan),
                    _segment_positions(first_child.take(parent), fan),
                ))
            if leaf_pairs and (
                n_leaf_pairs >= _PAIR_CHUNK or not pending
            ):
                add_leaves(*map(np.concatenate, zip(*leaf_pairs)))
                leaf_pairs, n_leaf_pairs = [], 0
        return out


#: most sources :func:`gravity_field` sums directly; above it, it
#: builds an :class:`Octree`.  Median ms per full self-field (every
#: source a target, θ 0.6, ε² 1e-4, Plummer sphere, one core of a
#: 2-core Xeon VM, NumPy 2.4):
#:
#:   ======  =====  ==============  =====================
#:        N   tree  direct, block   direct, block sized
#:                  of 1024 rows    from N (the default)
#:   ======  =====  ==============  =====================
#:      256    3.2             1.0                    0.9
#:      512    6.7             3.8                    3.2
#:     1024   28.1            18.5                   10.3
#:     2048   73.4           107.3                   53.0
#:     4096  294.6           376.6                  136.7
#:     8192  798.7          1507.1                  524.4
#:   ======  =====  ==============  =====================
#:
#: 1024 is the last N at which the direct kernel at a 1024-row block
#: still wins.
#: A block of ``_PAIR_CHUNK`` pairs (in cache; every direct kernel's
#: default) still wins at 8192, so the bound is conservative; it stays
#: below the 2 500 gas of the paper-scale cluster, which keeps the tree,
#: until the tree's own rules (monopole leaves, ``leaf_size``) are
#: measured against it.
_DIRECT_MAX = 1024


class _DirectField:
    """The field of a few sources summed pair by pair, behind the
    :class:`Octree` surface (``theta`` is accepted and has nothing to
    open).  A target at exactly zero separation from a source gets
    nothing from it, the octree's self-hit rule, so a particle's own
    softened potential stays out of the field at the particles.
    Targets go in blocks of about ``_PAIR_CHUNK`` pairs, which keeps
    the pair scratch in cache and its size independent of N."""

    def __init__(self, pos, mass):
        self.pos = np.asarray(pos, dtype=float)
        self.mass = np.asarray(mass, dtype=float)
        if self.pos.ndim != 2 or self.pos.shape[1] != 3:
            raise ValueError("positions must be (N, 3)")

    def accelerations(self, targets=None, theta=0.6, eps2=0.0, G=1.0):
        """Direct-sum acceleration at the target points."""
        return direct_acceleration(self.pos, self.mass, eps2, targets, G)

    def potentials(self, targets=None, theta=0.6, eps2=0.0, G=1.0):
        """Direct-sum potential at the target points."""
        return direct_potential(self.pos, self.mass, eps2, targets, G)


def gravity_field(pos, mass, leaf_size=16):
    """The gravitational field of the sources *pos*, *mass*: summed
    directly up to ``_DIRECT_MAX`` sources, an :class:`Octree` with
    *leaf_size* above.  Either answers ``accelerations(targets, theta,
    eps2, G)`` and ``potentials(...)``."""
    if len(pos) <= _DIRECT_MAX:
        return _DirectField(pos, mass)
    return Octree(pos, mass, leaf_size)
