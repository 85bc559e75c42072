"""Reference Barnes–Hut octree: the recursive ``_Node`` implementation
that :class:`repro.codes.kernels.Octree` replaced with a flat
structure-of-arrays tree.

Kept as the oracle the flat tree is tested against (same root cube,
octant rule, leaf rule, acceptance test and self-hit rule, so the node
count and the interaction set are identical and results differ only in
summation order).  Not a second code path: nothing under ``src/``
imports it.
"""

import numpy as np


class _Node:
    __slots__ = (
        "center", "half", "mass", "com", "children", "start", "end",
        "is_leaf",
    )


class ReferenceOctree:
    def __init__(self, pos, mass, leaf_size=16):
        self.pos = np.asarray(pos, dtype=float)
        self.mass = np.asarray(mass, dtype=float)
        if self.pos.ndim != 2 or self.pos.shape[1] != 3:
            raise ValueError("positions must be (N, 3)")
        self.leaf_size = int(leaf_size)
        n = len(self.pos)
        self.order = np.arange(n)
        self.nodes = []
        if n:
            lo = self.pos.min(axis=0)
            hi = self.pos.max(axis=0)
            center = 0.5 * (lo + hi)
            half = float(max((hi - lo).max() / 2.0, 1e-12))
            self._build(0, n, center, half)

    def _build(self, start, end, center, half):
        """Create the node for order[start:end]; returns its index."""
        node = _Node()
        node.center = center
        node.half = half
        # copy: children overwrite order[start:end] during partitioning
        idx = self.order[start:end].copy()
        node.mass = float(self.mass[idx].sum())
        if node.mass > 0:
            node.com = (
                self.mass[idx, None] * self.pos[idx]
            ).sum(axis=0) / node.mass
        else:
            node.com = center.copy()
        node.start, node.end = start, end
        index = len(self.nodes)
        self.nodes.append(node)
        if end - start <= self.leaf_size or half < 1e-12:
            node.is_leaf = True
            node.children = ()
            return index
        node.is_leaf = False
        # partition particles into octants
        rel = self.pos[idx] >= center[None, :]
        octant = rel[:, 0] * 4 + rel[:, 1] * 2 + rel[:, 2] * 1
        children = []
        cursor = start
        quarter = half / 2.0
        for oct_id in range(8):
            sel = idx[octant == oct_id]
            if not len(sel):
                continue
            self.order[cursor:cursor + len(sel)] = sel
            offset = np.array(
                [
                    quarter if (oct_id & 4) else -quarter,
                    quarter if (oct_id & 2) else -quarter,
                    quarter if (oct_id & 1) else -quarter,
                ]
            )
            child = self._build(
                cursor, cursor + len(sel), center + offset, quarter
            )
            children.append(child)
            cursor += len(sel)
        node.children = tuple(children)
        return index

    def accelerations(self, targets=None, theta=0.6, eps2=0.0, G=1.0):
        """Monopole BH acceleration at the target points."""
        tgt = self.pos if targets is None else np.asarray(
            targets, dtype=float
        )
        acc = np.zeros_like(tgt)
        if self.nodes:
            self._walk(
                0, np.arange(len(tgt)), tgt, theta, eps2, acc, None
            )
        return G * acc

    def potentials(self, targets=None, theta=0.6, eps2=0.0, G=1.0):
        """Monopole BH potential at the target points."""
        tgt = self.pos if targets is None else np.asarray(
            targets, dtype=float
        )
        phi = np.zeros(len(tgt))
        if self.nodes:
            self._walk(0, np.arange(len(tgt)), tgt, theta, eps2, None, phi)
        return G * phi

    def _walk(self, node_id, pending, tgt, theta, eps2, acc, phi):
        node = self.nodes[node_id]
        if not len(pending) or node.mass == 0.0:
            return
        d = node.com[None, :] - tgt[pending]
        r2 = (d * d).sum(axis=1)
        size = 2.0 * node.half
        if node.is_leaf:
            accepted = np.zeros(len(pending), dtype=bool)
        else:
            accepted = size * size < theta * theta * r2
        if accepted.any():
            sel = pending[accepted]
            dr = d[accepted]
            r2a = r2[accepted] + eps2
            if acc is not None:
                inv_r3 = node.mass / (r2a * np.sqrt(r2a))
                acc[sel] += dr * inv_r3[:, None]
            if phi is not None:
                phi[sel] -= node.mass / np.sqrt(r2a)
        rejected = pending[~accepted]
        if not len(rejected):
            return
        if node.is_leaf:
            src = self.order[node.start:node.end]
            dr = self.pos[src][None, :, :] - tgt[rejected][:, None, :]
            r2l = (dr * dr).sum(axis=2) + eps2
            inv_r = np.zeros_like(r2l)
            np.divide(1.0, np.sqrt(r2l), out=inv_r, where=r2l > 0)
            if acc is not None:
                inv_r3 = inv_r / np.where(r2l > 0, r2l, 1.0)
                acc[rejected] += (
                    self.mass[src][None, :, None] * dr
                    * inv_r3[:, :, None]
                ).sum(axis=1)
            if phi is not None:
                # exclude exact self-hits (r == eps only from the
                # softening): a zero distance means target == source
                zero_dist = (dr == 0).all(axis=2)
                inv_phi = inv_r.copy()
                inv_phi[zero_dist] = 0.0
                phi[rejected] -= (
                    self.mass[src][None, :] * inv_phi
                ).sum(axis=1)
        else:
            for child in node.children:
                self._walk(child, rejected, tgt, theta, eps2, acc, phi)
