"""Gravity kernel tests: direct summation, the Barnes–Hut octree and
the factory that chooses between them."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codes.kernels import (
    _DIRECT_MAX,
    _PAIR_CHUNK,
    Octree,
    direct_acc_jerk,
    direct_acceleration,
    direct_potential,
    gravity_field,
    total_energy,
)


@pytest.fixture
def system():
    rng = np.random.default_rng(3)
    n = 300
    return (
        rng.normal(size=(n, 3)),
        rng.normal(size=(n, 3)) * 0.1,
        rng.uniform(0.5, 1.0, n) / n,
    )


class TestDirect:
    def test_two_body_newton(self):
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        mass = np.array([1.0, 2.0])
        acc = direct_acceleration(pos, mass)
        assert acc[0, 0] == pytest.approx(2.0)   # G m2 / r^2
        assert acc[1, 0] == pytest.approx(-1.0)

    def test_momentum_conservation(self, system):
        pos, vel, mass = system
        acc = direct_acceleration(pos, mass, eps2=1e-4)
        total_force = (mass[:, None] * acc).sum(axis=0)
        assert np.allclose(total_force, 0.0, atol=1e-10)

    def test_softening_bounds_force(self):
        pos = np.array([[0.0, 0, 0], [1e-8, 0, 0]])
        mass = np.array([1.0, 1.0])
        acc = direct_acceleration(pos, mass, eps2=1e-2)
        assert np.linalg.norm(acc[0]) < 1.0

    def test_external_targets(self, system):
        pos, vel, mass = system
        targets = np.array([[5.0, 0, 0], [0, 5.0, 0]])
        acc = direct_acceleration(pos, mass, targets=targets)
        # far-field ~ monopole: |a| ~ M/r^2
        m_total = mass.sum()
        assert np.linalg.norm(acc[0]) == pytest.approx(
            m_total / 25.0, rel=0.1
        )

    def test_blocking_independence(self, system):
        pos, vel, mass = system
        a1 = direct_acceleration(pos, mass, eps2=1e-4, block=7)
        a2 = direct_acceleration(pos, mass, eps2=1e-4, block=4096)
        assert np.allclose(a1, a2)

    def test_default_block_is_sized_from_n(self):
        """Without ``block=`` every direct kernel takes about
        ``_PAIR_CHUNK`` pairs per block: the same results as that block
        passed explicitly, and a pair scratch of ~1.5 MiB at
        ``_DIRECT_MAX`` instead of 25-40 MiB for 512 / 1024 rows."""
        import tracemalloc

        pos, mass = _plummer(_DIRECT_MAX)
        vel = np.random.default_rng(5).normal(size=pos.shape)
        rows = _PAIR_CHUNK // _DIRECT_MAX
        runs = [
            (lambda **kw: direct_acceleration(pos, mass, 1e-4, **kw)),
            (lambda **kw: direct_potential(pos, mass, 1e-4, **kw)),
            (lambda **kw: direct_acc_jerk(pos, vel, mass, 1e-4, **kw)),
        ]
        for run in runs:
            assert np.array_equal(run(), run(block=rows))
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2 ** 20, (run, peak)

    def test_g_scaling(self, system):
        pos, vel, mass = system
        a1 = direct_acceleration(pos, mass, eps2=1e-4, G=1.0)
        a2 = direct_acceleration(pos, mass, eps2=1e-4, G=2.0)
        assert np.allclose(2.0 * a1, a2)

    def test_jerk_matches_finite_difference(self, system):
        pos, vel, mass = system
        acc, jerk = direct_acc_jerk(pos, vel, mass, eps2=1e-4)
        dt = 1e-7
        acc2 = direct_acceleration(pos + vel * dt, mass, eps2=1e-4)
        fd = (acc2 - acc) / dt
        rel = np.linalg.norm(fd - jerk, axis=1) / np.linalg.norm(
            jerk, axis=1
        )
        assert np.median(rel) < 1e-4

    def test_acc_jerk_acc_equals_direct(self, system):
        pos, vel, mass = system
        acc, _ = direct_acc_jerk(pos, vel, mass, eps2=1e-4)
        assert np.allclose(
            acc, direct_acceleration(pos, mass, eps2=1e-4)
        )

    def test_potential_pairwise(self):
        pos = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        mass = np.array([1.0, 3.0])
        phi = direct_potential(pos, mass)
        assert phi[0] == pytest.approx(-1.5)
        assert phi[1] == pytest.approx(-0.5)

    def test_potential_excludes_self_with_softening(self):
        pos = np.zeros((1, 3))
        mass = np.array([1.0])
        phi = direct_potential(pos, mass, eps2=1e-4)
        assert phi[0] == 0.0

    def test_total_energy_virial_plummer(self):
        from repro.ic import new_plummer_model
        p = new_plummer_model(200, rng=0)
        e = total_energy(
            p.position.number, p.velocity.number, p.mass.number
        )
        assert e == pytest.approx(-0.25, rel=0.02)


class TestOctree:
    def test_accuracy_vs_direct(self, system):
        pos, vel, mass = system
        tree = Octree(pos, mass)
        a_tree = tree.accelerations(theta=0.5, eps2=1e-4)
        a_dir = direct_acceleration(pos, mass, eps2=1e-4)
        rel = np.linalg.norm(a_tree - a_dir, axis=1) / np.linalg.norm(
            a_dir, axis=1
        )
        assert np.median(rel) < 5e-3
        assert rel.max() < 5e-2

    def test_theta_zero_is_exact(self, system):
        pos, vel, mass = system
        tree = Octree(pos, mass, leaf_size=1)
        a_tree = tree.accelerations(theta=1e-9, eps2=1e-4)
        a_dir = direct_acceleration(pos, mass, eps2=1e-4)
        assert np.allclose(a_tree, a_dir, rtol=1e-8, atol=1e-10)

    def test_potential_accuracy(self, system):
        pos, vel, mass = system
        tree = Octree(pos, mass)
        phi_t = tree.potentials(theta=0.5, eps2=1e-4)
        phi_d = direct_potential(pos, mass, eps2=1e-4)
        assert np.median(np.abs((phi_t - phi_d) / phi_d)) < 2e-3

    def test_accuracy_improves_with_smaller_theta(self, system):
        pos, vel, mass = system
        tree = Octree(pos, mass)
        a_dir = direct_acceleration(pos, mass, eps2=1e-4)

        def err(theta):
            a = tree.accelerations(theta=theta, eps2=1e-4)
            return np.median(
                np.linalg.norm(a - a_dir, axis=1)
                / np.linalg.norm(a_dir, axis=1)
            )

        assert err(0.3) <= err(0.9)

    def test_empty_tree(self):
        tree = Octree(np.empty((0, 3)), np.empty(0))
        assert tree.accelerations(
            targets=np.zeros((2, 3))).shape == (2, 3)

    def test_single_particle(self):
        tree = Octree(np.zeros((1, 3)), np.array([2.0]))
        acc = tree.accelerations(targets=np.array([[1.0, 0, 0]]))
        assert acc[0, 0] == pytest.approx(-2.0)

    def test_coincident_particles_no_recursion_error(self):
        pos = np.zeros((100, 3))
        mass = np.ones(100)
        tree = Octree(pos, mass, leaf_size=4)
        acc = tree.accelerations(
            targets=np.array([[1.0, 0, 0]]), theta=0.5
        )
        assert acc[0, 0] == pytest.approx(-100.0, rel=1e-6)

    def test_mass_conservation_in_nodes(self, system):
        pos, vel, mass = system
        tree = Octree(pos, mass)
        assert tree.nodes[0].mass == pytest.approx(mass.sum())

    def test_com_of_root(self, system):
        pos, vel, mass = system
        tree = Octree(pos, mass)
        com = (mass[:, None] * pos).sum(axis=0) / mass.sum()
        assert np.allclose(tree.nodes[0].com, com)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Octree(np.zeros((5, 2)), np.ones(5))

    def test_external_targets(self, system):
        pos, vel, mass = system
        tree = Octree(pos, mass)
        targets = np.array([[10.0, 0, 0]])
        acc = tree.accelerations(targets=targets, theta=0.5)
        assert acc[0, 0] == pytest.approx(-mass.sum() / 100.0, rel=0.05)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=200))
    def test_momentum_conservation_property(self, n):
        rng = np.random.default_rng(n)
        pos = rng.normal(size=(n, 3))
        mass = rng.uniform(0.1, 1.0, n)
        tree = Octree(pos, mass)
        # theta=0 exact -> forces antisymmetric -> total momentum 0
        acc = tree.accelerations(theta=1e-9, eps2=1e-3)
        assert np.allclose(
            (mass[:, None] * acc).sum(axis=0), 0.0, atol=1e-8
        )


def _pairwise_reference(pos, vel, mass, eps2):
    """Acceleration, jerk and potential by an explicit double loop.
    The potential follows the octree's self-hit rule: a source at zero
    separation (itself, or a coincident particle) adds nothing."""
    n = len(pos)
    acc, jerk, phi = np.zeros((n, 3)), np.zeros((n, 3)), np.zeros(n)
    for i in range(n):
        for j in range(n):
            dr, dv = pos[j] - pos[i], vel[j] - vel[i]
            r2 = dr @ dr + eps2
            if i == j or r2 == 0:
                continue
            acc[i] += mass[j] * dr / r2 ** 1.5
            jerk[i] += mass[j] * (
                dv / r2 ** 1.5 - 3.0 * (dr @ dv) * dr / r2 ** 2.5
            )
            if dr.any():
                phi[i] -= mass[j] / np.sqrt(r2)
    return acc, jerk, phi


class TestDirectAgainstPairwiseLoop:
    """The einsum kernels against the loop they vectorize; the sums
    run in another order, so a tolerance from the dtype, not equality."""

    @pytest.mark.parametrize("eps2", [0.0, 1e-4])
    @pytest.mark.parametrize("block", [7, 512])
    def test_acc_jerk_potential(self, eps2, block):
        rng = np.random.default_rng(11)
        n = 40
        pos, vel = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        mass = rng.uniform(0.1, 1.0, n)
        mass[5] = 0.0
        pos[9] = pos[8]                       # a coincident pair
        acc_ref, jerk_ref, phi_ref = _pairwise_reference(
            pos, vel, mass, eps2
        )
        acc, jerk = direct_acc_jerk(pos, vel, mass, eps2, block=block)
        tol = 1e-13
        assert np.allclose(acc, acc_ref, rtol=0,
                           atol=tol * np.abs(acc_ref).max())
        assert np.allclose(jerk, jerk_ref, rtol=0,
                           atol=tol * np.abs(jerk_ref).max())
        assert np.allclose(
            direct_acceleration(pos, mass, eps2, block=block), acc_ref,
            rtol=0, atol=tol * np.abs(acc_ref).max(),
        )
        assert np.allclose(
            direct_potential(pos, mass, eps2, block=block), phi_ref,
            rtol=1e-13, atol=0,
        )

    def test_unsoftened_self_pair_is_finite(self):
        pos, vel = np.zeros((3, 3)), np.ones((3, 3))
        pos[2, 0] = 1.0
        acc, jerk = direct_acc_jerk(pos, vel, np.ones(3))
        assert np.isfinite(acc).all() and np.isfinite(jerk).all()
        assert np.isfinite(direct_potential(pos, np.ones(3))).all()


def _tree_case(seed, n, n_duplicates, n_massless):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, 3))
    mass = rng.uniform(0.1, 1.0, n)
    pos[rng.integers(0, n, n_duplicates)] = pos[
        rng.integers(0, n, n_duplicates)
    ]
    mass[rng.integers(0, n, n_massless)] = 0.0
    return pos, mass, rng.normal(size=(23, 3)) * 2.0


class TestOctreeAgainstReference:
    """The flat tree against the recursive one it replaced
    (tests/reference_octree.py): the same nodes and the same
    interaction set, so only the summation order may differ."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        n=st.integers(1, 400),
        leaf_size=st.integers(1, 32),
        theta=st.sampled_from([1e-9, 0.3, 0.6, 0.9]),
        eps2=st.sampled_from([0.0, 1e-4]),
        n_duplicates=st.integers(0, 40),
        n_massless=st.integers(0, 40),
    )
    def test_same_nodes_and_fields(self, seed, n, leaf_size, theta, eps2,
                                   n_duplicates, n_massless):
        from reference_octree import ReferenceOctree

        pos, mass, external = _tree_case(seed, n, n_duplicates, n_massless)
        tree = Octree(pos, mass, leaf_size)
        ref = ReferenceOctree(pos, mass, leaf_size)
        assert len(tree.nodes) == len(ref.nodes)
        assert tree.nodes[0].mass == pytest.approx(
            ref.nodes[0].mass, rel=1e-13
        )
        assert np.allclose(tree.nodes[0].com, ref.nodes[0].com,
                           rtol=1e-12, atol=1e-14)
        assert sorted(tree.order) == list(range(n))
        for targets in (None, external):
            got = tree.accelerations(targets, theta, eps2)
            want = ref.accelerations(targets, theta, eps2)
            assert np.allclose(got, want, rtol=1e-10,
                               atol=1e-12 * np.abs(want).max())
            got = tree.potentials(targets, theta, eps2)
            want = ref.potentials(targets, theta, eps2)
            assert np.allclose(got, want, rtol=1e-10, atol=0)

    def test_every_node_owns_its_slice(self):
        pos, mass, _ = _tree_case(5, 300, 10, 10)
        tree = Octree(pos, mass, leaf_size=4)
        nodes = tree.nodes
        for row in np.flatnonzero(~nodes.is_leaf):
            kids = nodes[nodes.first_child[row]:
                         nodes.first_child[row] + nodes.n_children[row]]
            assert kids.start[0] == nodes.start[row]
            assert kids.end[-1] == nodes.end[row]
            assert (kids.start[1:] == kids.end[:-1]).all()
            assert kids.mass.sum() == pytest.approx(nodes.mass[row])
        for row in np.flatnonzero(nodes.is_leaf):
            inside = pos[tree.order[nodes.start[row]:nodes.end[row]]]
            assert (np.abs(inside - nodes.center[row])
                    <= nodes.half[row] * (1 + 1e-12)).all()

    def test_all_coincident_and_massless(self):
        from reference_octree import ReferenceOctree

        pos = np.ones((50, 3))
        mass = np.zeros(50)
        tree, ref = Octree(pos, mass, 4), ReferenceOctree(pos, mass, 4)
        assert len(tree.nodes) == len(ref.nodes)
        assert not tree.accelerations().any()
        mass[:] = 1.0
        tree, ref = Octree(pos, mass, 4), ReferenceOctree(pos, mass, 4)
        assert len(tree.nodes) == len(ref.nodes)
        outside = np.array([[3.0, 1.0, 1.0]])
        assert tree.potentials(outside, eps2=1e-4)[0] == pytest.approx(
            -50.0 / np.sqrt(4.0 + 1e-4)
        )
        # the self-hit rule is "zero separation", so it also drops the
        # 49 particles sitting exactly on top of each target
        assert np.array_equal(tree.potentials(eps2=1e-4),
                              ref.potentials(eps2=1e-4))
        assert not tree.potentials(eps2=1e-4).any()

    def test_walk_memory_is_bounded(self):
        """The walk's pair lists are cut at ``kernels._PAIR_CHUNK``:
        at N = 4096 the leaf pairs alone are ~7e6, which unchunked
        peak at ~100 MiB (theta 0.6) and ~320 MiB (theta -> 0)."""
        import tracemalloc

        from repro.ic import new_plummer_model

        p = new_plummer_model(4096, rng=0)
        pos, mass = p.position.number, p.mass.number
        for theta in (0.6, 1e-9):
            tracemalloc.start()
            try:
                Octree(pos, mass).accelerations(theta=theta)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2 ** 20, (theta, peak)


def _plummer(n, seed=0):
    from repro.ic import new_plummer_model

    p = new_plummer_model(n, rng=seed)
    return p.position.number, p.mass.number


class TestGravityField:
    """``gravity_field`` sums up to ``_DIRECT_MAX`` sources directly
    and builds the octree above; both sides keep one self-hit rule."""

    @pytest.mark.parametrize("n", [2, 300, _DIRECT_MAX])
    @pytest.mark.parametrize("eps2", [0.0, 1e-4])
    def test_direct_at_or_below_the_crossover(self, n, eps2):
        pos, mass = _plummer(n)
        field = gravity_field(pos, mass)
        assert not isinstance(field, Octree)
        assert np.array_equal(field.accelerations(eps2=eps2),
                              direct_acceleration(pos, mass, eps2))
        targets = pos[::3] + 0.01
        assert np.array_equal(
            field.accelerations(targets, eps2=eps2, G=2.0),
            direct_acceleration(pos, mass, eps2, targets, G=2.0),
        )

    def test_direct_self_force_conserves_momentum(self):
        """Σ mᵢaᵢ = 0 up to round-off; the tree's monopoles are not
        symmetric and miss that by orders of magnitude."""
        pos, mass = _plummer(_DIRECT_MAX)

        def momentum_budget(field):
            acc = field.accelerations(eps2=1e-4)
            total = np.abs((mass[:, None] * acc).sum(axis=0)).max()
            return total / (mass * np.linalg.norm(acc, axis=1)).sum()

        assert momentum_budget(gravity_field(pos, mass)) <= 1e-14
        assert momentum_budget(Octree(pos, mass)) > 1e-8

    @pytest.mark.parametrize("leaf_size", [4, 16])
    def test_tree_above_the_crossover(self, leaf_size):
        pos, mass = _plummer(_DIRECT_MAX + 1)
        field = gravity_field(pos, mass, leaf_size)
        assert isinstance(field, Octree)
        assert np.array_equal(field.nodes, Octree(pos, mass, leaf_size).nodes)

    @pytest.mark.parametrize("eps2", [0.0, 1e-4])
    @pytest.mark.parametrize("case", ["no sources", "one source",
                                      "target on a source"])
    def test_edge_cases_agree_with_the_tree(self, case, eps2):
        rng = np.random.default_rng(7)
        pos = rng.normal(size=(5, 3))
        mass = rng.uniform(0.5, 1.0, 5)
        targets = rng.normal(size=(4, 3))
        if case == "no sources":
            pos, mass = pos[:0], mass[:0]
        elif case == "one source":
            pos, mass = pos[:1], mass[:1]
            targets[1] = pos[0]
        else:
            targets[[0, 2]] = pos[[3, 1]]
        direct = gravity_field(pos, mass)
        tree = Octree(pos, mass)
        assert not isinstance(direct, Octree)
        for points in (None, targets):
            assert np.allclose(direct.accelerations(points, eps2=eps2),
                               tree.accelerations(points, eps2=eps2),
                               rtol=1e-13, atol=0)
            assert np.allclose(direct.potentials(points, eps2=eps2),
                               tree.potentials(points, eps2=eps2),
                               rtol=1e-13, atol=0)
            # the free sum (PhiGRAPE's potential) has the same rule
            assert np.allclose(direct_potential(pos, mass, eps2, points),
                               tree.potentials(points, eps2=eps2),
                               rtol=1e-13, atol=0)
        if case == "target on a source":
            # the self-hit rule: nothing from the source it sits on
            others = [0, 1, 2, 4]
            assert direct.potentials(targets[:1], eps2=eps2) == pytest.approx(
                direct_potential(pos[others], mass[others], eps2, targets[:1]),
                rel=1e-13,
            )

    def test_direct_memory_is_bounded(self):
        """One evaluation at ``_DIRECT_MAX`` sources and targets: the
        pair scratch is sized from the source count, so it stays at
        about ``kernels._PAIR_CHUNK`` pairs (a 1024-target block would
        hold 1M pairs, ~40 MiB)."""
        import tracemalloc

        pos, mass = _plummer(_DIRECT_MAX)
        field = gravity_field(pos, mass)
        for evaluate in (field.accelerations, field.potentials):
            tracemalloc.start()
            try:
                evaluate(eps2=1e-4)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2 ** 20, (evaluate, peak)
