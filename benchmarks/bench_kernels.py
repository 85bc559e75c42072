"""A4 — multi-kernel ablation (Sec. 4): same model, different kernels.

REAL wall-time measurements of the kernels this reproduction ships:
direct-summation N-body (PhiGRAPE's algorithm) vs Barnes-Hut tree
(Octgrav/Fi's algorithm) across N, plus the result-equivalence checks
behind the paper's "no influence in the result" claim.
"""

import time

import numpy as np
import pytest

from repro.codes.kernels import Octree, direct_acceleration
from repro.codes.phigrape import PhiGRAPEInterface
from repro.codes.treecode import FiInterface, OctgravInterface
from repro.ic import new_plummer_model


def system(n, seed=0):
    p = new_plummer_model(n, rng=seed)
    return p.position.number, p.velocity.number, p.mass.number


@pytest.mark.parametrize("n", [256, 1024])
def test_a4_direct_kernel_cost(n, benchmark):
    pos, vel, mass = system(n)
    benchmark.pedantic(
        direct_acceleration, args=(pos, mass),
        kwargs={"eps2": 1e-4}, rounds=5, iterations=1,
    )


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_a4_tree_kernel_cost(n, benchmark):
    pos, vel, mass = system(n)

    def tree_eval():
        tree = Octree(pos, mass)
        return tree.accelerations(theta=0.6, eps2=1e-4)

    benchmark.pedantic(tree_eval, rounds=5, iterations=1)


def _tree_acceleration(pos, mass):
    return Octree(pos, mass).accelerations(theta=0.6, eps2=1e-4)


def _best_of_three(kernel, *args, **kwargs):
    """Seconds of the fastest of three calls: the first call at a new
    size also pays the allocator's page faults (60 ms of the tree's
    250 ms at N = 4096), whichever kernel it is."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    return min(times)


def test_a4_tree_beats_direct_at_scale(report):
    """The tree's N log N must win over direct N^2 for large N — the
    reason the coupling model is a tree code."""
    lines = []
    crossover_seen = False
    for n in (256, 1024, 4096):
        pos, vel, mass = system(n)
        t_direct = _best_of_three(direct_acceleration, pos, mass, eps2=1e-4)
        t_tree = _best_of_three(_tree_acceleration, pos, mass)
        lines.append(
            f"N={n:<6} direct={t_direct * 1e3:8.1f} ms  "
            f"tree={t_tree * 1e3:8.1f} ms  "
            f"ratio={t_direct / t_tree:5.2f}"
        )
        if t_tree < t_direct:
            crossover_seen = True
    report("A4: direct vs tree wall time", lines)
    assert crossover_seen, "tree never beat direct summation"


def test_a4_kernels_same_physics(report):
    """PhiGRAPE cpu/gpu bit-identical; Octgrav vs Fi tree-tolerance."""
    pos, vel, mass = system(128, seed=3)
    trajectories = {}
    for kernel in ("cpu", "gpu"):
        code = PhiGRAPEInterface(kernel=kernel, eta=0.05)
        code.new_particle(
            mass, pos[:, 0], pos[:, 1], pos[:, 2],
            vel[:, 0], vel[:, 1], vel[:, 2],
        )
        code.ensure_state("RUN")
        code.evolve_model(0.1)
        trajectories[kernel] = code.get_position().copy()
    assert np.array_equal(trajectories["cpu"], trajectories["gpu"])

    fields = {}
    for cls in (OctgravInterface, FiInterface):
        code = cls(eps2=1e-3)
        code.new_particle(
            mass, pos[:, 0], pos[:, 1], pos[:, 2],
            vel[:, 0], vel[:, 1], vel[:, 2],
        )
        fields[cls.__name__] = code.get_gravity_at_point(
            1e-3, pos + 0.5
        )
    rel = np.linalg.norm(
        fields["OctgravInterface"] - fields["FiInterface"], axis=1
    ) / np.linalg.norm(fields["FiInterface"], axis=1)
    report(
        "A4: kernel equivalence",
        ["PhiGRAPE cpu vs gpu: bit-identical",
         f"Octgrav vs Fi field: median rel diff {np.median(rel):.2e} "
         "(different opening angles)"],
    )
    assert np.median(rel) < 5e-3
