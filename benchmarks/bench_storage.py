"""Bulk particle-state accessors against numpy's own floor.

Every gate is a ratio between two timings taken in this process on the
same arrays, so the speed of a shared CI runner cancels:

* a request for the whole set in storage order (what the high-level
  wrappers always send) costs a membership check plus one memcpy —
  ``get_position(ids)`` within 5x ``arr.copy()``, ``add_velocity(ids,
  dv)`` within 5x ``arr += dv``;
* any other request is a binary search plus a gather —
  ``get_position(permuted)`` within 10x ``arr[perm]``.

A Python-level loop over the ids misses all three by an order of
magnitude.  Set ``BENCH_QUICK=1`` for the CI smoke size.
"""

import os
import statistics
import time

import numpy as np

from repro.codes.phigrape import PhiGRAPEInterface

QUICK = bool(os.environ.get("BENCH_QUICK"))
N = 20_000 if QUICK else 200_000
CALLS = 15


def median_seconds(call):
    call()                          # first touch of fresh pages
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def test_bulk_accessors_within_reach_of_numpy_floor(report):
    rng = np.random.default_rng(14)
    pos, vel = rng.normal(size=(2, N, 3))
    code = PhiGRAPEInterface()
    ids = code.new_particle(rng.random(N), *pos.T, *vel.T)
    perm = rng.permutation(N)
    dv = rng.normal(scale=1e-6, size=(N, 3))
    scratch = pos.copy()

    def add_floor():
        scratch[...] += dv

    rows = [
        ("whole-set get_position", 5.0,
         median_seconds(lambda: code.get_position(ids)),
         "arr.copy()", median_seconds(pos.copy)),
        ("whole-set add_velocity", 5.0,
         median_seconds(lambda: code.add_velocity(ids, dv)),
         "arr += dv", median_seconds(add_floor)),
        ("permuted get_position", 10.0,
         median_seconds(lambda: code.get_position(ids[perm])),
         "arr[perm]", median_seconds(lambda: pos[perm])),
    ]
    report(f"bulk state accessors, N = {N} (median of {CALLS})", [
        f"{name:24s} {1e3 * ours:8.3f} ms = {ours / floor:5.2f} x "
        f"{floor_name} ({1e3 * floor:.3f} ms), gate {gate:g} x"
        for name, gate, ours, floor_name, floor in rows
    ])
    for name, gate, ours, _floor_name, floor in rows:
        assert ours <= gate * floor, (name, ours, floor)
