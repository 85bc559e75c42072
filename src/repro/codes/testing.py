"""Synthetic model codes for overlap tests and benchmarks.

:class:`SleepInterface` is a worker whose evolve costs a fixed
wall-clock time — the stand-in for *off-process* compute: a real remote
worker burns CPU on its own node exactly like a sleeping worker thread
here, with the GIL out of the picture.  :class:`SleepCode` wraps it
with the full async-first high-level surface, so the concurrency
machinery (futures, EvolveGroup, in-flight tracking) can be measured
and tested against workers with perfectly known per-step cost.

:class:`NumpyKernelInterface` is the adversarial counterpart: its
evolve is a GIL-holding numpy compute loop.  In-process worker threads
serialize on it (~2x for two workers), while subprocess workers —
each with its own interpreter — overlap it fully (~1x).  It is the
kernel behind the GIL-bound acceptance check in
``benchmarks/bench_async_overlap.py``.

The fault-injection interfaces (:class:`CrashingInterface`,
:class:`FailingInterface`, :class:`WedgedStopInterface`) exercise the
channel lifecycle paths: worker death mid-call, constructor failure in
a spawned child, and a worker that never acknowledges stop.

Everything here is importable as ``repro.codes.testing`` so a
subprocess worker child can unpickle the factories.  Shared by
``tests/test_async_api.py``, ``tests/test_subproc.py`` and
``benchmarks/bench_async_overlap.py`` so they always exercise the same
worker semantics.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from .base import CodeInterface
from .highlevel import CommunityCode

__all__ = [
    "ArrayEchoInterface",
    "DriftingInterface",
    "DriftingCode",
    "SleepInterface",
    "SleepCode",
    "PhasedSleepInterface",
    "PhasedSleepCode",
    "NumpyKernelInterface",
    "NumpyKernelCode",
    "CrashingInterface",
    "FailingInterface",
    "WedgedStopInterface",
]


class ArrayEchoInterface(CodeInterface):
    """Bulk-transfer worker: echoes / transforms array payloads.

    The measurement surface for channel throughput (sockets vs shm vs
    compressed): ``echo`` moves a payload both ways untouched, and
    ``scale`` proves the data genuinely crossed into the worker (the
    result differs from the input, so a transport that secretly
    shared state with the caller could not fake it).
    """

    def echo(self, payload):
        return payload

    def scale(self, array, factor):
        return np.asarray(array) * float(factor)

    def checksum(self, array):
        return float(np.sum(np.asarray(array)))


class SleepInterface(CodeInterface):
    """Model code whose evolve costs ``cost_s`` wall-clock seconds."""

    PARAMETERS = {
        "cost_s": (0.15, "wall-clock seconds charged per evolve call"),
    }

    def evolve_model(self, end_time):
        self.ensure_state("RUN")
        time.sleep(self.cost_s)
        self.model_time = float(end_time)
        self.step_count += 1
        return 0


class SleepCode(CommunityCode):
    """High-level wrapper: full async surface over a SleepInterface."""

    INTERFACE = SleepInterface


class DriftingInterface(CodeInterface):
    """Model code with seeded, reproducible conservation errors.

    Each evolve accrues a pseudo-random energy-drift increment and a
    mass-loss fraction drawn from a generator seeded by ``seed`` —
    the same seed and step count always produce the same drift, on any
    host.  That makes it the reference workload for the ensemble
    campaign layer: sweeps over ``seed`` give member results with a
    known, reproducible statistical spread, without paying for a real
    N-body integration.  ``cost_s`` optionally charges wall clock per
    step so cold-vs-cached campaign timings have a controlled scale.
    """

    PARAMETERS = {
        "seed": (0, "generator seed for the per-step drift draws"),
        "drift_scale": (
            1e-6, "mean |dE/E| increment accrued per evolve call"),
        "loss_scale": (
            1e-4, "mean mass fraction lost per evolve call"),
        "cost_s": (0.0, "wall-clock seconds charged per evolve call"),
    }

    def initialize_code(self):
        self._rng = np.random.default_rng(int(self.seed))
        self.energy_drift = 0.0
        self.mass_fraction = 1.0
        return 0

    def evolve_model(self, end_time):
        self.ensure_state("RUN")
        if self.cost_s:
            time.sleep(self.cost_s)
        self.energy_drift += float(
            self.drift_scale * self._rng.exponential()
        )
        self.mass_fraction *= 1.0 - float(
            self.loss_scale * self._rng.random()
        )
        self.model_time = float(end_time)
        self.step_count += 1
        return 0

    def get_energy_drift(self):
        return float(self.energy_drift)

    def get_mass_loss(self):
        return float(1.0 - self.mass_fraction)


class DriftingCode(CommunityCode):
    """High-level wrapper exposing the drift/loss conservation metrics."""

    INTERFACE = DriftingInterface

    def metrics(self):
        """``{energy_drift, mass_loss}`` read back from the worker."""
        self._require_open("metrics")
        return {
            "energy_drift": self.channel.call("get_energy_drift"),
            "mass_loss": self.channel.call("get_mass_loss"),
        }


class PhasedSleepInterface(CodeInterface):
    """Model code with SEPARATE known costs for its drift and kick.

    The measurement surface for schedule-shape benchmarks
    (``benchmarks/bench_taskgraph.py``): a kick–drift–kick step over
    codes with unequal ``drift_s``/``kick_s`` makes the difference
    between a barrier schedule (every phase waits for the slowest
    code) and a DAG schedule (each code's chain pipelines
    independently) directly measurable in wall clock.
    """

    PARAMETERS = {
        "drift_s": (0.1, "wall-clock seconds per evolve_model call"),
        "kick_s": (0.05, "wall-clock seconds per apply_kick call"),
    }

    def evolve_model(self, end_time):
        self.ensure_state("RUN")
        time.sleep(self.drift_s)
        self.model_time = float(end_time)
        self.step_count += 1
        return 0

    def apply_kick(self, dt):
        self.ensure_state("RUN")
        time.sleep(self.kick_s)
        return 0


class PhasedSleepCode(CommunityCode):
    """High-level wrapper: async evolve + async kick with pinned costs."""

    INTERFACE = PhasedSleepInterface

    def kick(self, dt):
        """Blocking kick; ``kick_async`` is the overlapping form."""
        return self.kick_async(dt).result()

    def kick_async(self, dt):
        return self._transition(
            "kick",
            lambda: self.channel.async_call("apply_kick", float(dt)),
            transform=lambda _v: None,
        )


class NumpyKernelInterface(CodeInterface):
    """Model code whose evolve is GIL-holding numpy compute.

    The loop runs many *small* element-wise kernels: numpy ufuncs hold
    the GIL, so two of these in worker threads of one process serialize
    — exactly the bound the subprocess channel exists to lift.
    ``work_items`` scales the per-evolve cost linearly.
    """

    PARAMETERS = {
        "work_items": (
            2000, "numpy kernel slices executed per evolve call"),
        "item_size": (
            20000, "elements per kernel slice"),
    }

    def evolve_model(self, end_time):
        self.ensure_state("RUN")
        x = np.linspace(0.0, 1.0, int(self.item_size))
        checksum = 0.0
        for _ in range(int(self.work_items)):
            checksum += float(np.sum(np.sqrt(x * x + 1.0) * np.cos(x)))
        self.checksum = checksum
        self.model_time = float(end_time)
        self.step_count += 1
        return 0


class NumpyKernelCode(CommunityCode):
    """High-level wrapper: full async surface over compute-heavy evolve."""

    INTERFACE = NumpyKernelInterface


class CrashingInterface(CodeInterface):
    """Fault injection: methods that take the whole worker process down.

    ``crash()`` writes a marker to stderr and hard-exits the process —
    from the channel's point of view the worker died mid-call, the
    worker-death path the subprocess channel must surface as
    :class:`~repro.rpc.protocol.ConnectionLostError`.
    """

    PARAMETERS = {
        "exit_code": (3, "process exit code used by crash()"),
        "stderr_message": (
            "worker crashed on purpose", "marker written to stderr"),
    }

    def evolve_model(self, end_time):
        self.ensure_state("RUN")
        self.crash()

    def crash(self):
        print(self.stderr_message, file=sys.stderr, flush=True)
        os._exit(int(self.exit_code))


class FailingInterface(CodeInterface):
    """Fault injection: the interface constructor itself raises."""

    def __init__(self, **parameters):
        raise RuntimeError("FailingInterface refused to construct")


class WedgedStopInterface(CodeInterface):
    """Fault injection: ``stop`` blocks far past any stop timeout."""

    PARAMETERS = {
        "wedge_s": (2.0, "seconds stop() stays wedged"),
    }

    def stop(self):
        time.sleep(self.wedge_s)
        return super().stop()
