"""Kernel cost model calibrated to the paper's Sec. 6.2 lab results.

The paper's quantitative core is the per-iteration wall time of the
embedded-cluster simulation under four placements:

=========  ==============================================  =========
scenario   placement                                        s/iter
=========  ==============================================  =========
cpu        desktop quad-core; Fi + PhiGRAPE(CPU)              353
local-gpu  desktop + GeForce 9600GT; Octgrav + PhiGRAPE(GPU)   89
remote-gpu Octgrav moved to a Tesla C2050 at LGM (30 km)       84
jungle     4 sites (Fig. 12): models each on best resource    62.4
=========  ==============================================  =========

We reproduce these *shapes* with an explicit cost model: per-device rates
for three kernel classes (direct N², tree, SPH) plus communication and
per-call channel overheads.  The calibration (DESIGN.md §6) fixes the
effective per-iteration work so that the desktop-CPU baseline decomposes
into coupling 250 s + gravity 40 s + hydro 52 s + coupler 8 s ≈ 353 s/iter,
and the published GPU/remote/jungle numbers follow from device rates:

* CPU core: tree 4.0e6 u/s, direct 5.0e7 u/s, SPH 2.0e6 u/s;
* GeForce 9600GT: tree 10× CPU, direct 8× CPU → 89 s/iter;
* Tesla C2050: tree 15× CPU, direct 30× CPU → 84 s/iter incl. WAN;
* DAS-4 node: 2× desktop core; Gadget's small-N parallel efficiency
  eff(n) = 1/(1 + (n-1)) (the paper: "the simulation used in our tests
  is too small to properly test the scalability") → 62 s/iter.

The model deliberately charges *sequential* drift RPC by default — the
paper's prototype issues evolve calls through the central coupler, which
is the bottleneck Sec. 4.1/7 flags; the async-overlap variant
(``overlap_drift=True``: drift charges ``max()`` over the concurrently
evolving codes instead of ``sum()``) quantifies the improvement
(ablation A3), and ``schedule="dag"`` charges the CRITICAL PATH of the
TaskGraph bridge — per-model kick→drift→kick chains joined per edge,
so each model's share of the coupling work rides the slack of the
slowest drift.  :class:`~repro.distributed.core.JungleRunner` charges
``"dag"`` whenever it drives a real simulation (its bridge runs every
step as a TaskGraph) and the prototype's sequential ``"barrier"``
when it models time alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "CPU_CORE_RATES",
    "IterationWorkload",
    "Placement",
    "CostModel",
    "CHANNEL_CALL_OVERHEAD_S",
]

#: per-core rates (work units / second) for the desktop-class CPU
CPU_CORE_RATES = {
    "nbody_direct": 5.0e7,
    "tree": 4.0e6,
    "sph": 2.0e6,
    "lookup": 1.0e4,
}

#: per-call client-side overhead of each channel kind (seconds)
CHANNEL_CALL_OVERHEAD_S = {
    "direct": 1.0e-5,
    "mpi": 1.0e-5,
    "sockets": 2.0e-4,
    # daemon + proxy add two extra hops and Java-side dispatch
    "ibis": 1.0e-2,
    "distributed": 1.0e-2,
}

#: python-side coupler work per iteration (unit conversion, checking,
#: script logic) — charged once per iteration regardless of placement
COUPLER_PYTHON_S = 8.0

#: calibration constants: effective work units per iteration (see
#: module docstring; N_ref = 1000 stars + 10000 gas)
_TREE_UNITS_PER_TARGET_LOG = 3385.0
_DIRECT_SUBSTEPS = 2000.0
_SPH_UNITS_PER_PAIR = 325.0
_SPH_NEIGHBOURS = 32.0
#: Gadget parallel-efficiency knee (paper: poor small-N scaling)
SPH_PARALLEL_ALPHA = 1.0

#: bytes per particle for a full state exchange (mass+pos+vel, f64)
STATE_BYTES = 56
#: RPC round trips per iteration per role (kicks, evolve, pulls)
_ROUND_TRIPS = {"coupling": 8, "gravity": 6, "hydro": 6, "se": 1}


@dataclass
class IterationWorkload:
    """Work and data volumes of ONE outer iteration of the simulation."""

    n_stars: int = 1000
    n_gas: int = 10000

    @property
    def n_total(self):
        return self.n_stars + self.n_gas

    def work_units(self, role):
        """Effective work units for *role* ('tree'/'nbody_direct'/...)."""
        log_n = math.log2(max(self.n_total, 2))
        if role == "coupling":
            return (
                "tree",
                _TREE_UNITS_PER_TARGET_LOG * 2.0 * self.n_total * log_n,
            )
        if role == "gravity":
            return ("nbody_direct", _DIRECT_SUBSTEPS * self.n_stars ** 2)
        if role == "hydro":
            return (
                "sph",
                _SPH_UNITS_PER_PAIR * self.n_gas * _SPH_NEIGHBOURS,
            )
        if role == "se":
            return ("lookup", float(self.n_stars))
        raise KeyError(role)

    def comm_bytes(self, role):
        """Coupler <-> role bytes per iteration (both directions)."""
        if role == "coupling":
            # two kick phases: full state upload + field results back
            return 2 * (
                self.n_total * STATE_BYTES
                + (self.n_total) * 24
            )
        if role == "gravity":
            return 4 * self.n_stars * 24 + self.n_stars * STATE_BYTES
        if role == "hydro":
            return 4 * self.n_gas * 24 + self.n_gas * STATE_BYTES
        if role == "se":
            return self.n_stars * 40
        raise KeyError(role)

    def round_trips(self, role):
        return _ROUND_TRIPS[role]


@dataclass
class Placement:
    """Where each role runs: role -> (host, n_nodes, channel kind)."""

    assignments: dict = field(default_factory=dict)
    coupler_host: object = None

    def assign(self, role, host, nodes=1, channel="ibis"):
        self.assignments[role] = (host, int(nodes), channel)
        return self

    def host(self, role):
        return self.assignments[role][0]

    def nodes(self, role):
        return self.assignments[role][1]

    def channel(self, role):
        return self.assignments[role][2]

    def roles(self):
        return sorted(self.assignments)


class CostModel:
    """Times one simulation iteration for a placement on a jungle."""

    def __init__(self, jungle, cpu_rates=None,
                 coupler_python_s=COUPLER_PYTHON_S,
                 sph_parallel_alpha=SPH_PARALLEL_ALPHA):
        self.jungle = jungle
        self.cpu_rates = dict(cpu_rates or CPU_CORE_RATES)
        self.coupler_python_s = coupler_python_s
        self.sph_parallel_alpha = sph_parallel_alpha

    # -- device selection ------------------------------------------------------

    def device_rate(self, host, op, prefer_gpu):
        """Work units/s the host delivers for *op*."""
        if prefer_gpu and host.gpu is not None and op in host.gpu.rates:
            return host.gpu.rate(op), "gpu"
        return self.cpu_rates[op] * host.cpu_rate_factor, "cpu"

    def parallel_efficiency(self, nodes):
        """Small-problem strong-scaling efficiency (Gadget-style)."""
        if nodes <= 1:
            return 1.0
        return 1.0 / (1.0 + self.sph_parallel_alpha * (nodes - 1))

    # -- per-role timing ----------------------------------------------------------

    def compute_time(self, workload, role, host, nodes=1,
                     prefer_gpu=None):
        """Seconds of modeled compute for *role* on *host*."""
        op, units = workload.work_units(role)
        if prefer_gpu is None:
            prefer_gpu = host.gpu is not None and op in (
                "tree", "nbody_direct"
            )
        rate, device = self.device_rate(host, op, prefer_gpu)
        if nodes > 1:
            rate = rate * nodes * self.parallel_efficiency(nodes)
        seconds = units / rate
        self.jungle.network.traffic.record_busy(
            host.name, seconds, device
        )
        return seconds

    def comm_time(self, workload, role, host, coupler_host, channel):
        """Seconds of modeled coupler<->worker communication."""
        net = self.jungle.network
        n_bytes = workload.comm_bytes(role)
        trips = workload.round_trips(role)
        latency = net.latency(coupler_host.site, host.site)
        bandwidth = net.bandwidth(coupler_host.site, host.site)
        overhead = CHANNEL_CALL_OVERHEAD_S[channel]
        net.traffic.record(
            coupler_host.site, host.site, n_bytes // 2, "ipl"
        )
        net.traffic.record(
            host.site, coupler_host.site, n_bytes - n_bytes // 2, "ipl"
        )
        return trips * (2.0 * latency + overhead) + (
            8.0 * n_bytes / bandwidth
        )

    # -- iteration ------------------------------------------------------------------

    def iteration_time(self, workload, placement, overlap_drift=False,
                       direct_model_comm=False, schedule=None):
        """Modeled seconds per outer iteration, with a breakdown.

        ``overlap_drift=False`` (default) reproduces the paper's
        prototype: the coupler issues evolve calls one after another.
        ``overlap_drift=True`` is the async-bridge variant (A3).
        ``direct_model_comm=True`` models the paper's Sec. 7 future
        work ("allow direct communication between models"): the
        coupling model exchanges state with gravity/hydro directly
        instead of through the central coupler, so its traffic sees
        model-to-model latency rather than two coupler hops.

        *schedule* selects the coupling-point accounting:

        * ``"barrier"`` (default) — the paper's prototype coupler: the kick
          phases serialize with the drift phase, which charges
          ``sum()`` (sequential) or ``max()`` (*overlap_drift*) over
          the models at ONE barrier.
        * ``"dag"`` — the TaskGraph bridge: per-model chains
          ``kick-share → drift → kick-share`` joined per edge, so the
          iteration costs the CRITICAL PATH ``max_r(kick_r + drift_r)``
          — each model's share of the coupling model's field work
          rides the slack of the slowest drift instead of serializing
          in front of it.  Implies overlapped drifts.
        """
        if schedule is None:
            schedule = "barrier"
        if schedule not in ("barrier", "dag"):
            raise ValueError(
                f"unknown schedule {schedule!r}; "
                "known: ['barrier', 'dag']"
            )
        coupler = placement.coupler_host
        breakdown = {}
        for role in placement.roles():
            host, nodes, channel = placement.assignments[role]
            compute = self.compute_time(workload, role, host, nodes)
            comm_peer = coupler
            if direct_model_comm and role == "coupling":
                # nearest data partner: whichever model host is closest
                peers = [
                    placement.host(r) for r in placement.roles()
                    if r not in ("coupling",)
                ]
                comm_peer = min(
                    peers,
                    key=lambda h: self.jungle.network.latency(
                        host.site, h.site
                    ),
                )
            comm = self.comm_time(
                workload, role, host, comm_peer, channel
            )
            if nodes > 1:
                # the worker's internal MPI traffic (Gadget's domain
                # decomposition) stays inside the site — the orange
                # flows of paper Fig. 11
                self.jungle.network.traffic.record(
                    host.site, host.site,
                    workload.comm_bytes(role) * nodes, "mpi",
                )
            breakdown[role] = {
                "compute_s": compute,
                "comm_s": comm,
                "host": host.name,
                "site": host.site,
                "nodes": nodes,
                "channel": channel,
            }
        kick_s = (
            breakdown["coupling"]["compute_s"]
            + breakdown["coupling"]["comm_s"]
        )
        drift_roles = [r for r in placement.roles() if r != "coupling"]
        drift_parts = [
            breakdown[r]["compute_s"] + breakdown[r]["comm_s"]
            for r in drift_roles
        ]
        if schedule == "dag":
            # critical path over per-model chains: each drifting model
            # carries its share of the coupling model's field work
            # (both half-kicks), and chains only join per edge — the
            # iteration costs the slowest CHAIN, not kick-barrier +
            # drift-barrier
            kick_share = kick_s / max(len(drift_parts), 1)
            chains = [kick_share + drift for drift in drift_parts]
            drift_s = max(chains) if chains else 0.0
            total = drift_s + self.coupler_python_s
            overlap_drift = True
        else:
            # the kick phases serialise with the single drift barrier
            drift_s = max(drift_parts) if overlap_drift \
                else sum(drift_parts)
            total = kick_s + drift_s + self.coupler_python_s
        return {
            "total_s": total,
            "kick_s": kick_s,
            "drift_s": drift_s,
            "coupler_python_s": self.coupler_python_s,
            "breakdown": breakdown,
            "overlap_drift": overlap_drift,
            "schedule": schedule,
        }
