"""Distributed AMUSE — gluing the coupler to the jungle (paper Sec. 5).

This module reproduces the orchestration side of the prototype:

* :class:`ResourceSpec` — step 2 of the paper's usage recipe: "Specify
  some basic information such as hostname and type of middleware for
  each resource used in a configuration file";
* :class:`Pilot` — a reservation of nodes on a resource, deployed
  through IbisDeploy/PyGAT with a proxy process that joins the IPL pool
  ("Workers are started by the daemon with JavaGAT, while wide-area
  communication is done using IPL ...  the daemon uses IPL to
  communicate ... to a proxy process running alongside the worker");
* :class:`DistributedAmuse` — the user-facing object tying resources,
  pilots, deployment and monitoring together;
* :class:`JungleRunner` — executes the *real* coupled simulation while
  charging *modeled* time per iteration from the calibrated cost model,
  which is how the Sec. 6.2 scenario table is regenerated;
* fault behaviour, with the same :class:`~repro.rpc.taskgraph.FaultPolicy`
  the step graph takes: by default (``RAISE``) a dying pilot crashes
  the whole simulation ("If a reservation ends ... we cannot recover
  from this fault, and the entire simulation crashes"), while
  ``RESTART`` implements the transparent-replacement future work the
  paper sketches.
"""

from __future__ import annotations

from ..ibis.deploy import ApplicationDescription, Deploy
from ..ibis.gat import JobState
from ..ibis.ipl import Ibis, ONE_TO_ONE_OBJECT
from ..jungle.perfmodel import CostModel, IterationWorkload, Placement
from ..rpc.taskgraph import FaultPolicy

__all__ = [
    "ResourceSpec",
    "Pilot",
    "DistributedAmuse",
    "JungleRunner",
    "WorkerDiedError",
]


class WorkerDiedError(RuntimeError):
    """A worker's resource disappeared and the policy is RAISE."""


class ResourceSpec:
    """One entry of the user's resource configuration file."""

    def __init__(self, name, site_name, middleware=None, node_count=1,
                 needs_gpu=False):
        self.name = name
        self.site_name = site_name
        self.middleware = middleware
        self.node_count = int(node_count)
        self.needs_gpu = bool(needs_gpu)

    def __repr__(self):
        return f"<ResourceSpec {self.name} -> {self.site_name}>"


class Pilot:
    """A node reservation running a worker proxy on a resource."""

    def __init__(self, owner, role, resource, deploy_job):
        self.owner = owner
        self.role = role
        self.resource = resource
        self.deploy_job = deploy_job
        self.proxy_ibis = None
        self.alive = False

    @property
    def hosts(self):
        return self.deploy_job.hosts

    @property
    def state(self):
        return self.deploy_job.state

    def kill(self, reason="reservation ended"):
        """The scheduler kills the worker (paper's failure case)."""
        self.alive = False
        if self.proxy_ibis is not None:
            self.owner.deploy.registry.declare_dead(
                self.proxy_ibis.identifier
            )
        self.deploy_job.gat_job.cancel()
        self.owner._on_pilot_death(self, reason)

    def __repr__(self):
        return f"<Pilot {self.role} on {self.resource.name} " \
               f"alive={self.alive}>"


class DistributedAmuse:
    """User-facing distributed-AMUSE object (jungle side).

    Typical flow (mirrors the paper's 4-step recipe)::

        d = DistributedAmuse(jungle, client_host)   # daemon running
        d.add_resource(ResourceSpec("LGM", "LGM (LU)", "ssh", 1, True))
        d.new_pilot("gravity", "LGM")
        d.wait_for_pilots()
        placement = d.placement()                    # -> CostModel
    """

    def __init__(self, jungle, client_host, pool="amuse",
                 fault_policy=FaultPolicy.RAISE):
        if fault_policy not in (FaultPolicy.RAISE, FaultPolicy.RESTART):
            raise ValueError(
                f"unsupported pilot fault policy {fault_policy!r}; "
                "known: RAISE, RESTART"
            )
        self.jungle = jungle
        self.client_host = client_host
        self.deploy = Deploy(jungle, client_host, pool=pool)
        self.deploy.initialize()
        self.resources = {}
        self.pilots = {}
        self.fault_policy = fault_policy
        self.fault_log = []
        self.application = ApplicationDescription("amuse")

    # -- resources (paper step 2) ------------------------------------------------

    def add_resource(self, spec):
        if spec.site_name not in self.jungle.sites:
            raise KeyError(f"unknown site {spec.site_name!r}")
        self.resources[spec.name] = spec
        return spec

    # -- pilots ----------------------------------------------------------------------

    def new_pilot(self, role, resource_name, node_count=None,
                  needs_gpu=None):
        """Reserve nodes and start the worker proxy for *role*."""
        spec = self.resources[resource_name]
        site = self.jungle.sites[spec.site_name]
        pilot_ref = {}

        def proxy_body(env, hosts):
            # the proxy joins the IPL pool and listens for worker calls
            pilot = pilot_ref["pilot"]
            pilot.proxy_ibis = Ibis(
                self.deploy.registry, hosts[0], f"{role}-proxy",
                self.deploy.factory,
            )
            pilot.proxy_ibis.create_receive_port(
                ONE_TO_ONE_OBJECT, "worker-calls"
            )
            pilot.alive = True
            try:
                yield env.timeout(float("inf"))
            finally:
                pilot.alive = False

        deploy_job = self.deploy.submit(
            self.application, site, role,
            node_count=node_count or spec.node_count,
            worker_body=proxy_body,
            needs_gpu=spec.needs_gpu if needs_gpu is None else needs_gpu,
        )
        pilot = Pilot(self, role, spec, deploy_job)
        pilot_ref["pilot"] = pilot
        self.pilots[role] = pilot
        return pilot

    def wait_for_pilots(self, timeout_s=3600.0):
        """Advance the DES until every pilot proxy is up, then connect
        the daemon to every proxy through SmartSockets/IPL (this is
        where firewalled workers force reverse/routed connections)."""
        env = self.jungle.env
        deadline = env.now + timeout_s
        while env.now < deadline:
            if all(p.alive for p in self.pilots.values()):
                self._connect_workers()
                return True
            if any(
                p.deploy_job.state == JobState.SUBMISSION_ERROR
                for p in self.pilots.values()
            ):
                return False
            if not env._queue:
                break
            env.run(until=min(deadline, env._queue[0][0]))
        alive = all(p.alive for p in self.pilots.values())
        if alive:
            self._connect_workers()
        return alive

    def _connect_workers(self):
        """Open one IPL connection daemon -> each proxy."""
        env = self.jungle.env
        client = self.deploy.client_ibis
        procs = []
        for pilot in self.pilots.values():
            if pilot.proxy_ibis is None or \
                    getattr(pilot, "send_port", None) is not None:
                continue

            def _connect(pilot=pilot):
                port = client.create_send_port(ONE_TO_ONE_OBJECT)
                yield from port.connect(
                    pilot.proxy_ibis.identifier, "worker-calls"
                )
                pilot.send_port = port
                return port

            procs.append(env.process(_connect()))
        env.run(until=env.now + 60.0)
        return procs

    # -- fault handling --------------------------------------------------------------

    def _on_pilot_death(self, pilot, reason):
        self.fault_log.append(
            (self.jungle.env.now, pilot.role, reason,
             self.fault_policy.value)
        )
        if self.fault_policy is FaultPolicy.RESTART:
            self._restart_pilot(pilot)

    def _restart_pilot(self, dead_pilot):
        """Future-work behaviour: find a replacement resource.

        Prefers a *different* resource with free capacity; falls back
        to resubmitting on the same resource (whose reservation slot
        frees once the kill has been processed).
        """
        role = dead_pilot.role
        needed = dead_pilot.resource.node_count
        candidates = sorted(
            self.resources.values(),
            key=lambda s: s.name == dead_pilot.resource.name,
        )
        for spec in candidates:
            site = self.jungle.sites[spec.site_name]
            suitable = [
                h for h in site.compute_hosts
                if not dead_pilot.resource.needs_gpu or h.has_gpu
            ]
            if len(suitable) < needed:
                continue
            slots = site.middleware().slots
            free = slots.capacity - slots.in_use
            if spec.name != dead_pilot.resource.name and free < needed:
                continue
            self.new_pilot(
                role, spec.name, node_count=needed,
                needs_gpu=dead_pilot.resource.needs_gpu,
            )
            return self.pilots[role]
        return None

    def check_alive(self):
        """Raise per the RAISE policy when any pilot has died."""
        for pilot in self.pilots.values():
            if not pilot.alive:
                if self.fault_policy is FaultPolicy.RAISE:
                    raise WorkerDiedError(
                        f"worker {pilot.role} on "
                        f"{pilot.resource.name} disappeared; the "
                        "simulation crashes (paper Sec. 5 behaviour)"
                    )
                return False
        return True

    # -- cost-model integration ----------------------------------------------------------

    def placement(self, channel="ibis"):
        """Build the cost-model placement from the live pilots."""
        placement = Placement(coupler_host=self.client_host)
        for role, pilot in self.pilots.items():
            host = pilot.hosts[0] if pilot.hosts else \
                self.jungle.sites[pilot.resource.site_name].frontend
            placement.assign(
                role, host,
                nodes=pilot.resource.node_count
                if pilot.deploy_job.gat_job.description.node_count > 1
                else 1,
                channel=channel,
            )
        return placement

    def monitor(self):
        return self.deploy.monitor

    def stop(self):
        self.deploy.cancel_all()


class JungleRunner:
    """Real physics + modeled time (DESIGN.md "execution planes").

    Wraps an :class:`~repro.coupling.embedded.EmbeddedClusterSimulation`
    (small N, real numerics, direct channels) and a
    :class:`DistributedAmuse` placement; each iteration runs the real
    coupled step and advances the jungle clock by the cost model's
    per-iteration estimate, so monitoring/traffic/timing come out
    paper-shaped while the physics output stays real.

    Concurrency-aware accounting (paper Sec. 6.2): a wrapped
    simulation's :class:`~repro.coupling.bridge.Bridge` runs every step
    as a TaskGraph, so its iterations charge the schedule's CRITICAL
    PATH — per-model kick→drift→kick chains joined per edge
    (``schedule="dag"``).  Without a simulation (``None``: modeled
    time only) the runner charges the paper's prototype, a kick
    barrier plus ``sum()`` over sequentially issued drifts
    (``schedule="barrier"``).
    """

    def __init__(self, simulation, damuse, workload=None):
        self.simulation = simulation
        self.damuse = damuse
        self.workload = workload or IterationWorkload()
        self.cost_model = CostModel(damuse.jungle)
        self.iteration_costs = []

    def run_iteration(self):
        """One outer iteration; returns the cost breakdown."""
        self.damuse.check_alive()
        schedule = "barrier"
        if self.simulation is not None:
            self.simulation.evolve_one_iteration()
            schedule = "dag"
        costs = self.cost_model.iteration_time(
            self.workload, self.damuse.placement(), schedule=schedule,
        )
        env = self.damuse.jungle.env
        env.run(until=env.now + costs["total_s"])
        self.iteration_costs.append(costs)
        return costs

    def run(self, n_iterations):
        for _ in range(int(n_iterations)):
            self.run_iteration()
        return self.summary()

    @property
    def modeled_elapsed_s(self):
        return sum(c["total_s"] for c in self.iteration_costs)

    def summary(self):
        n = len(self.iteration_costs)
        per_iter = self.modeled_elapsed_s / n if n else 0.0
        return {
            "iterations": n,
            "modeled_total_s": self.modeled_elapsed_s,
            "modeled_s_per_iteration": per_iter,
            "last_breakdown": (
                self.iteration_costs[-1] if n else None
            ),
        }
