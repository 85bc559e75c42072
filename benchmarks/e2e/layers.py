"""Per-layer measurements, taken from outside: each times calls into a
layer's public functions at the workloads' sizes (layer = module name).

These do not depend on the workload; every ``--trace 1`` run repeats
all of them, so each reports the median of as many calls as its slice
of time allows (``n`` says how many; at least 10, at most 30 —
microsecond-scale calls are timed in batches).  README.md says which
end-to-end cell each is expected to move.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import threading
import time

import numpy as np

import check
from stats import percentile

#: sizes the workloads use (before ``scale``)
N_STARS, N_GAS, N_SMALL, N_BULK = 96, 256, 32, 200_000
BULK_ECHO_WORDS = 1 << 21           # 16 MiB of float64
BULK_ECHOES = 10


class Recorder(dict):
    def put(self, name, value, unit, n=1):
        self[name] = {"value": float(value), "unit": unit, "n": int(n)}

    def timed(self, name, unit, fn, budget_s=0.15, inner=1,
              min_n=10, max_n=30):
        """Median duration of ``fn()`` in *unit* (us/ms/s); returns the
        median in seconds."""
        samples = []
        deadline = time.perf_counter() + budget_s
        while len(samples) < min_n or (
            len(samples) < max_n and time.perf_counter() < deadline
        ):
            start = time.perf_counter()
            for _ in range(inner):
                fn()
            samples.append((time.perf_counter() - start) / inner)
        median = statistics.median(samples)
        if name:
            per = {"us": 1e6, "ms": 1e3, "s": 1.0}[unit]
            self.put(name, median * per, unit, len(samples) * inner)
        return median


def _plummer(n, seed, do_scale=True):
    from repro.ic import new_plummer_model

    stars = new_plummer_model(n, rng=seed, do_scale=do_scale)
    return (stars.mass.number, stars.position.number,
            stars.velocity.number)


# -- units / datamodel ------------------------------------------------------


def units_and_datamodel(rec, n_bulk, seed):
    from repro.datamodel import Particles
    from repro.units import nbody as nbody_system
    from repro.units import units as u
    from repro.units.core import Quantity

    conv = nbody_system.nbody_to_si(
        Quantity(1000.0, u.MSun), Quantity(1.0, u.parsec)
    )
    scalar = Quantity(1.5, u.parsec)
    rec.timed("units.convert_scalar_us", "us",
              lambda: conv.to_si(conv.to_nbody(scalar)), inner=200)
    rec.timed("units.conversion_factor_us", "us",
              lambda: u.parsec.conversion_factor_to(u.m), inner=1000)
    points = np.random.default_rng(seed).normal(size=(n_bulk, 3))
    array = Quantity(points, u.parsec)
    rec.timed("units.convert_array_ms", "ms",
              lambda: conv.to_si(conv.to_nbody(array)))

    particles = Particles(n_bulk)
    particles.position = array

    def set_position():
        particles.position = array

    rec.timed("datamodel.set_vector_attr_ms", "ms", set_position)
    rec.timed("datamodel.get_vector_attr_ms", "ms",
              lambda: particles.position)


# -- kernels ----------------------------------------------------------------


def kernels(rec, n_stars, n_gas, seed):
    from repro.codes import kernels as k
    from repro.codes.gadget import GadgetInterface, sph_state_arrays

    mass, pos, vel = _plummer(n_stars, seed)
    t = rec.timed("kernels.direct_acc_jerk_us", "us",
                  lambda: k.direct_acc_jerk(pos, vel, mass, 1e-4),
                  inner=5)
    rec.put("kernels.direct_pairs_per_s", n_stars ** 2 / t, "1/s")

    gmass, gpos, gvel = _plummer(n_gas, seed + 1)
    rec.timed("kernels.octree_build_ms", "ms",
              lambda: k.Octree(gpos, gmass))
    tree = k.Octree(gpos, gmass)
    rec.put("kernels.octree_nodes", len(tree.nodes), "count")
    rec.timed("kernels.octree_walk_ms", "ms",
              lambda: tree.accelerations(theta=0.6, eps2=1e-4))
    exact = k.direct_acceleration(gpos, gmass, eps2=1e-4)
    approx = tree.accelerations(theta=0.6, eps2=1e-4)
    err = np.sqrt(
        ((approx - exact) ** 2).sum() / (exact ** 2).sum()
    )
    rec.put("kernels.octree_rms_rel_err", err, "ratio")

    p = {name: default
         for name, (default, _doc) in GadgetInterface.PARAMETERS.items()}
    u = np.full(n_gas, 0.05)
    rec.timed("kernels.sph_state_ms", "ms", lambda: sph_state_arrays(
        gpos, gvel, gmass, u, 16, p["gamma"], p["alpha_visc"],
        p["beta_visc"], p["eps2"], p["theta"], p["self_gravity"],
    ))
    return [check.check(
        "kernels.octree_rms_rel_err",
        err <= check.OCTREE_RMS_REL_ERR_MAX,
        f"tree vs direct rms relative error {err:.3g} at theta 0.6",
    )]


# -- codes (interfaces in-process, no channel) ------------------------------


def codes(rec, n_stars, n_gas, n_bulk, seed):
    from repro.codes import (
        FiInterface, GadgetInterface, PhiGRAPEInterface, SSEInterface,
    )

    mass, pos, vel = _plummer(n_stars, seed)
    gmass, gpos, gvel = _plummer(n_gas, seed + 1)
    span = 1.0 / 16.0       # N-body time per evolve (Gadget's max_dt)

    grav = PhiGRAPEInterface(eps2=1e-4, eta=0.05)
    grav.new_particle(mass, *pos.T, *vel.T)
    grav.ensure_state("RUN")

    def evolve(code):
        code.evolve_model(code.model_time + span)

    gravity_s = rec.timed("codes.phigrape_evolve_ms", "ms",
                          lambda: evolve(grav), budget_s=0.4)
    hydro = GadgetInterface(n_neighbours=16, max_dt=span)
    hydro.new_particle(gmass, *gpos.T, *gvel.T, np.full(n_gas, 0.05))
    hydro.ensure_state("RUN")
    hydro_s = rec.timed("codes.gadget_evolve_ms", "ms",
                        lambda: evolve(hydro), budget_s=0.4)
    rec.put("coupling.overlap_floor",
            max(gravity_s, hydro_s) / (gravity_s + hydro_s), "ratio")

    field = FiInterface(eps2=1e-4)

    def field_query(src_mass, src_pos, points):
        field.load_field_particles(src_mass, src_pos)
        field.get_gravity_at_point(0.0, points)

    rec.timed("codes.fi_field_gas_on_stars_ms", "ms",
              lambda: field_query(gmass, gpos, pos), budget_s=0.4)
    rec.timed("codes.fi_field_stars_on_gas_ms", "ms",
              lambda: field_query(mass, pos, gpos), budget_s=0.4)

    rng = np.random.default_rng(seed)
    stellar = SSEInterface()
    stellar.new_particle(rng.uniform(5.0, 100.0, n_stars))
    stellar.ensure_state("RUN")
    rec.timed("codes.sse_evolve_us", "us",
              lambda: stellar.evolve_model(stellar.model_time + 0.4))

    # (rescaling to virial units is O(N^2))
    bmass, bpos, bvel = _plummer(n_bulk, seed + 2, do_scale=False)
    bulk = PhiGRAPEInterface()
    ids = bulk.new_particle(bmass, *bpos.T, *bvel.T)
    rec.timed("codes.storage_rows_ms", "ms",
              lambda: bulk.storage.rows(ids))
    getters = [
        rec.timed(name, "ms", lambda fn=fn: fn(ids))
        for name, fn in ((None, bulk.get_mass),
                         ("codes.get_position_ms", bulk.get_position),
                         (None, bulk.get_velocity))
    ]
    setters = [
        rec.timed(name, "ms", lambda fn=fn, arg=arg: fn(ids, arg))
        for name, fn, arg in ((None, bulk.set_mass, bmass),
                              ("codes.set_position_ms",
                               bulk.set_position, bpos),
                              (None, bulk.set_velocity, bvel))
    ]
    rec.timed("codes.add_velocity_ms", "ms",
              lambda: bulk.add_velocity(ids, bvel))
    return sum(getters), sum(setters)


# -- highlevel on the direct channel ----------------------------------------


def highlevel(rec, n_small, n_bulk, seed, getters_s, setters_s):
    from repro.codes import PhiGRAPE
    from repro.ic import new_plummer_model
    from repro.units import nbody as nbody_system
    from repro.units.core import Quantity

    rng = np.random.default_rng(seed)
    bulk = PhiGRAPE()
    bulk.add_particles(new_plummer_model(n_bulk, rng=rng, do_scale=False))
    delta = Quantity(
        rng.normal(scale=1e-6, size=(n_bulk, 3)), nbody_system.speed
    )
    pull_s = rec.timed("highlevel.pull_ms", "ms", bulk.pull_state)
    push_s = rec.timed("highlevel.push_ms", "ms", bulk.push_state)
    rec.timed("highlevel.kick_ms", "ms", lambda: bulk.kick(delta))
    rec.put("highlevel.pull_over_interface", pull_s / getters_s, "ratio")
    rec.put("highlevel.push_over_interface", push_s / setters_s, "ratio")
    bulk.stop()

    small = PhiGRAPE(eps2=1e-2)
    small.add_particles(new_plummer_model(n_small, rng=rng))
    small.commit_particles()
    dv = Quantity(np.zeros((n_small, 3)), nbody_system.speed)
    eps = Quantity(0.0, nbody_system.length)
    points = small.particles.position
    rec.timed("highlevel.small_kick_us", "us",
              lambda: small.kick(dv), inner=20)
    rec.timed("highlevel.small_field_query_us", "us",
              lambda: small.get_gravity_at_point(eps, points), inner=20)
    small.stop()


# -- rpc.protocol -----------------------------------------------------------


def protocol(rec, n_small, n_bulk, seed):
    from repro.rpc.protocol import decode_payload, encode_frame_v2

    rng = np.random.default_rng(seed)
    for label, n, unit, inner in (("small", n_small, "us", 50),
                                  ("bulk", n_bulk, "ms", 1)):
        message = ("call", 7, "add_velocity",
                   (np.arange(n), rng.normal(size=(n, 3))), {})
        rec.timed(f"protocol.encode_{label}_{unit}", unit,
                  lambda message=message: encode_frame_v2(message),
                  inner=inner)
        _head, meta, *buffers = encode_frame_v2(message)
        rec.timed(f"protocol.decode_{label}_{unit}", unit,
                  lambda meta=meta, buffers=buffers:
                  decode_payload(meta, buffers), inner=inner)
        if label == "small":
            rec.put("protocol.small_frame_bytes",
                    sum(len(part) for part in encode_frame_v2(message)),
                    "B")


# -- rpc.channel ------------------------------------------------------------


def _call_latencies(channel, calls):
    channel.call("echo", 1.0)
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        channel.call("echo", 1.0)
        samples.append(time.perf_counter() - start)
    return samples


def _bulk_gbit_s(rec, channel, payload):
    """Two-way echo throughput, median of BULK_ECHOES after a warm-up."""
    channel.call("echo", payload)
    seconds = rec.timed(None, "s", lambda: channel.call("echo", payload),
                        budget_s=0.0, min_n=BULK_ECHOES)
    return 2 * payload.nbytes * 8 / seconds / 1e9


def rpc_channels(rec, scale):
    """Loopback figures, all of them: one host, no network."""
    from repro.codes.testing import ArrayEchoInterface
    from repro.rpc import new_channel

    payload = np.arange(int(BULK_ECHO_WORDS * scale), dtype=np.float64)
    calls = max(200, int(2000 * scale))
    out = {}
    for kind in ("sockets", "subprocess", "shm"):
        channel = new_channel(kind, ArrayEchoInterface)
        try:
            samples = _call_latencies(
                channel, calls if kind == "sockets" else calls // 4
            )
            rec.put(f"rpc.call_p50_us.{kind}",
                    statistics.median(samples) * 1e6, "us", len(samples))
            if kind == "sockets":
                rec.put("rpc.call_p99_us.sockets",
                        percentile(samples, 99) * 1e6, "us", len(samples))

                def sequential():
                    for _ in range(16):
                        channel.call("echo", 1.0)

                def batched():
                    with channel.batch():
                        requests = [channel.async_call("echo", 1.0)
                                    for _ in range(16)]
                    for request in requests:
                        request.result()

                rec.put("rpc.batch16_speedup",
                        rec.timed(None, "us", sequential)
                        / rec.timed(None, "us", batched), "ratio")
            out[kind] = _bulk_gbit_s(rec, channel, payload)
            rec.put(f"rpc.bulk_gbit_s.{kind}", out[kind], "Gbit/s",
                    BULK_ECHOES)
            out[f"call.{kind}"] = statistics.median(samples)
        finally:
            channel.stop()
    return out


# -- rpc.taskgraph ----------------------------------------------------------


def taskgraph(rec):
    from repro.rpc import Future, TaskGraph

    def noop():
        return None

    def run(chained):
        graph = TaskGraph()
        previous = None
        for index in range(64):
            node = graph.add(
                f"n{index}", lambda: Future.submit(noop),
                after=[previous] if chained and previous else (),
            )
            previous = node
        graph.run()

    for name, chained in (("taskgraph.node_overhead_us", True),
                          ("taskgraph.fanout_overhead_us", False)):
        per_graph = rec.timed(None, "us", lambda: run(chained))
        rec.put(name, per_graph / 64 * 1e6, "us", 64)


# -- distributed ------------------------------------------------------------


def warm_spawn_and_shutdown(rec):
    """On a daemon of their own, so that the shutdown ends one session
    with one pilot: what every ``jungle`` script does last."""
    from repro.codes.testing import ArrayEchoInterface
    from repro.distributed import IbisDaemon, connect

    before = set(threading.enumerate())
    daemon = IbisDaemon(warm_pool=1)
    daemon.start()
    daemon.warm_pool.ready(1, timeout=60)
    with connect(daemon, relay=True, name="bench-layers-warm") as session:
        start = time.perf_counter()
        pilot = session.code(ArrayEchoInterface, channel_type="subprocess")
        pilot.call("echo", 1.0)
        rec.put("distributed.spawn_warm_s",
                time.perf_counter() - start, "s")
    start = time.perf_counter()
    daemon.shutdown()
    rec.put("distributed.shutdown_s", time.perf_counter() - start, "s")
    rec.put("distributed.leaked_threads", sum(
        thread not in before
        and check.DAEMON_THREAD.fullmatch(thread.name) is not None
        for thread in threading.enumerate()
    ), "count")


def distributed(rec, daemon, scale, direct):
    from repro.codes.testing import ArrayEchoInterface
    from repro.distributed import connect

    payload = np.arange(int(BULK_ECHO_WORDS * scale), dtype=np.float64)
    calls = max(100, int(500 * scale))
    start = time.perf_counter()
    relay = connect(daemon, relay=True, name="bench-layers-relay")
    rec.put("distributed.session_open_ms",
            (time.perf_counter() - start) * 1e3, "ms")
    start = time.perf_counter()
    pilot = relay.code(ArrayEchoInterface, channel_type="subprocess")
    pilot.call("echo", 1.0)
    rec.put("distributed.spawn_cold_s", time.perf_counter() - start, "s")
    relay_s = statistics.median(_call_latencies(pilot, calls))
    rec.put("distributed.relay_call_p50_us", relay_s * 1e6, "us", calls)
    rec.put("distributed.hop_us",
            (relay_s - direct["call.subprocess"]) * 1e6, "us")
    rec.put("distributed.relay_bulk_over_direct",
            _bulk_gbit_s(rec, pilot, payload) / direct["sockets"], "ratio")
    relay.close()

    with connect(daemon, name="bench-layers-decoded") as decoded:
        pilot = decoded.code(ArrayEchoInterface, channel_type="subprocess")
        rec.put("distributed.decoded_call_p50_us",
                statistics.median(_call_latencies(pilot, calls)) * 1e6,
                "us", calls)


# -- coupling ---------------------------------------------------------------


def coupling(rec, scale, seed):
    """The bridge_chatty step with zero wire: coupler + highlevel +
    units on the direct channel."""
    from workloads import BridgeChatty

    workload = BridgeChatty("direct", seed, scale)
    workload.setup()
    calls = [0]
    for channel in workload.channels():
        call = channel.call

        def counted(*args, _call=call, **kwargs):
            calls[0] += 1
            return _call(*args, **kwargs)

        channel.call = counted
    workload.op()
    rec.put("coupling.calls_per_step", calls[0], "count")
    for channel in workload.channels():
        del channel.call
    rec.timed("coupling.step_direct_ms", "ms", workload.op,
              budget_s=0.5, max_n=200)
    workload.placement.stop_codes()


# -- ensemble ---------------------------------------------------------------


def ensemble(rec, daemon, work_dir):
    """The campaign figure: embedded members over two sessions of
    subprocess pilots, cold, then resubmitted against the cache."""
    from repro.distributed import connect
    from repro.ensemble import CampaignRunner, CampaignSpec, ResultCache

    members = 4
    spec = CampaignSpec.sweep(
        "bench-e2e", "embedded", seeds=range(members),
        base={"n_stars": 8, "n_gas": 32, "n_iterations": 1},
    )
    cache_dir = tempfile.mkdtemp(prefix="ensemble-cache-", dir=work_dir)
    try:
        cache = ResultCache(cache_dir)

        def campaign():
            sessions = [connect(daemon, name=f"bench-ensemble-{i}")
                        for i in range(2)]
            try:
                return CampaignRunner(
                    spec, sessions=sessions, cache=cache,
                    worker_mode="subprocess", max_inflight=2,
                ).run(timeout=120)
            finally:
                for session in sessions:
                    session.close()

        cold = campaign()
        warm = campaign()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    rec.put("ensemble.members_per_min_cold",
            60.0 * cold.completed / cold.wall_s, "1/min", members)
    rec.put("ensemble.cached_resubmit_ms", warm.wall_s * 1e3, "ms")
    rec.put("ensemble.cache_hit_ratio", warm.cached / members, "ratio",
            members)
    return [
        check.check("ensemble.cold_completed", cold.completed == members,
                    cold.summary_line()),
    ]


def measure_all(scale, seed, work_dir):
    """``{"metrics": {...}, "checks": [...]}``"""
    from repro.distributed import IbisDaemon
    from workloads import force_imports

    force_imports()
    n_stars = max(8, round(N_STARS * scale))
    n_gas = max(32, round(N_GAS * scale))
    n_small = max(8, round(N_SMALL * scale))
    n_bulk = round(N_BULK * scale)
    rec = Recorder()
    direct = rpc_channels(rec, scale)
    # every session below stops its own pilots; this daemon's threads
    # end with the process (its shutdown would block for seconds per
    # link it served; warm_spawn_and_shutdown times one)
    daemon = IbisDaemon()
    daemon.start()
    distributed(rec, daemon, scale, direct)
    checks = ensemble(rec, daemon, work_dir)
    units_and_datamodel(rec, n_bulk, seed)
    checks += kernels(rec, n_stars, n_gas, seed)
    getters_s, setters_s = codes(rec, n_stars, n_gas, n_bulk, seed)
    highlevel(rec, n_small, n_bulk, seed, getters_s, setters_s)
    protocol(rec, n_small, n_bulk, seed)
    taskgraph(rec)
    coupling(rec, scale, seed)
    warm_spawn_and_shutdown(rec)
    return {"metrics": rec, "checks": checks}
