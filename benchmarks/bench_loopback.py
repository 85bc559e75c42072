"""E2 — the coupler <-> daemon loopback link (paper Sec. 5).

"Benchmarks show that this connection is over 8Gbit/second even on a
modest laptop, has a[n] extremely small latency, and we expect very
little performance issues rising from this extra step in
communication."

These are REAL measurements: frames through a genuine TCP loopback
socket into the daemon and back.  Absolute numbers depend on the host
this runs on; the assertions check the paper's qualitative claims
(multi-Gbit/s throughput, sub-millisecond latency, overhead small
relative to a model call).

Wire protocol v2 moves NumPy payloads as out-of-band buffers
(scatter-gather send, ``recv_into`` receive), so the large-array echo
is the headline number.  Set ``BENCH_QUICK=1`` for the CI smoke run
(fewer rounds, same assertions).
"""

import os
import time

import numpy as np
import pytest

from repro.codes.phigrape import PhiGRAPEInterface
from repro.distributed import DistributedChannel, IbisDaemon

PAYLOAD_BYTES = 4 * 1024 * 1024
QUICK = bool(os.environ.get("BENCH_QUICK"))
ROUNDS = 3 if QUICK else 10
LATENCY_ROUNDS = 50 if QUICK else 200


@pytest.fixture(scope="module")
def channel():
    daemon = IbisDaemon()
    daemon.start()
    ch = DistributedChannel(
        PhiGRAPEInterface, daemon=daemon, resource="local"
    )
    yield ch
    ch.stop()
    daemon.shutdown()


def test_e2_throughput(channel, report, benchmark):
    payload = b"\x00" * PAYLOAD_BYTES

    result = benchmark.pedantic(
        channel.echo, args=(payload,), rounds=ROUNDS, iterations=1,
        warmup_rounds=2,
    )
    assert result == payload
    seconds = benchmark.stats.stats.median
    # one round trip moves the payload twice through the loopback
    gbit_per_s = 2 * PAYLOAD_BYTES * 8 / seconds / 1e9
    report(
        "E2: daemon loopback throughput (paper: >8 Gbit/s)",
        [f"measured {gbit_per_s:.2f} Gbit/s "
         f"({PAYLOAD_BYTES // 2 ** 20} MiB echo, median of {ROUNDS})"],
    )
    assert gbit_per_s > 1.0, "loopback far below the paper's class"


def test_e2_large_array_throughput(channel, report, benchmark):
    """The zero-copy path: a float64 array crosses as one out-of-band
    buffer per direction."""
    payload = np.zeros(PAYLOAD_BYTES // 8, dtype=np.float64)

    result = benchmark.pedantic(
        channel.echo, args=(payload,), rounds=ROUNDS, iterations=1,
        warmup_rounds=2,
    )
    assert np.array_equal(result, payload)
    seconds = benchmark.stats.stats.median
    gbit_per_s = 2 * payload.nbytes * 8 / seconds / 1e9
    report(
        "E2: daemon loopback large-array throughput",
        [f"measured {gbit_per_s:.2f} Gbit/s "
         f"({payload.nbytes // 2 ** 20} MiB float64 echo, "
         f"median of {ROUNDS})"],
    )
    assert gbit_per_s > 1.0, "loopback far below the paper's class"


def test_e2_latency(channel, report, benchmark):
    benchmark.pedantic(
        channel.echo, args=(b"x",), rounds=LATENCY_ROUNDS, iterations=1,
        warmup_rounds=20,
    )
    rtt = benchmark.stats.stats.median
    report(
        "E2: daemon loopback round-trip latency",
        [f"measured {rtt * 1e6:.1f} us (paper: 'extremely small')"],
    )
    assert rtt < 5e-3


def test_e2_batched_calls_beat_sequential(channel, report):
    """Request pipelining: one multi-call frame per sync beats one
    frame per attribute (the coupler's per-sync exchange pattern)."""
    n_calls = 6
    rounds = 20 if QUICK else 100

    def sequential():
        for _ in range(n_calls):
            channel.call("get_model_time")

    def batched():
        with channel.batch():
            reqs = [
                channel.async_call("get_model_time")
                for _ in range(n_calls)
            ]
        for req in reqs:
            req.result()

    for fn in (sequential, batched):  # warmup
        fn()
    t0 = time.perf_counter()
    for _ in range(rounds):
        sequential()
    seq = (time.perf_counter() - t0) / rounds
    t0 = time.perf_counter()
    for _ in range(rounds):
        batched()
    bat = (time.perf_counter() - t0) / rounds
    report(
        "E2: batched vs sequential sync (6 attribute calls)",
        [f"sequential {seq * 1e6:8.1f} us",
         f"batched    {bat * 1e6:8.1f} us "
         f"({seq / bat:.1f}x fewer round trips)"],
    )
    assert bat < seq


def test_e2_overhead_vs_model_call(channel, report):
    """The daemon hop must be negligible next to real model work —
    the paper's argument for the extra communication step."""
    n = 400
    rng = np.random.default_rng(0)
    pos = rng.normal(size=(n, 3))
    vel = rng.normal(size=(n, 3))
    channel.call(
        "new_particle", np.full(n, 1.0 / n),
        pos[:, 0], pos[:, 1], pos[:, 2],
        vel[:, 0], vel[:, 1], vel[:, 2],
    )
    channel.call("ensure_state", "RUN")

    t0 = time.perf_counter()
    channel.call("evolve_model", 0.01)
    model_call = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(10):
        channel.echo(b"x")
    hop = (time.perf_counter() - t0) / 10

    report(
        "E2: daemon hop vs model call",
        [f"hop {hop * 1e3:.3f} ms vs evolve {model_call * 1e3:.1f} ms "
         f"({hop / model_call:.1%} overhead)"],
    )
    assert hop < model_call / 10
