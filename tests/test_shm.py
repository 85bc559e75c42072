"""Tests for the shm channel, its arena allocator, and the negotiated
per-buffer compression.

Covers the :class:`~repro.rpc.shm.ShmArena` free-list allocator, the
shm channel in both worker modes (thread and subprocess), graceful
degradation when the arena is exhausted, the hello capability
negotiation matrix (unattachable segments, no common codec, unknown
capabilities), segment lifecycle (no leaked ``/dev/shm`` entries after
stop, peer death, or terminate/kill escalation), compression
negotiation and thresholds, the daemon's shm pilot mode and the
``new_channel`` kwarg validation over the new options.
"""

import functools
import os
import signal
import time
import warnings as warnings_mod

import numpy as np
import pytest

from repro.codes.testing import (
    ArrayEchoInterface,
    SleepInterface,
    WedgedStopInterface,
)
from repro.distributed import DistributedChannel, IbisDaemon
from repro.rpc import ConnectionLostError, ProtocolError, new_channel
from repro.rpc import protocol as protocol_mod
from repro.rpc.channel import StreamChannel
from repro.rpc.protocol import WireState, accept_capabilities
from repro.rpc.shm import ShmArena, ShmChannel
from repro.rpc.subproc import SubprocessChannel

pytestmark = pytest.mark.network

FAST = {"stop_timeout": 5.0, "kill_timeout": 5.0}


def segment_paths(channel):
    """The /dev/shm paths behind a channel's offered segment pair."""
    arenas = channel._shm_arenas or ()
    return [f"/dev/shm/{arena.name.lstrip('/')}" for arena in arenas]


class TestShmArena:
    def test_alloc_write_read_roundtrip(self):
        arena = ShmArena(1 << 20)
        try:
            offset = arena.alloc(1000)
            payload = bytes(range(256)) * 4
            arena.write(offset, payload[:1000])
            assert bytes(arena.read(offset, 1000)) == payload[:1000]
        finally:
            arena.unlink()
            arena.close()

    def test_first_fit_and_exhaustion(self):
        arena = ShmArena(1 << 12)      # 4 KiB
        try:
            a = arena.alloc(1 << 11)   # 2 KiB
            b = arena.alloc(1 << 11)   # fills the segment
            assert a is not None and b is not None
            assert arena.alloc(64) is None
        finally:
            arena.unlink()
            arena.close()

    def test_free_coalesces_adjacent_blocks(self):
        arena = ShmArena(1 << 12)
        try:
            blocks = [arena.alloc(1 << 10) for _ in range(4)]
            assert None not in blocks
            assert arena.alloc(64) is None
            # free out of order; coalescing must rebuild one big hole
            for offset in (blocks[1], blocks[3], blocks[0], blocks[2]):
                arena.free(offset)
            assert arena.allocated_bytes == 0
            assert arena.alloc(1 << 12) == 0
        finally:
            arena.unlink()
            arena.close()

    def test_blocks_are_cacheline_aligned(self):
        arena = ShmArena(1 << 12)
        try:
            a = arena.alloc(1)
            b = arena.alloc(1)
            assert a % 64 == 0 and b % 64 == 0 and b - a == 64
        finally:
            arena.unlink()
            arena.close()

    def test_double_free_is_ignored(self):
        arena = ShmArena(1 << 12)
        try:
            offset = arena.alloc(128)
            arena.free(offset)
            arena.free(offset)     # second free: no corruption
            assert arena.allocated_bytes == 0
        finally:
            arena.unlink()
            arena.close()

    def test_out_of_bounds_read_rejected(self):
        arena = ShmArena(1 << 12)
        try:
            with pytest.raises(ProtocolError, match="out of bounds"):
                arena.read((1 << 12) - 8, 64)
        finally:
            arena.unlink()
            arena.close()

    def test_unlink_and_close_are_idempotent(self):
        arena = ShmArena(1 << 12)
        path = f"/dev/shm/{arena.name.lstrip('/')}"
        assert os.path.exists(path)
        arena.unlink()
        arena.unlink()
        assert not os.path.exists(path)
        arena.close()
        arena.close()
        assert arena.alloc(64) is None   # closed arena allocates nothing

    def test_attach_reads_creator_writes(self):
        creator = ShmArena(1 << 16)
        try:
            offset = creator.alloc(256)
            creator.write(offset, b"x" * 256)
            attached = ShmArena(name=creator.name, create=False)
            try:
                assert bytes(attached.read(offset, 256)) == b"x" * 256
                attached.unlink()      # attached side never owns it
                assert os.path.exists(
                    f"/dev/shm/{creator.name.lstrip('/')}"
                )
            finally:
                attached.close()
        finally:
            creator.unlink()
            creator.close()


@pytest.fixture(params=["thread", "subprocess"])
def shm_channel(request):
    ch = new_channel(
        "shm", ArrayEchoInterface, worker_mode=request.param,
    )
    yield ch
    try:
        ch.stop()
    except ProtocolError:
        pass


class TestShmChannel:
    def test_negotiates_shm(self, shm_channel):
        assert shm_channel.wire_caps.get("shm") is True
        assert shm_channel.transport_stats["shm"]

    def test_large_arrays_bypass_the_socket(self, shm_channel):
        array = np.arange(1 << 17, dtype=np.float64)   # 1 MiB
        out = shm_channel.call("scale", array, 2.0)
        assert np.array_equal(out, array * 2.0)
        stats = shm_channel.transport_stats
        assert stats["shm_buffer_bytes"] >= array.nbytes
        assert stats["wire_buffer_bytes"] == 0

    def test_received_arrays_are_writable(self, shm_channel):
        out = shm_channel.call(
            "echo", np.arange(1 << 17, dtype=np.float64)
        )
        out[0] = -1.0
        assert out[0] == -1.0

    def test_small_payloads_stay_inline(self, shm_channel):
        assert shm_channel.call("echo", b"tiny") == b"tiny"
        assert shm_channel.transport_stats["shm_buffer_bytes"] == 0

    def test_piggybacked_frees_recycle_the_arena(self, shm_channel):
        array = np.zeros(1 << 17, dtype=np.float64)
        for _ in range(32):
            shm_channel.call("echo", array)
        # one extra round trip flushes the last piggybacked free list
        shm_channel.call("echo", b"flush")
        tx, rx = shm_channel._shm_arenas
        assert tx.allocated_bytes == 0

    def test_batch_and_async_over_shm(self, shm_channel):
        arrays = [
            np.full(1 << 15, float(i), dtype=np.float64)
            for i in range(4)
        ]
        with shm_channel.batch():
            requests = [
                shm_channel.async_call("checksum", a) for a in arrays
            ]
        for i, req in enumerate(requests):
            assert req.result(timeout=10) == float(i) * (1 << 15)

    def test_stop_unlinks_segments(self):
        ch = new_channel("shm", ArrayEchoInterface)
        paths = segment_paths(ch)
        assert len(paths) == 2 and all(os.path.exists(p) for p in paths)
        ch.call("echo", np.zeros(1 << 17))
        ch.stop()
        assert not any(os.path.exists(p) for p in paths)

    def test_arena_exhaustion_falls_back_to_inline(self):
        # 1 MiB segment, 4 MiB payload: cannot fit, must go inline
        ch = ShmChannel(
            ArrayEchoInterface, segment_size=1 << 20, shm_min=1 << 12,
        )
        try:
            big = np.arange(1 << 19, dtype=np.float64)
            out = ch.call("echo", big)
            assert np.array_equal(out, big)
            assert ch.transport_stats["wire_buffer_bytes"] >= big.nbytes
        finally:
            ch.stop()

    def test_overcommitted_async_burst_stays_correct(self):
        # eight in-flight 256 KiB payloads against a 512 KiB arena:
        # some travel via shm, the overflow inline, results identical
        ch = ShmChannel(
            ArrayEchoInterface, segment_size=1 << 19, shm_min=1 << 12,
        )
        try:
            arrays = [
                np.full(1 << 15, float(i)) for i in range(8)
            ]
            requests = [ch.async_call("echo", a) for a in arrays]
            for sent, req in zip(arrays, requests, strict=True):
                assert np.array_equal(req.result(timeout=10), sent)
        finally:
            ch.stop()

    @pytest.mark.parametrize("worker_mode", ["thread", "subprocess"])
    def test_custom_shm_min_honoured_on_both_sides(self, worker_mode):
        # regression: the SENDING side must apply the configured
        # threshold too (the subprocess channel once only shipped it
        # to the worker via caps, leaving its own side at the default)
        ch = ShmChannel(
            ArrayEchoInterface, worker_mode=worker_mode, shm_min=256,
        )
        try:
            small = np.arange(512, dtype=np.float64)   # 4 KiB
            out = ch.call("echo", small)
            assert np.array_equal(out, small)
            assert ch.transport_stats["shm_buffer_bytes"] >= \
                small.nbytes
        finally:
            ch.stop()

    def test_unknown_worker_mode_rejected(self):
        with pytest.raises(ValueError, match="worker mode"):
            ShmChannel(ArrayEchoInterface, worker_mode="carrier-pigeon")


def _refuse_attach(*_args, **_kwargs):
    raise FileNotFoundError("segments live on another host")


def _offer_missing_segments(monkeypatch):
    """Offer segment names the peer cannot find — what a worker on
    another host sees — while this side still creates (and must
    release) the real pair."""
    original = StreamChannel._offer_capabilities

    def offer(self, *args, **kwargs):
        caps = original(self, *args, **kwargs)
        if "shm" in caps:
            caps["shm"] = dict(caps["shm"], c2w="psm_gone_a",
                               w2c="psm_gone_b")
        return caps

    monkeypatch.setattr(StreamChannel, "_offer_capabilities", offer)


class TestCapabilityNegotiation:
    """The hello downgrades that happen on real deployments: segments
    the peer cannot attach, no common codec."""

    def test_plain_v2_thread_peer_downgrades_cleanly(self, monkeypatch):
        # the in-process worker cannot attach the offered segments
        monkeypatch.setattr(
            "repro.rpc.shm.attach_peer_arenas", _refuse_attach
        )
        before_names = set(os.listdir("/dev/shm"))
        ch = new_channel("shm", ArrayEchoInterface)
        try:
            assert "shm" not in ch.wire_caps
            assert ch._shm_arenas is None     # segments released
            assert set(os.listdir("/dev/shm")) <= before_names
            array = np.arange(1 << 17, dtype=np.float64)   # 1 MiB
            assert np.array_equal(ch.call("echo", array), array)
            assert ch.transport_stats["shm_buffer_bytes"] == 0
            assert ch.transport_stats["wire_buffer_bytes"] >= \
                array.nbytes
        finally:
            ch.stop()

    def test_plain_v2_subprocess_peer_downgrades_cleanly(
            self, monkeypatch):
        _offer_missing_segments(monkeypatch)
        ch = new_channel(
            "shm", ArrayEchoInterface, worker_mode="subprocess",
        )
        try:
            assert "shm" not in ch.wire_caps
            assert ch._shm_arenas is None
            array = np.arange(1 << 17, dtype=np.float64)
            assert np.array_equal(ch.call("echo", array), array)
        finally:
            ch.stop()

    def test_compression_offer_against_plain_v2_peer(self, monkeypatch):
        # the worker can load none of the offered codecs
        monkeypatch.setattr(
            protocol_mod, "negotiate_codec", lambda offered: None
        )
        ch = new_channel("sockets", ArrayEchoInterface, compress=True)
        try:
            assert "compress" not in ch.wire_caps
            assert ch.transport_stats["codec"] is None
            comp = np.zeros(1 << 16)
            assert np.array_equal(ch.call("echo", comp), comp)
        finally:
            ch.stop()

    def test_downgraded_offer_leaves_no_segments(self, monkeypatch):
        monkeypatch.setattr(
            "repro.rpc.shm.attach_peer_arenas", _refuse_attach
        )
        before_names = set(os.listdir("/dev/shm"))
        ch = new_channel("shm", ArrayEchoInterface)
        ch.stop()
        assert set(os.listdir("/dev/shm")) <= before_names

    def test_unattachable_segments_are_not_acked(self):
        wire = WireState()
        accepted = accept_capabilities(
            {"shm": {"c2w": "psm_no_such_segment",
                     "w2c": "psm_no_such_either"}},
            wire,
        )
        assert "shm" not in accepted
        assert wire.tx_arena is None

    def test_unknown_capabilities_are_ignored(self):
        wire = WireState()
        accepted = accept_capabilities(
            {"quantum-entanglement": True}, wire
        )
        assert accepted == {}

    def test_codec_preference_honours_the_offer_order(self):
        assert protocol_mod.negotiate_codec(["zlib"]) == "zlib"
        assert protocol_mod.negotiate_codec(
            ["made-up-codec", "zlib"]
        ) == "zlib"
        assert protocol_mod.negotiate_codec(["made-up-codec"]) is None


class TestCompression:
    def test_negotiated_and_shrinks_compressible_payloads(self):
        ch = new_channel(
            "sockets", ArrayEchoInterface, compress=True,
            compress_min=1024,
        )
        try:
            assert ch.wire_caps.get("compress") in ("zstd", "lz4",
                                                    "zlib")
            comp = np.zeros(1 << 16, dtype=np.float64)   # 512 KiB
            before = ch.bytes_sent
            out = ch.call("echo", comp)
            assert np.array_equal(out, comp)
            assert ch.bytes_sent - before < comp.nbytes // 4
            stats = ch.transport_stats
            assert stats["wire_buffer_bytes"] < \
                stats["raw_buffer_bytes"]
        finally:
            ch.stop()

    def test_incompressible_payloads_ride_raw(self):
        ch = new_channel(
            "sockets", ArrayEchoInterface, compress=True,
            compress_min=1024,
        )
        try:
            rnd = np.random.default_rng(7).random(1 << 15)
            before = ch.bytes_sent
            out = ch.call("echo", rnd)
            assert np.array_equal(out, rnd)
            # stored raw: wire cost is payload + small framing
            assert ch.bytes_sent - before < rnd.nbytes + 4096
        finally:
            ch.stop()

    def test_below_threshold_payloads_are_not_compressed(self):
        ch = new_channel(
            "sockets", ArrayEchoInterface, compress=True,
            compress_min=1 << 20,
        )
        try:
            comp = np.zeros(1 << 14, dtype=np.float64)  # far below min
            before = ch.bytes_sent
            assert np.array_equal(ch.call("echo", comp), comp)
            assert ch.bytes_sent - before >= comp.nbytes
        finally:
            ch.stop()

    def test_decompressed_arrays_are_writable(self):
        ch = new_channel(
            "sockets", ArrayEchoInterface, compress=True,
            compress_min=1024,
        )
        try:
            out = ch.call("echo", np.zeros(1 << 16))
            out[0] = 42.0
            assert out[0] == 42.0
        finally:
            ch.stop()

    def test_same_host_channels_do_not_offer_compression(self):
        for kind in ("sockets", "subprocess"):
            ch = new_channel(kind, ArrayEchoInterface, **(
                FAST if kind == "subprocess" else {}
            ))
            try:
                assert "compress" not in ch.wire_caps
                assert ch.transport_stats["codec"] is None
            finally:
                ch.stop()

    def test_wan_profile_distributed_channel_negotiates_on(self):
        with IbisDaemon() as daemon:
            wan = DistributedChannel(
                ArrayEchoInterface, daemon=daemon,
                resource="DAS-4 (VU)",
            )
            local = DistributedChannel(
                ArrayEchoInterface, daemon=daemon, resource="local",
            )
            try:
                assert wan.transport_stats["codec"] is not None
                assert local.transport_stats["codec"] is None
                comp = np.zeros(1 << 16, dtype=np.float64)
                before = wan.bytes_sent
                assert np.array_equal(wan.echo(comp), comp)
                assert wan.bytes_sent - before < comp.nbytes // 4
            finally:
                wan.stop()
                local.stop()

    def test_unknown_codec_name_rejected_eagerly(self):
        with pytest.raises(ValueError, match="not available"):
            new_channel(
                "sockets", ArrayEchoInterface,
                compress="middle-out",
            )


class TestPeerDeath:
    def test_killed_shm_peer_raises_and_unlinks(self):
        ch = ShmChannel(
            functools.partial(SleepInterface, cost_s=30.0),
            worker_mode="subprocess", **FAST,
        )
        paths = segment_paths(ch)
        assert all(os.path.exists(p) for p in paths)
        request = ch.async_call("evolve_model", 1.0)
        time.sleep(0.2)
        os.kill(ch.pid, signal.SIGKILL)
        with pytest.raises(ConnectionLostError) as excinfo:
            request.result(timeout=15)
        assert excinfo.value.returncode == -signal.SIGKILL
        # the loss path already removed the names — no /dev/shm leak
        # even before stop() runs
        assert not any(os.path.exists(p) for p in paths)
        with pytest.raises(ConnectionLostError):
            ch.stop()
        ch.stop()      # idempotent afterwards
        assert not any(os.path.exists(p) for p in paths)

    def test_escalated_stop_unlinks_segments(self):
        ch = ShmChannel(
            functools.partial(WedgedStopInterface, wedge_s=30.0),
            worker_mode="subprocess", stop_timeout=0.5,
            kill_timeout=5.0,
        )
        paths = segment_paths(ch)
        assert all(os.path.exists(p) for p in paths)
        with pytest.warns(RuntimeWarning, match="escalated"):
            ch.stop()
        assert not any(os.path.exists(p) for p in paths)

    def test_thread_mode_stop_unlinks_segments(self):
        ch = ShmChannel(ArrayEchoInterface)
        paths = segment_paths(ch)
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            ch.stop()
        assert not any(os.path.exists(p) for p in paths)


class TestDaemonShmPilots:
    def test_shm_pilot_mode(self):
        with IbisDaemon() as daemon:
            ch = DistributedChannel(
                ArrayEchoInterface, daemon=daemon, worker_mode="shm",
            )
            try:
                meta = ch._request(("list_workers",)).result()
                entry = meta[ch.worker_id]
                assert entry["mode"] == "shm"
                assert entry["pid"] not in (None, os.getpid())
                array = np.arange(1 << 15, dtype=np.float64)
                out = ch.call("scale", array, 2.0)
                assert np.array_equal(out, array * 2.0)
            finally:
                ch.stop()

    def test_daemon_default_shm_mode(self):
        with IbisDaemon(worker_mode="shm") as daemon:
            ch = DistributedChannel(ArrayEchoInterface, daemon=daemon)
            try:
                meta = ch._request(("list_workers",)).result()
                assert meta[ch.worker_id]["mode"] == "shm"
            finally:
                ch.stop()

    def test_unknown_mode_error_names_shm(self):
        with pytest.raises(ValueError, match="shm"):
            IbisDaemon(worker_mode="carrier-pigeon")


class TestKwargValidation:
    """new_channel must vet the new shm/compression kwargs too."""

    def test_shm_factory_rejects_unknown_kwargs(self):
        with pytest.raises(ValueError, match="'shm'.*'bogus'"):
            new_channel("shm", ArrayEchoInterface, bogus=1)

    def test_shm_factory_lists_valid_options(self):
        with pytest.raises(ValueError, match="segment_size"):
            new_channel("shm", ArrayEchoInterface, daemon=object())

    def test_direct_rejects_compression_kwargs(self):
        with pytest.raises(ValueError, match="'direct'.*'compress'"):
            new_channel("direct", ArrayEchoInterface, compress=True)

    def test_sockets_accepts_compression_kwargs(self):
        ch = new_channel(
            "sockets", ArrayEchoInterface, compress=True,
            compress_min=4096,
        )
        try:
            assert ch.wire_caps.get("compress")
        finally:
            ch.stop()

    def test_subprocess_accepts_shm_kwargs(self):
        ch = new_channel(
            "subprocess", ArrayEchoInterface,
            shm_segment_size=1 << 20, **FAST,
        )
        try:
            assert isinstance(ch, SubprocessChannel)
            assert ch.wire_caps.get("shm") is True
        finally:
            ch.stop()
