"""Distributed AMUSE tests: daemon, ibis channel, pilots, faults."""

import glob
import os
import pickle
import re
import socket
import threading
import time
from multiprocessing import resource_tracker

import pytest

import repro.distributed.daemon as daemon_mod
from repro.codes import PhiGRAPE
from repro.codes.testing import ArrayEchoInterface
from repro.codes.phigrape import PhiGRAPEInterface
from repro.distributed import (
    DistributedAmuse,
    DistributedChannel,
    FaultPolicy,
    IbisDaemon,
    JungleRunner,
    ResourceSpec,
    WorkerDiedError,
    connect,
)
from repro.ic import new_plummer_model
from repro.jungle import make_sc11_jungle
from repro.rpc import RemoteError
from repro.rpc.protocol import (
    PROTOCOL_VERSION,
    WireState,
    recv_frame,
    send_frame,
)
from repro.units import nbody_system, units

pytestmark = pytest.mark.network


@pytest.fixture(scope="module")
def daemon():
    d = IbisDaemon()
    d.start()
    yield d
    d.shutdown()


class TestDaemon:
    def test_echo_round_trip(self, daemon):
        ch = DistributedChannel(
            PhiGRAPEInterface, daemon=daemon, resource="local"
        )
        payload = b"x" * 100_000
        assert ch.echo(payload) == payload
        ch.stop()

    def test_start_worker_and_call(self, daemon):
        ch = DistributedChannel(
            PhiGRAPEInterface, daemon=daemon, resource="LGM"
        )
        ids = ch.call(
            "new_particle", [1.0], [0.0], [0.0], [0.0],
            [0.0], [0.0], [0.0],
        )
        assert len(ids) == 1
        assert ch.call("get_number_of_particles") == 1
        ch.stop()

    def test_worker_metadata(self, daemon):
        ch = DistributedChannel(
            PhiGRAPEInterface, daemon=daemon, resource="VU",
            node_count=4,
        )
        workers = ch._request(("list_workers",)).result()
        meta = workers[ch.worker_id]
        assert meta["resource"] == "VU"
        assert meta["node_count"] == 4
        assert meta["code"] == "PhiGRAPEInterface"
        ch.stop()

    def test_remote_error_propagates(self, daemon):
        ch = DistributedChannel(
            PhiGRAPEInterface, daemon=daemon
        )
        with pytest.raises(RemoteError):
            ch.call("no_such_method")
        ch.stop()

    def test_stopped_worker_unreachable(self, daemon):
        ch = DistributedChannel(PhiGRAPEInterface, daemon=daemon)
        worker_id = ch.worker_id
        ch.stop()
        ch2 = DistributedChannel(PhiGRAPEInterface, daemon=daemon)
        with pytest.raises(RemoteError):
            ch2._request(
                ("call", worker_id, "get_model_time", (), {})
            ).result()
        ch2.stop()

    def test_channel_requires_daemon(self):
        with pytest.raises(ValueError):
            DistributedChannel(PhiGRAPEInterface)

    def test_short_start_worker_frame_gets_error_reply(self, daemon):
        """start_worker has one shape: a frame missing its mode,
        session and options fields is answered with an error naming
        them, and the connection keeps serving."""
        client = socket.create_connection(daemon.address)
        try:
            send_frame(client, ("hello", 1, PROTOCOL_VERSION, {}))
            assert recv_frame(client)[:2] == ("result", 1)
            send_frame(client, (
                "start_worker", 2, pickle.dumps(PhiGRAPEInterface),
                "local", 1,
            ))
            reply = recv_frame(client)
            assert reply[:3] == ("error", 2, "ProtocolError")
            for field in ("worker_mode", "session_id", "options"):
                assert field in reply[3]
            send_frame(client, ("status", 3))
            kind, req_id, status = recv_frame(client)
            assert (kind, req_id) == ("result", 3)
            assert status["session"]["workers"] == {}
            assert status["session"]["accounting"]["errors"] == 1
        finally:
            client.close()


def _child_pids():
    """Live children of this process, bar multiprocessing's resource
    tracker (started by the first shared-memory segment, it lives as
    long as the process)."""
    pids = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path) as f:
                pids.update(int(pid) for pid in f.read().split())
        except FileNotFoundError:       # that thread just exited
            pass
    pids.discard(resource_tracker._resource_tracker._pid)
    return pids


def _settle(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.02)
    return condition()


#: every pilot: worker mode x data plane (relay or decoded) x warm-pool
#: claim or cold spawn (thread pilots never spawn)
PILOTS = [("thread", relay, False) for relay in (False, True)] + [
    (mode, relay, warm)
    for mode in ("subprocess", "shm")
    for relay in (False, True)
    for warm in (False, True)
]


class TestPilotMatrix:
    @pytest.mark.parametrize(
        "mode,relay,warm", PILOTS,
        ids=[f"{m}-{'relay' if r else 'decoded'}-{'warm' if w else 'cold'}"
             for m, r, w in PILOTS],
    )
    def test_pilot(self, mode, relay, warm):
        with IbisDaemon(warm_pool=1 if warm else 0) as daemon:
            if warm:
                assert daemon.warm_pool.ready(1, timeout=60)
            shm_before = set(os.listdir("/dev/shm"))
            with connect(daemon, relay=relay) as session:
                threads_before = set(threading.enumerate())
                children_before = _child_pids()
                ch = session.code(ArrayEchoInterface, channel_type=mode)
                meta = session._link._request(
                    ("list_workers",)
                ).result(timeout=10)[ch.worker_id]
                assert meta["mode"] == mode
                assert meta["warm"] is warm
                assert meta["relay"] is relay
                assert meta["code"] == "ArrayEchoInterface"
                if mode == "thread":
                    assert meta["pid"] is None
                else:
                    # a warm claim is a child parked before the session
                    assert meta["pid"] in _child_pids()
                assert ch.call("scale", 2.0, 4.0) == 8.0
                assert ch.relayed is relay
                ch.stop()

                def parked():
                    # the pool refills behind a warm claim
                    if daemon.warm_pool is None:
                        return set()
                    return {
                        c.pid for c in list(daemon.warm_pool._idle)
                    }

                assert _settle(lambda: not (
                    _child_pids() - children_before - parked()
                ))

                def new_threads():
                    return {
                        t for t in threading.enumerate()
                        if t not in threads_before
                        and t.name != "subproc-stderr"
                    }

                assert _settle(lambda: not new_threads()), new_threads()
                assert set(os.listdir("/dev/shm")) <= shm_before


class TestFactoryUnpickling:
    """The pilot factory is unpickled only in the process that runs
    it: the daemon for a thread pilot, the child otherwise."""

    @pytest.mark.parametrize("mode", ["thread", "subprocess", "shm"])
    @pytest.mark.parametrize("relay", [False, True])
    def test_daemon_unpickles_only_thread_factories(
        self, daemon, monkeypatch, mode, relay
    ):
        factory_bytes = pickle.dumps(ArrayEchoInterface, protocol=5)
        real_loads = daemon_mod.pickle.loads
        factory_loads = []

        def spy(data, *args, **kwargs):
            if bytes(data) == factory_bytes:
                factory_loads.append(threading.current_thread().name)
            return real_loads(data, *args, **kwargs)

        monkeypatch.setattr(daemon_mod.pickle, "loads", spy)
        with connect(daemon, relay=relay) as session:
            ch = session.code(ArrayEchoInterface, channel_type=mode)
            assert ch.call("scale", 1.5, 2.0) == 3.0
            ch.stop()
        assert len(factory_loads) == (1 if mode == "thread" else 0)

    @pytest.mark.parametrize("mode", ["thread", "subprocess", "shm"])
    @pytest.mark.parametrize("relay", [False, True])
    def test_unpicklable_factory_is_an_error_reply(self, daemon, mode,
                                                   relay):
        children_before = _child_pids()
        client = socket.create_connection(daemon.address)
        try:
            send_frame(client, ("hello", 1, PROTOCOL_VERSION, {}))
            assert recv_frame(client)[:2] == ("result", 1)
            send_frame(client, (
                "start_worker", 2, b"not a pickle", "local", 1, mode,
                None, {"relay": relay},
            ))
            reply = recv_frame(client)
            assert reply[:2] == ("error", 2)
            assert "UnpicklingError" in reply[2] + reply[3]
            send_frame(client, ("status", 3))
            status = recv_frame(client)[2]["session"]
            assert status["workers"] == {}
            assert status["accounting"]["errors"] == 1
        finally:
            client.close()
        assert _settle(lambda: not (_child_pids() - children_before))


    @pytest.mark.parametrize("relay", [False, True])
    def test_failed_factory_on_a_warm_child_is_not_respawned(
        self, monkeypatch, relay
    ):
        """The claimed warm child reports the tenant's factory error;
        a cold child would report the same, so none is spawned."""
        cold_spawns = []
        real_channel = daemon_mod.SubprocessChannel

        def spy(*args, **kwargs):
            cold_spawns.append(args)
            return real_channel(*args, **kwargs)

        monkeypatch.setattr(daemon_mod, "SubprocessChannel", spy)
        with IbisDaemon(warm_pool=1) as daemon:
            assert daemon.warm_pool.ready(1, timeout=60)
            client = socket.create_connection(daemon.address)
            try:
                send_frame(client, ("hello", 1, PROTOCOL_VERSION, {}))
                assert recv_frame(client)[:2] == ("result", 1)
                send_frame(client, (
                    "start_worker", 2, b"not a pickle", "local", 1,
                    "subprocess", None, {"relay": relay},
                ))
                reply = recv_frame(client)
            finally:
                client.close()
        assert reply[:2] == ("error", 2)
        assert "UnpicklingError" in reply[2] + reply[3]
        assert cold_spawns == []


class TestSessionClose:
    def test_close_returns_with_every_pilot_reaped(self, daemon):
        """A relayed stop hangs up the client leg, and the daemon
        retires that pilot on the relay's thread; ``Session.close``
        must still return only once every pilot of the session has
        exited and been reaped."""
        children_before = _child_pids()
        session = connect(daemon, relay=True)
        channels = [
            session.code(ArrayEchoInterface, channel_type="subprocess")
            for _ in range(2)
        ]
        pilots = _child_pids() - children_before
        assert len(pilots) == 2
        channels[0].stop()
        session.close()
        assert not (_child_pids() & pilots)


class TestControlFrameAccounting:
    """One scripted frame sequence pins the per-session accounting the
    status endpoint reports, frame by frame."""

    def test_scripted_sequence(self, daemon):
        conn = socket.create_connection(daemon.address)
        joined = socket.create_connection(daemon.address)
        wire, joined_wire = WireState(), WireState()
        expected = {"bytes_in": 0, "bytes_out": 0}

        def exchange(sock, sock_wire, message, counted=True):
            received = sock_wire.bytes_received
            sent = send_frame(sock, message)
            reply = recv_frame(sock, sock_wire)
            if counted:
                expected["bytes_in"] += sent
                expected["bytes_out"] += \
                    sock_wire.bytes_received - received
            return reply

        try:
            # no hello: the echo opens an implicit session
            assert exchange(conn, wire, ("echo", 1, b"x" * 1000)) \
                == ("result", 1, b"x" * 1000)
            # a refused hello on that session counts bytes, not errors
            assert exchange(conn, wire, ("hello", 2, -1, {}))[0] \
                == "error"
            ack = exchange(conn, wire, ("hello", 3, PROTOCOL_VERSION, {}))
            token = ack[2]["session"]["token"]
            # a refused hello on a fresh connection counts nothing; the
            # join that follows backfills its own hello bytes
            assert exchange(joined, joined_wire, ("hello", 1, -1, {}),
                            counted=False)[0] == "error"
            exchange(joined, joined_wire, (
                "hello", 2, PROTOCOL_VERSION,
                {"session": {"join": token}},
            ))
            factory = pickle.dumps(ArrayEchoInterface, protocol=5)
            kind, _, worker = exchange(conn, wire, (
                "start_worker", 4, factory, "local", 1, "thread", None,
                {},
            ))
            assert kind == "result"
            assert exchange(
                conn, wire, ("call", 5, worker, "scale", (2.0, 3.0), {})
            )[:3] == ("result", 5, 6.0)
            assert exchange(
                conn, wire, ("call", 6, worker, "no_such", (), {})
            )[0] == "error"
            kind, _, entries = exchange(conn, wire, (
                "mcall", 7, worker,
                [("scale", (1.0, 2.0), {}), ("no_such", (), {})],
            ))
            assert kind == "mresult" and len(entries) == 2
            # a decoded pilot cannot be spliced
            assert exchange(
                conn, wire, ("attach_worker", 8, worker)
            )[0] == "error"
            kind, _, relayed = exchange(joined, joined_wire, (
                "start_worker", 3, factory, "local", 1, "thread", None,
                {"relay": True},
            ))
            assert exchange(
                joined, joined_wire, ("attach_worker", 4, relayed)
            )[:2] == ("result", 4)
            sent = send_frame(conn, ("status", 9))
            expected["bytes_in"] += sent
            status = recv_frame(conn, wire)[2]["session"]
        finally:
            conn.close()
            joined.close()
        accounting = status["accounting"]
        assert {
            key: accounting[key]
            for key in ("calls", "errors", "warm_hits", "cold_spawns",
                        "relay_frames", "queue_warnings")
        } == {
            "calls": 4, "errors": 2, "warm_hits": 0, "cold_spawns": 0,
            "relay_frames": 0, "queue_warnings": 0,
        }
        assert accounting["bytes_in"] == expected["bytes_in"]
        assert accounting["bytes_out"] == expected["bytes_out"]
        assert status["connections"] == 2


class TestDaemonTeardown:
    def test_shutdown_wakes_every_daemon_thread(self):
        before = set(threading.enumerate())
        daemon = IbisDaemon()
        daemon.start()
        session = connect(daemon)
        pilot = session.code(ArrayEchoInterface, channel_type="thread")
        assert pilot.call("scale", 1.0, 2.0) == 2.0
        started = time.monotonic()
        daemon.shutdown()
        assert time.monotonic() - started < 1.0
        served = re.compile(r"Thread-\d+ \((_accept_loop|_serve)\)")
        assert not [
            t.name for t in threading.enumerate()
            if t not in before and served.fullmatch(t.name)
        ]
        # the hang-up reaches the client: its readers see EOF and exit
        assert _settle(lambda: not [
            t for t in threading.enumerate()
            if t not in before and t.name.endswith("(_read_responses)")
        ], timeout=2.0)
        session._closed = True               # daemon side already gone
        session._link.close()


class TestIbisChannelHighLevel:
    def test_full_simulation_over_ibis_channel(self, daemon):
        conv = nbody_system.nbody_to_si(
            100.0 | units.MSun, 1.0 | units.parsec
        )
        stars = new_plummer_model(24, convert_nbody=conv, rng=0)
        grav = PhiGRAPE(
            conv, channel_type="ibis",
            channel_options={"daemon": daemon, "resource": "LGM"},
            eta=0.05,
        )
        grav.add_particles(stars)
        grav.evolve_model(0.05 | units.Myr)
        assert grav.model_time.value_in(units.Myr) == pytest.approx(
            0.05, rel=1e-6
        )
        assert grav.channel.kind == "ibis"
        grav.stop()

    def test_async_calls_pipelined(self, daemon):
        ch = DistributedChannel(PhiGRAPEInterface, daemon=daemon)
        reqs = [ch.async_call("get_model_time") for _ in range(10)]
        assert all(r.result() == 0.0 for r in reqs)
        ch.stop()


def build_damuse(fault_policy=FaultPolicy.RAISE):
    jungle = make_sc11_jungle()
    damuse = DistributedAmuse(
        jungle, jungle.host("laptop"), fault_policy=fault_policy
    )
    damuse.add_resource(
        ResourceSpec("LGM", "LGM (LU)", "ssh", 1, needs_gpu=True)
    )
    damuse.add_resource(ResourceSpec("VU", "DAS-4 (VU)", "sge", 8))
    damuse.add_resource(ResourceSpec("UvA", "DAS-4 (UvA)", "sge", 1))
    damuse.add_resource(
        ResourceSpec("TUD", "DAS-4 (TUD)", "sge", 2, needs_gpu=True)
    )
    damuse.new_pilot("gravity", "LGM")
    damuse.new_pilot("hydro", "VU", node_count=8)
    damuse.new_pilot("se", "UvA")
    damuse.new_pilot("coupling", "TUD", node_count=2)
    return jungle, damuse


class TestPilots:
    def test_pilots_deploy(self):
        jungle, damuse = build_damuse()
        assert damuse.wait_for_pilots()
        assert all(p.alive for p in damuse.pilots.values())
        # proxies joined the IPL pool: client + 4 proxies
        assert damuse.deploy.registry.size() == 5

    def test_unknown_site_rejected(self):
        jungle, damuse = build_damuse()
        with pytest.raises(KeyError):
            damuse.add_resource(ResourceSpec("X", "Atlantis"))

    def test_worker_connections_use_smartsockets(self):
        jungle, damuse = build_damuse()
        damuse.wait_for_pilots()
        counts = damuse.deploy.factory.strategy_counts
        assert sum(counts.values()) >= 4
        # isolated/firewalled workers + firewalled laptop => routed
        assert counts["routed"] >= 1

    def test_placement_mirrors_pilots(self):
        jungle, damuse = build_damuse()
        damuse.wait_for_pilots()
        placement = damuse.placement()
        assert sorted(placement.roles()) == [
            "coupling", "gravity", "hydro", "se"
        ]
        assert placement.nodes("hydro") == 8
        assert placement.host("gravity").has_gpu


class TestJungleRunner:
    def test_modeled_iteration_time_matches_sc11(self):
        jungle, damuse = build_damuse()
        damuse.wait_for_pilots()
        runner = JungleRunner(None, damuse)
        summary = runner.run(3)
        # SC11 worst case: same placement as the lab jungle run but
        # with transatlantic RPC latency -> slightly slower than 62.4
        assert 50.0 < summary["modeled_s_per_iteration"] < 90.0

    def test_costs_accumulate(self):
        jungle, damuse = build_damuse()
        damuse.wait_for_pilots()
        runner = JungleRunner(None, damuse)
        runner.run_iteration()
        runner.run_iteration()
        assert len(runner.iteration_costs) == 2
        assert runner.modeled_elapsed_s > 0


class TestFaults:
    def test_crash_policy_reproduces_paper_behaviour(self):
        jungle, damuse = build_damuse()
        damuse.wait_for_pilots()
        runner = JungleRunner(None, damuse)
        runner.run_iteration()
        damuse.pilots["hydro"].kill("reservation ended")
        with pytest.raises(WorkerDiedError):
            runner.run_iteration()
        assert damuse.fault_log[0][1] == "hydro"

    def test_unsupported_policy_rejected(self):
        """Pilots take the step graph's enum, but only RAISE (the
        paper's crash) and RESTART mean anything for a pilot."""
        jungle = make_sc11_jungle()
        for policy in (FaultPolicy.IGNORE, "crash"):
            with pytest.raises(ValueError, match="RAISE, RESTART"):
                DistributedAmuse(
                    jungle, jungle.host("laptop"), fault_policy=policy
                )

    def test_dead_proxy_reported_to_registry(self):
        jungle, damuse = build_damuse()
        damuse.wait_for_pilots()
        ident = damuse.pilots["se"].proxy_ibis.identifier
        damuse.pilots["se"].kill()
        assert damuse.deploy.registry.is_dead(ident)

    def test_restart_policy_prefers_other_site(self):
        """With spare capacity elsewhere (SARA), the replacement moves
        off the failed resource — the paper's 'transparently find a
        replacement machine' future work."""
        jungle, damuse = build_damuse(FaultPolicy.RESTART)
        damuse.add_resource(ResourceSpec("SARA", "SARA", "pbs", 1))
        damuse.wait_for_pilots()
        old = damuse.pilots["se"]
        old.kill()
        new_pilot = damuse.pilots["se"]
        assert new_pilot is not old
        assert new_pilot.resource.site_name == "SARA"
        assert damuse.wait_for_pilots()
        assert damuse.check_alive() is True

    def test_restart_policy_same_site_fallback(self):
        """With every other resource full, the pilot is resubmitted on
        its own resource (the freed reservation slot)."""
        jungle, damuse = build_damuse(FaultPolicy.RESTART)
        damuse.wait_for_pilots()
        old = damuse.pilots["se"]
        old.kill()
        new_pilot = damuse.pilots["se"]
        assert new_pilot is not old
        assert damuse.wait_for_pilots()
        assert damuse.check_alive() is True
