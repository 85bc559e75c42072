"""Distributed AMUSE tests: daemon, ibis channel, pilots, faults."""

import pickle
import socket

import pytest

from repro.codes import PhiGRAPE
from repro.codes.phigrape import PhiGRAPEInterface
from repro.distributed import (
    DistributedAmuse,
    DistributedChannel,
    FaultPolicy,
    IbisDaemon,
    JungleRunner,
    ResourceSpec,
    WorkerDiedError,
)
from repro.ic import new_plummer_model
from repro.jungle import make_sc11_jungle
from repro.rpc import RemoteError
from repro.rpc.protocol import PROTOCOL_VERSION, recv_frame, send_frame
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


def build_damuse(fault_policy=FaultPolicy.CRASH):
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

    def test_overlap_drift_variant_faster(self):
        jungle, damuse = build_damuse()
        damuse.wait_for_pilots()
        seq = JungleRunner(None, damuse).run_iteration()["total_s"]
        par = JungleRunner(
            None, damuse, overlap_drift=True
        ).run_iteration()["total_s"]
        assert par < seq


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
