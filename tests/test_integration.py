"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro.coupling import EmbeddedClusterSimulation
from repro.distributed import (
    DistributedAmuse,
    IbisDaemon,
    JungleRunner,
    ResourceSpec,
)
from repro.jungle import make_lab_jungle, make_sc11_jungle
from repro.units import units
from repro.viz import StageTracker


class TestCoupledSimulationOverSockets:
    """The full 4-model simulation with every worker behind a REAL
    loopback TCP socket channel — the compute plane end to end."""

    def test_embedded_cluster_over_sockets(self):
        sim = EmbeddedClusterSimulation(
            n_stars=12, n_gas=64, rng=2, channel_type="sockets",
            bridge_timestep_myr=0.1,
        )
        sim.diagnostics()
        for _ in range(3):
            sim.evolve_one_iteration()
        d1 = sim.diagnostics()
        assert d1["time_myr"] == pytest.approx(0.3, rel=1e-6)
        assert d1["iteration"] == 3
        assert 0.0 <= d1["bound_gas_fraction"] <= 1.0
        sim.stop()

    def test_channel_choice_does_not_change_physics(self):
        results = {}
        for channel in ("direct", "sockets"):
            sim = EmbeddedClusterSimulation(
                n_stars=10, n_gas=48, rng=3, channel_type=channel,
                bridge_timestep_myr=0.1,
            )
            sim.evolve_one_iteration()
            results[channel] = sim.gravity.particles.position \
                .value_in(units.m).copy()
            sim.stop()
        assert np.allclose(
            results["direct"], results["sockets"], rtol=1e-12
        )


class TestStageProgression:
    """E3 mini-version: the Fig. 6 sequence appears in a short run."""

    @pytest.mark.slow
    def test_gas_expulsion_sequence(self):
        sim = EmbeddedClusterSimulation(
            n_stars=16, n_gas=128, rng=4, mass_min=5.0, mass_max=30.0,
            bridge_timestep_myr=0.5, se_interval=1,
            star_mass_fraction=0.3, sn_efficiency=2e-4,
            wind_speed_kms=30.0,
        )
        tracker = StageTracker()
        tracker.record(sim.diagnostics())
        for _ in range(22):
            sim.evolve_one_iteration()
            tracker.record(sim.diagnostics())
        stages = tracker.stages_seen
        assert stages[0] == "embedded"
        assert "expelled" in stages or "shell" in stages
        assert tracker.is_monotonic_expulsion()
        assert sim.n_supernovae >= 1
        sim.stop()


class TestDistributedEndToEnd:
    def test_daemon_plus_jungle_runner(self):
        """Real physics over the daemon channel + modeled jungle time
        in one run (the two execution planes together)."""
        with IbisDaemon() as daemon:
            sim = EmbeddedClusterSimulation(
                n_stars=10, n_gas=48, rng=5,
                channel_type="ibis",
                channel_types={
                    role: "ibis"
                    for role in ("gravity", "hydro", "se", "coupling")
                },
                code_factory=lambda cls, conv, ch, **kw:
                    _make_code(cls, conv, daemon, **kw),
                bridge_timestep_myr=0.1,
            )
            jungle = make_lab_jungle()
            damuse = DistributedAmuse(jungle, jungle.host("desktop"))
            damuse.add_resource(
                ResourceSpec("LGM", "LGM (LU)", "ssh", 1, True)
            )
            damuse.add_resource(
                ResourceSpec("VU", "DAS-4 (VU)", "sge", 8)
            )
            damuse.add_resource(
                ResourceSpec("UvA", "DAS-4 (UvA)", "sge", 1)
            )
            damuse.add_resource(
                ResourceSpec("TUD", "DAS-4 (TUD)", "sge", 2, True)
            )
            damuse.new_pilot("gravity", "LGM")
            damuse.new_pilot("hydro", "VU", node_count=8)
            damuse.new_pilot("se", "UvA", node_count=1)
            damuse.new_pilot("coupling", "TUD", node_count=2)
            assert damuse.wait_for_pilots()

            runner = JungleRunner(sim, damuse)
            costs = runner.run_iteration()
            assert costs["total_s"] > 0
            # the simulation's bridge runs the step graph: charged as
            # its critical path
            assert costs["schedule"] == "dag"
            assert sim.iteration == 1
            monitor = damuse.monitor().snapshot()
            assert monitor["traffic_ipl"]
            sim.stop()

    def test_sc11_deployment_all_models_start(self):
        """E4 mini-version: the four models deploy across the
        transatlantic topology through four different middlewares."""
        jungle = make_sc11_jungle()
        damuse = DistributedAmuse(jungle, jungle.host("laptop"))
        damuse.add_resource(
            ResourceSpec("LGM", "LGM (LU)", "ssh", 1, True)
        )
        damuse.add_resource(ResourceSpec("VU", "DAS-4 (VU)", "sge", 8))
        damuse.add_resource(ResourceSpec("UvA", "DAS-4 (UvA)", "sge", 1))
        damuse.add_resource(
            ResourceSpec("TUD", "DAS-4 (TUD)", "sge", 2, True)
        )
        damuse.new_pilot("gravity", "LGM")
        damuse.new_pilot("hydro", "VU", node_count=8)
        damuse.new_pilot("se", "UvA")
        damuse.new_pilot("coupling", "TUD", node_count=2)
        assert damuse.wait_for_pilots()
        adaptors = {
            row["adaptor"] for row in damuse.deploy.job_table()
        }
        assert {"SshAdaptor", "SgeAdaptor"} <= adaptors


def _make_code(cls, conv, daemon, **kw):
    options = {"daemon": daemon, "resource": "integration"}
    if conv is None:
        return cls(channel_type="ibis", channel_options=options, **kw)
    return cls(conv, channel_type="ibis", channel_options=options,
               **kw)
