"""Tests for the TaskGraph DAG scheduler, cancellation and RESTART.

Covers the dependency-aware scheduler (per-edge joins, cycle
detection, fault policies), the cancel primitive end to end — the
AMCX wire frame and worker acks, ``Future.cancel()``, cancel racing a
completing reply, cancel on a dead channel, cancel of a never-launched
graph node — the ``wait_all(timeout=)`` consistency fix (timed-out
futures are cancelled, keeping the pending table and the in-flight
trackers consistent), and the RESTART fault policy: a SIGKILLed
subprocess worker mid-evolve is respawned through the channel factory
with parameters and unit-converted state replayed, and the graph
resumes to completion.
"""

import functools
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.codes import SSE, Gadget, PhiGRAPE
from repro.codes.base import CodeStateError
from repro.codes.group import EvolveGroup
from repro.codes.testing import SleepCode, SleepInterface
from repro.coupling import Bridge, CouplingField
from repro.distributed import DistributedChannel, IbisDaemon
from repro.ic import new_plummer_gas_model, new_plummer_model
from repro.rpc import (
    CancelledError,
    AggregateRequestError,
    FaultPolicy,
    Future,
    TaskGraph,
    new_channel,
    wait_all,
)
from repro.rpc.channel import worker_loop
from repro.rpc.protocol import (
    PROTOCOL_VERSION,
    WireState,
    recv_frame,
    send_cancel_frame,
    send_frame,
)
from repro.units import nbody_system, units


@pytest.fixture
def converter():
    return nbody_system.nbody_to_si(
        200.0 | units.MSun, 0.5 | units.parsec
    )


# -- graph semantics ---------------------------------------------------------


class TestGraphBasics:
    def test_results_and_order(self):
        order = []
        graph = TaskGraph()
        a = graph.add("a", lambda: order.append("a") or 1)
        b = graph.add("b", lambda: order.append("b") or 2, after=[a])
        graph.add("c", lambda: order.append("c") or 3, after=["b"])
        results = graph.run()
        assert results == {"a": 1, "b": 2, "c": 3}
        assert order == ["a", "b", "c"]
        assert graph.states() == {
            "a": "done", "b": "done", "c": "done"
        }

    def test_dep_results_readable_from_nodes(self):
        graph = TaskGraph()
        a = graph.add("a", lambda: 21)
        graph.add("b", lambda: a.result * 2, after=[a])
        assert graph.run()["b"] == 42

    def test_duplicate_name_rejected(self):
        graph = TaskGraph()
        graph.add("a", lambda: 1)
        with pytest.raises(ValueError, match="duplicate"):
            graph.add("a", lambda: 2)

    def test_unknown_dependency_rejected(self):
        graph = TaskGraph()
        with pytest.raises(ValueError, match="unknown dependency"):
            graph.add("a", lambda: 1, after=["ghost"])

    def test_non_callable_launch_rejected(self):
        with pytest.raises(TypeError, match="not callable"):
            TaskGraph().add("a", 42)

    def test_cycle_detected(self):
        graph = TaskGraph()
        a = graph.add("a", lambda: 1)
        b = graph.add("b", lambda: 2, after=[a])
        a.deps.append(b)        # force a cycle behind the API
        b.dependents.append(a)
        with pytest.raises(ValueError, match="cycle"):
            graph.run()

    def test_empty_graph_runs(self):
        assert TaskGraph().run() == {}

    def test_future_launch_joined(self):
        graph = TaskGraph()
        graph.add("f", lambda: Future.completed(7))
        assert graph.run() == {"f": 7}


class TestFailurePolicies:
    def _failing_graph(self):
        graph = TaskGraph()
        boom = graph.add("boom", self._raise)
        graph.add("child", lambda: 1, after=[boom])
        graph.add("independent", lambda: 2)
        return graph

    @staticmethod
    def _raise():
        raise RuntimeError("model diverged")

    def test_raise_skips_dependents_and_aggregates(self):
        graph = self._failing_graph()
        with pytest.raises(AggregateRequestError,
                           match="model diverged"):
            graph.run()
        assert graph["child"].state == "skipped"
        assert graph["independent"].state == "done"

    def test_ignore_lets_dependents_proceed(self):
        graph = self._failing_graph()
        results = graph.run(fault_policy=FaultPolicy.IGNORE)
        assert results == {"child": 1, "independent": 2}
        assert graph["boom"].state == "failed"
        assert isinstance(graph["boom"].error, RuntimeError)

    def test_failed_future_join_follows_policy(self):
        graph = TaskGraph()
        boom = graph.add(
            "boom", lambda: Future.failed(RuntimeError("late"))
        )
        graph.add("child", lambda: 1, after=[boom])
        with pytest.raises(AggregateRequestError, match="late"):
            graph.run()
        assert graph["child"].state == "skipped"

    def test_cancelled_before_run_poisons_dependents(self):
        graph = TaskGraph()
        never = graph.add("never", lambda: 1)
        graph.add("child", lambda: 2, after=[never])
        assert never.cancel()
        assert never.state == "cancelled"
        with pytest.raises(AggregateRequestError, match="cancelled"):
            graph.run()
        assert graph["child"].state == "skipped"
        assert graph["never"].state == "cancelled"

    def test_cancelled_before_run_ignored_under_ignore(self):
        graph = TaskGraph()
        never = graph.add("never", lambda: 1)
        graph.add("child", lambda: 2, after=[never])
        never.cancel()
        assert graph.run(fault_policy=FaultPolicy.IGNORE) == \
            {"child": 2}


@pytest.mark.network
class TestPerEdgeJoins:
    def test_fast_chain_rides_slow_drift_slack(self):
        """The tentpole shape: the fast code's dependent launches while
        the slow code is still drifting — and the whole graph beats the
        barrier schedule's wall clock."""
        fast = SleepCode(channel_type="sockets", cost_s=0.05)
        slow = SleepCode(channel_type="sockets", cost_s=0.30)
        try:
            order = []
            graph = TaskGraph()
            df = graph.add(
                "drift:fast",
                lambda: fast.evolve_model.async_(
                    1 | nbody_system.time
                ),
            )
            ds = graph.add(
                "drift:slow",
                lambda: slow.evolve_model.async_(
                    1 | nbody_system.time
                ),
            )
            graph.add(
                "exchange:fast", lambda: order.append("fast"),
                after=[df],
            )
            graph.add(
                "exchange:slow", lambda: order.append("slow"),
                after=[ds],
            )
            t0 = time.perf_counter()
            graph.run()
            elapsed = time.perf_counter() - t0
            # the fast exchange ran DURING the slow drift, and the
            # graph cost ~the slow chain, not the sum
            assert order == ["fast", "slow"]
            assert elapsed < 0.30 + 0.15
        finally:
            fast.stop()
            slow.stop()

    def test_timeout_cancels_and_names_nodes(self):
        code = SleepCode(channel_type="sockets", cost_s=1.0)
        try:
            graph = TaskGraph()
            graph.add(
                "hang",
                lambda: code.evolve_model.async_(
                    1 | nbody_system.time
                ),
            )
            graph.add("never", lambda: 1, after=["hang"])
            with pytest.raises(TimeoutError, match="hang"):
                graph.run(timeout=0.05)
            # cancelled NOW: tracker retired, pending table consistent
            assert code._inflight.inflight is None
            assert graph["hang"].state == "cancelled"
            assert graph["never"].state == "cancelled"
        finally:
            code.stop()


# -- cancellation under fire -------------------------------------------------


@pytest.mark.network
class TestCancelUnderFire:
    def test_cancel_in_flight_acked_as_abandoned(self):
        code = SleepCode(channel_type="sockets", cost_s=0.5)
        try:
            future = code.evolve_model.async_(1 | nbody_system.time)
            time.sleep(0.05)    # the worker is inside the sleep now
            assert future.cancel()
            assert code._inflight.inflight is None
            with pytest.raises(CancelledError):
                future.result()
            request = future._requests[0]
            assert request.cancel_ack is not None
            ack = request.cancel_ack.result(timeout=5)
            assert ack["state"] == "abandoned"
        finally:
            code.stop()

    def test_cancel_queued_call_acked_as_dequeued(self):
        """A call pipelined behind a running one is withdrawn before
        it ever executes."""
        channel = new_channel(
            "sockets", lambda: SleepInterface(cost_s=0.4)
        )
        try:
            channel.call("ensure_state", "RUN")
            running = channel.async_call("evolve_model", 1.0)
            queued = channel.async_call("evolve_model", 2.0)
            time.sleep(0.05)
            assert queued.cancel()
            ack = queued.cancel_ack.result(timeout=5)
            assert ack["state"] == "dequeued"
            running.result(timeout=5)
            # the dequeued call never ran: the clock stopped at 1.0
            assert channel.call("get_model_time") == 1.0
        finally:
            channel.stop()

    def test_cancel_racing_completing_reply_is_consistent(self):
        """Whatever wins the race, the outcome is coherent: cancel()
        True means the result is a CancelledError, False means the
        value arrived — never a hang, never a stranded entry."""
        channel = new_channel(
            "sockets", lambda: SleepInterface(cost_s=0.0)
        )
        try:
            channel.call("ensure_state", "RUN")
            wins, losses = 0, 0
            for step in range(30):
                request = channel.async_call(
                    "evolve_model", float(step)
                )
                if request.cancel():
                    wins += 1
                    with pytest.raises(CancelledError):
                        request.result(timeout=5)
                else:
                    losses += 1
                    assert request.result(timeout=5) == 0
            assert wins + losses == 30
            # the channel survived the storm
            assert channel.call("get_model_time") >= 0.0
        finally:
            channel.stop()

    def test_cancel_on_dead_channel_degrades_gracefully(self):
        code = SleepCode(
            channel_type="subprocess", cost_s=5.0,
            channel_options={"stop_timeout": 2.0},
        )
        future = code.evolve_model.async_(1 | nbody_system.time)
        os.kill(code.channel.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while not future.done() and time.monotonic() < deadline:
            time.sleep(0.01)    # reader notices the death
        # too late to cancel (the loss already resolved the request) —
        # but asking must not raise, and the future must be joinable
        assert future.cancel() is False
        with pytest.raises(Exception):
            future.result(timeout=5)
        code.shutdown()

    def test_cancel_before_reader_notices_death(self):
        """Cancelling a call whose worker just died but whose loss has
        not surfaced yet: the client-side withdraw wins, the doomed
        AMCX send is swallowed."""
        code = SleepCode(
            channel_type="subprocess", cost_s=5.0,
            channel_options={"stop_timeout": 2.0},
        )
        future = code.evolve_model.async_(1 | nbody_system.time)
        os.kill(code.channel.pid, signal.SIGKILL)
        # race the reader: either we withdraw first (True) or the
        # loss resolved it first (False); both must leave the code
        # unlocked and the future joinable
        future.cancel()
        with pytest.raises(Exception):
            future.result(timeout=5)
        assert code._inflight.inflight is None
        code.shutdown()

    def test_plain_v2_peer_degrades_to_client_side_abandon(self):
        # a decoded daemon pilot: the daemon never acks cancel
        daemon = IbisDaemon()
        daemon.start()
        channel = DistributedChannel(
            functools.partial(SleepInterface, cost_s=0.3), daemon=daemon,
        )
        try:
            assert "cancel" not in channel.wire_caps
            channel.call("ensure_state", "RUN")
            request = channel.async_call("evolve_model", 1.0)
            assert request.cancel()          # client-side only
            assert request.cancel_ack is None
            with pytest.raises(CancelledError):
                request.result(timeout=5)
            # the worker still answers eventually; the stray reply is
            # dropped and the channel keeps working
            assert channel.call("get_model_time") in (0.0, 1.0)
        finally:
            channel.stop()
            daemon.shutdown()

    def test_batched_call_cancel_before_flush(self):
        channel = new_channel(
            "sockets", lambda: SleepInterface(cost_s=0.0)
        )
        try:
            channel.call("ensure_state", "RUN")
            with channel.batch():
                keep = channel.async_call("get_model_time")
                drop = channel.async_call("evolve_model", 9.0)
                assert drop.cancel()         # withdrawn pre-flush
            assert keep.result(timeout=5) == 0.0
            with pytest.raises(CancelledError):
                drop.result(timeout=5)
            assert channel.call("get_model_time") == 0.0
        finally:
            channel.stop()

    def test_future_cancel_too_late_returns_false(self):
        future = Future.completed(3)
        assert future.cancel() is False
        assert future.result() == 3

    def test_future_cancel_runs_cleanup_once(self):
        cleanups = []
        code = SleepCode(channel_type="sockets", cost_s=0.3)
        try:
            future = code.evolve_model.async_(1 | nbody_system.time)
            base_cleanup = future._cleanup
            future._cleanup = lambda: cleanups.append(
                base_cleanup()
            )
            assert future.cancel()
            assert future.cancel() is False   # second is a no-op
            assert len(cleanups) == 1
        finally:
            code.stop()


class TestCancelOvertakesCall:
    """Regression: an AMCX frame can overtake its own call frame.

    ``cancel()`` fires between the client's pending-table insert and
    the call send (``_dispatch_call`` registers first, sends second),
    so the worker may see the cancel for an id it has never heard of.
    Pre-fix it acked "done" and then *executed* the call when the
    frame arrived — the client had already resolved the future as
    cancelled, so the call ran as a ghost.  The worker now tombstones
    unknown cancel targets and drops the late frame with a
    CancelledError error reply.
    """

    @staticmethod
    def _serve(interface):
        client, server = socket.socketpair()
        thread = threading.Thread(
            target=worker_loop, args=(interface, server), daemon=True
        )
        thread.start()
        wire = WireState()
        send_frame(client, ("hello", 0, PROTOCOL_VERSION, {"cancel": True}))
        ack = recv_frame(client, wire)
        assert ack[2]["caps"]["cancel"] is True
        return client, server, thread, wire

    def test_tombstoned_call_never_executes(self):
        calls = []

        class Iface:
            def ping(self):
                calls.append("ping")
                return "pong"

            def stop(self):
                return True

        client, server, thread, wire = self._serve(Iface())
        try:
            # the cancel arrives first: the worker has never seen id 7
            send_cancel_frame(client, 100, 7)
            ack = recv_frame(client, wire)
            assert ack == ("result", 100, {"cancelled": 7,
                                           "state": "done"})
            # the overtaken call frame lands: dropped, not executed
            send_frame(client, ("call", 7, "ping", (), {}), wire)
            reply = recv_frame(client, wire)
            assert reply[:3] == ("error", 7, "CancelledError")
            assert calls == []
            # the tombstone is consumed; fresh ids run normally
            send_frame(client, ("call", 8, "ping", (), {}), wire)
            assert recv_frame(client, wire) == ("result", 8, "pong")
            assert calls == ["ping"]
            send_frame(client, ("call", 9, "stop", (), {}), wire)
            assert recv_frame(client, wire)[0] == "result"
            thread.join(timeout=5)
            assert not thread.is_alive()
        finally:
            client.close()
            server.close()

    def test_tombstones_are_bounded(self):
        """Cancels for long-gone ids must not grow worker state
        without bound (every completed call's cancel is "done")."""

        class Iface:
            def stop(self):
                return True

        client, server, thread, wire = self._serve(Iface())
        try:
            for target in range(200):
                send_cancel_frame(client, 1000 + target, target)
                assert recv_frame(client, wire)[2]["state"] == "done"
            # an id aged out of the tombstone window would execute if
            # its frame arrived now — but recent ones still must not
            send_frame(client, ("call", 199, "stop", (), {}), wire)
            reply = recv_frame(client, wire)
            assert reply[:3] == ("error", 199, "CancelledError")
            send_frame(client, ("call", 500, "stop", (), {}), wire)
            assert recv_frame(client, wire)[0] == "result"
            thread.join(timeout=5)
        finally:
            client.close()
            server.close()


@pytest.mark.network
class TestWaitAllTimeoutConsistency:
    def test_timed_out_futures_are_cancelled_not_stranded(self):
        """The wait_all(timeout=) fix: expired futures route through
        cancel(), so the pending table empties and the tracker
        unlocks immediately instead of whenever the worker answers."""
        code = SleepCode(channel_type="sockets", cost_s=0.8)
        try:
            future = code.evolve_model.async_(1 | nbody_system.time)
            with pytest.raises(TimeoutError, match="evolve_model"):
                wait_all([future], timeout=0.05)
            assert code._inflight.inflight is None
            with pytest.raises(CancelledError):
                future.result(timeout=5)
            # only the cancel ack may linger; it drains promptly
            deadline = time.monotonic() + 5.0
            while code.channel._pending and \
                    time.monotonic() < deadline:
                time.sleep(0.01)
            assert not code.channel._pending
        finally:
            code.stop()

    def test_uncancellable_members_still_abandoned(self):
        """Thread offloads cannot be withdrawn mid-run: they keep the
        pre-cancel abandon contract (retire when the call finishes)."""
        gate = threading.Event()
        calls = []

        def stepper(t_end):
            calls.append(t_end)
            gate.wait(5)
            return t_end

        future = Future.submit(stepper, 1.0)
        with pytest.raises(TimeoutError):
            wait_all([future], timeout=0.05)
        gate.set()
        with pytest.raises(CancelledError, match="abandoned"):
            future.result(timeout=5)
        assert calls == [1.0]


# -- RESTART fault policy ----------------------------------------------------


@pytest.mark.network
class TestRestartPolicy:
    def test_sigkilled_worker_finishes_run_with_restarted_worker(self):
        """The acceptance scenario: SIGKILL mid-evolve, RESTART
        respawns, the graph resumes and FINISHES."""
        code = SleepCode(
            channel_type="subprocess", cost_s=0.5,
            channel_options={"stop_timeout": 2.0},
        )
        try:
            graph = TaskGraph()
            graph.add(
                "evolve",
                lambda: code.evolve_model.async_(
                    1 | nbody_system.time
                ),
                code=code,
            )
            old_pid = code.channel.pid
            threading.Timer(
                0.15, lambda: os.kill(old_pid, signal.SIGKILL)
            ).start()
            results = graph.run(fault_policy=FaultPolicy.RESTART)
            assert graph["evolve"].state == "done"
            assert graph["evolve"].restarts == 1
            assert code.channel.pid != old_pid
            assert code.model_time.value_in(nbody_system.time) == 1.0
            assert "evolve" in results
        finally:
            code.stop()

    def test_restart_replays_unit_converted_parameters_and_state(
        self, converter
    ):
        """The replay satellite: parameters set through the proxy and
        the unit-converted particle mirror survive the respawn — the
        script sees the same SI state through a brand-new worker."""
        stars = new_plummer_model(12, convert_nbody=converter, rng=5)
        grav = PhiGRAPE(
            converter, channel_type="subprocess", eta=0.05,
            channel_options={"stop_timeout": 2.0},
        )
        try:
            grav.parameters.eta = 0.125
            grav.add_particles(stars)
            pos_si = grav.particles.position.value_in(units.m).copy()
            vel_si = grav.particles.velocity.value_in(
                units.m / units.s
            ).copy()
            old_pid = grav.channel.pid
            os.kill(old_pid, signal.SIGKILL)
            grav.restart_worker()
            assert grav.channel.pid != old_pid
            # proxy-set parameter replayed
            assert grav.parameters.eta == 0.125
            # the worker holds the SAME state in code units as the
            # original upload (unit conversion round-trips exactly)
            assert np.allclose(
                grav.channel.call("get_position"),
                grav._to_code(
                    grav.particles.position, grav._LENGTH_UNIT
                ),
            )
            # and the script still sees identical SI values
            assert np.allclose(
                grav.particles.position.value_in(units.m), pos_si
            )
            assert np.allclose(
                grav.particles.velocity.value_in(units.m / units.s),
                vel_si,
            )
            # the respawned worker is immediately evolvable
            grav.evolve_model(0.01 | units.Myr)
        finally:
            grav.shutdown()

    @pytest.mark.parametrize("cls", [PhiGRAPE, Gadget, SSE],
                             ids=lambda cls: cls.__name__)
    def test_restart_replays_every_column_bit_for_bit(self, cls):
        """The replay uploads every particle column the code declares
        (Gadget's internal energy, SSE's masses), so a pull from the
        respawned worker hands back the mirror bit for bit.  Generic
        units keep conversion out of it; SSE is compared at ZAMS,
        because it re-seeds from the current masses."""
        if cls is SSE:
            particles = new_plummer_model(6, rng=7)
            particles.mass = np.linspace(1.0, 30.0, 6) | units.MSun
            code = SSE(channel_type="sockets")
        else:
            make = new_plummer_gas_model if cls is Gadget \
                else new_plummer_model
            particles = make(32, rng=7)
            code = cls(channel_type="sockets")

        def mirror():
            values = {
                name: getattr(code.particles, name)
                for name in code.particles.attribute_names()
            }
            return {
                name: np.asarray(getattr(value, "number", value)).tobytes()
                for name, value in values.items()
            }

        try:
            code.add_particles(particles)
            if cls is not SSE:
                code.evolve_model(0.01 | nbody_system.time)
            before = mirror()
            old_channel = code.channel
            code.restart_worker()
            assert code.channel is not old_channel
            code.pull_state()
            assert mirror() == before
            assert ("u" in before) == (cls is Gadget)
        finally:
            code.shutdown()

    def test_restart_restores_model_clock(self):
        code = SleepCode(
            channel_type="subprocess", cost_s=0.05,
            channel_options={"stop_timeout": 2.0},
        )
        try:
            code.evolve_model(3 | nbody_system.time)
            os.kill(code.channel.pid, signal.SIGKILL)
            code.restart_worker()
            assert code.model_time.value_in(nbody_system.time) == 3.0
        finally:
            code.stop()

    def test_genuine_model_error_is_not_restarted(self):
        class Diverging:
            def restart_worker(self):
                raise AssertionError("must not be called")

            def evolve_model(self, _t):
                raise RuntimeError("model diverged")

        member = Diverging()
        graph = TaskGraph()
        graph.add(
            "evolve", lambda: member.evolve_model(1.0), code=member
        )
        with pytest.raises(AggregateRequestError,
                           match="model diverged"):
            graph.run(fault_policy=FaultPolicy.RESTART)

    def test_max_restarts_bounds_the_respawn_loop(self):
        code = SleepCode(
            channel_type="subprocess", cost_s=2.0,
            channel_options={"stop_timeout": 1.0},
        )
        try:
            def launch_and_kill():
                future = code.evolve_model.async_(
                    1 | nbody_system.time
                )
                threading.Timer(
                    0.1,
                    lambda pid=code.channel.pid:
                    os.kill(pid, signal.SIGKILL),
                ).start()
                return future

            graph = TaskGraph()
            graph.add("doomed", launch_and_kill, code=code)
            with pytest.raises(AggregateRequestError):
                graph.run(
                    fault_policy=FaultPolicy.RESTART, max_restarts=1
                )
            assert graph["doomed"].restarts == 1
        finally:
            code.shutdown()

    def test_completion_at_deadline_is_consumed_not_timed_out(self):
        """Events already delivered when the deadline expires are
        consumed: instantly-completing nodes finish under timeout=0
        instead of being declared hung."""
        graph = TaskGraph()
        a = graph.add("a", lambda: 1)
        graph.add("b", lambda: a.result + 1, after=[a])
        assert graph.run(timeout=0) == {"a": 1, "b": 2}

    def test_failed_respawn_does_not_strand_sibling_hung_nodes(self):
        """One worker's respawn failing during the timeout-grace
        restart must fail THAT node only: the sibling hung node is
        still cancelled/restarted and no tracker stays locked."""
        broken = SleepCode(channel_type="sockets", cost_s=1.5)
        healthy = SleepCode(channel_type="sockets", cost_s=1.5)
        broken.restart_worker = lambda: (_ for _ in ()).throw(
            RuntimeError("no replacement resource")
        )

        def unhang(_node):
            healthy.parameters.cost_s = 0.01

        try:
            graph = TaskGraph()
            graph.add(
                "broken",
                lambda: broken.evolve_model.async_(
                    1 | nbody_system.time
                ),
                code=broken,
            )
            graph.add(
                "healthy",
                lambda: healthy.evolve_model.async_(
                    1 | nbody_system.time
                ),
                code=healthy,
            )
            with pytest.raises(AggregateRequestError,
                               match="no replacement resource"):
                graph.run(
                    timeout=0.3, fault_policy=FaultPolicy.RESTART,
                    on_restart=unhang,
                )
            assert graph["broken"].state == "failed"
            assert graph["healthy"].state == "done"
            # neither code is left with a stranded transition
            assert broken._inflight.inflight is None
            assert healthy._inflight.inflight is None
        finally:
            broken.stop()
            healthy.stop()

    def test_hung_evolve_cancelled_and_restarted_on_timeout(self):
        """A hung (not dead) worker: the run's timeout cancels the
        call, RESTART respawns the worker, and the on_restart hook
        gets a chance to fix what made it hang."""
        code = SleepCode(
            channel_type="sockets", cost_s=1.5,
            channel_options={"stop_timeout": 3.0},
        )
        restarted = []

        def unhang(node):
            restarted.append(node.name)
            code.parameters.cost_s = 0.01

        try:
            graph = TaskGraph()
            graph.add(
                "hung",
                lambda: code.evolve_model.async_(
                    1 | nbody_system.time
                ),
                code=code,
            )
            results = graph.run(
                timeout=0.3, fault_policy=FaultPolicy.RESTART,
                on_restart=unhang,
            )
            assert restarted == ["hung"]
            assert graph["hung"].state == "done"
            assert "hung" in results
        finally:
            code.stop()


@pytest.mark.network
class TestGroupAndBridgeFaultPolicies:
    def test_group_ignore_policy_keeps_healthy_results(self):
        healthy = SleepCode(channel_type="sockets", cost_s=0.01)
        dead = SleepCode(channel_type="sockets", cost_s=0.01)
        dead.stop()
        group = EvolveGroup([healthy, dead])
        try:
            results = group.evolve(
                1 | nbody_system.time,
                fault_policy=FaultPolicy.IGNORE,
            )
            assert results[0] == 0      # healthy evolve returned
            assert results[1] is None   # dead member ignored
        finally:
            healthy.stop()

    def test_group_restart_policy_survives_sigkill(self):
        codes = [
            SleepCode(
                channel_type="subprocess", cost_s=0.4,
                channel_options={"stop_timeout": 2.0},
            )
            for _ in range(2)
        ]
        try:
            victim_pid = codes[0].channel.pid
            threading.Timer(
                0.1, lambda: os.kill(victim_pid, signal.SIGKILL)
            ).start()
            group = EvolveGroup(codes)
            group.evolve(
                1 | nbody_system.time,
                fault_policy=FaultPolicy.RESTART,
            )
            assert codes[0].channel.pid != victim_pid
            for code in codes:
                assert code.model_time.value_in(
                    nbody_system.time
                ) == 1.0
        finally:
            for code in codes:
                code.stop()

    def test_bridge_restart_policy_survives_sigkill_mid_drift(self):
        codes = [
            SleepCode(
                channel_type="subprocess", cost_s=0.4,
                channel_options={"stop_timeout": 2.0},
            )
            for _ in range(2)
        ]
        bridge = Bridge(
            timestep=1 | nbody_system.time,
            fault_policy=FaultPolicy.RESTART,
        )
        for code in codes:
            bridge.add_system(code)
        try:
            victim_pid = codes[1].channel.pid
            threading.Timer(
                0.1, lambda: os.kill(victim_pid, signal.SIGKILL)
            ).start()
            bridge.evolve_model(1 | nbody_system.time)
            assert codes[1].channel.pid != victim_pid
            assert bridge.drift_count == 1
        finally:
            bridge.stop()


# -- the bridge's DAG shape --------------------------------------------------


class TestBridgeGraphShape:
    def test_unkicked_provider_drift_waits_for_field_queries(
        self, converter
    ):
        """One-directional coupling with the provider used DIRECTLY
        (no CouplingField): the provider's drift must not overtake a
        sibling's pre-drift field query against its worker — the DAG
        must reproduce the barrier-ordered reference in either
        registration order."""
        def build(order):
            stars = new_plummer_model(
                16, convert_nbody=converter, rng=7
            )
            sats = new_plummer_model(
                8, convert_nbody=converter, rng=8
            )
            galaxy = PhiGRAPE(converter, eta=0.1)
            cluster = PhiGRAPE(converter, eta=0.1)
            galaxy.add_particles(stars)
            cluster.add_particles(sats)
            bridge = Bridge(timestep=0.01 | units.Myr)
            if order == "provider-first":
                bridge.add_system(galaxy)
                bridge.add_system(cluster, [galaxy])
            else:
                bridge.add_system(cluster, [galaxy])
                bridge.add_system(galaxy)
            return bridge, cluster

        from reference_bridge import barrier_evolve

        baselines = {}
        for evolve in (Bridge.evolve_model, barrier_evolve):
            for order in ("provider-first", "provider-last"):
                bridge, cluster = build(order)
                evolve(bridge, 0.02 | units.Myr)
                pos = cluster.particles.position.value_in(
                    units.m
                ).copy()
                bridge.stop()
                if order in baselines:
                    assert np.allclose(
                        baselines[order], pos, rtol=1e-12
                    )
                else:
                    baselines[order] = pos
        # and the graph encodes the edge explicitly
        bridge, _cluster = build("provider-first")
        graph = bridge._step_graph(0.01 | units.Myr)
        provider_drift_deps = {
            dep.name for dep in graph["drift:PhiGRAPE"].deps
        }
        assert "kick1:PhiGRAPE#1:field" in provider_drift_deps
        bridge.stop()

    def test_kick2_depends_on_source_drifts_only(self, converter):
        """The per-edge structure: a system's second kick waits for
        its own drift and its field sources' drifts — nothing else."""
        from repro.codes import Fi

        stars = new_plummer_model(8, convert_nbody=converter, rng=1)
        a = PhiGRAPE(converter, eta=0.1)
        b = PhiGRAPE(converter, eta=0.1)
        c = PhiGRAPE(converter, eta=0.1)
        field = Fi(converter)
        for code in (a, b, c):
            code.add_particles(stars)
        bridge = Bridge(timestep=0.01 | units.Myr)
        # a is kicked by a field sourced from b; b by one from a;
        # c drifts uncoupled
        bridge.add_system(a, [CouplingField(field, [b])])
        bridge.add_system(b, [CouplingField(field, [a])])
        bridge.add_system(c)
        graph = bridge._step_graph(0.01 | units.Myr)
        names = {
            dep.name for dep in graph["kick2:PhiGRAPE:field"].deps
        }
        assert names == {"drift:PhiGRAPE", "drift:PhiGRAPE#1"}
        # the uncoupled system's drift gates nobody's second kick
        assert all(
            "PhiGRAPE#2" not in dep.name
            for node in graph.nodes.values() if "kick2" in node.name
            for dep in node.deps
        )
        assert graph["drift:PhiGRAPE#2"].deps == []
        for code in (a, b, c, field):
            code.stop()


# -- perfmodel critical-path accounting --------------------------------------


class TestDagCostModel:
    def _placement(self):
        from repro.jungle import (
            CostModel,
            IterationWorkload,
            Placement,
            make_lab_jungle,
        )

        jungle = make_lab_jungle()
        desktop = jungle.host("desktop")
        placement = Placement(coupler_host=desktop)
        for role in ("coupling", "gravity", "hydro", "se"):
            placement.assign(role, desktop, channel="direct")
        return CostModel(jungle), IterationWorkload(), placement

    def test_dag_schedule_charges_critical_path(self):
        model, workload, placement = self._placement()
        seq = model.iteration_time(workload, placement)
        par = model.iteration_time(
            workload, placement, overlap_drift=True
        )
        dag = model.iteration_time(
            workload, placement, schedule="dag"
        )
        assert dag["total_s"] < par["total_s"] < seq["total_s"]
        assert dag["schedule"] == "dag"
        assert dag["overlap_drift"] is True

    def test_unknown_schedule_rejected(self):
        model, workload, placement = self._placement()
        with pytest.raises(ValueError, match="unknown schedule"):
            model.iteration_time(
                workload, placement, schedule="magic"
            )

    def test_jungle_runner_selects_dag_from_bridge(self):
        """A driven simulation's bridge runs the step graph, so its
        iterations charge "dag"; modeled time alone charges the
        prototype's "barrier"."""
        from types import SimpleNamespace

        from repro.distributed import JungleRunner

        model, _workload, placement = self._placement()
        damuse = SimpleNamespace(
            jungle=model.jungle, check_alive=lambda: True,
            placement=lambda: placement,
        )
        sim = SimpleNamespace(evolve_one_iteration=lambda: None)
        costs = JungleRunner(sim, damuse).run_iteration()
        assert costs["schedule"] == "dag"
        assert JungleRunner(None, damuse).run_iteration()[
            "schedule"] == "barrier"


# -- EvolveGroup contract preserved on the graph -----------------------------


class TestCesmStepGraph:
    def test_lone_exchange_error_surfaces_raw(self):
        """The overlap step keeps the serial branch's exception
        contract: a raising exchange() is not wrapped."""
        from repro.cesm import EarthSystemModel

        esm = EarthSystemModel(overlap_components=True)

        def broken_exchange():
            raise ValueError("regrid shape mismatch")

        esm.exchange = broken_exchange
        with pytest.raises(ValueError, match="regrid shape"):
            esm.step(5.0)


class TestGroupOnGraph:
    def test_lone_code_state_error_stays_bare(self):
        code = SleepCode()
        code.stop()
        group = EvolveGroup([code])
        with pytest.raises(CodeStateError, match="stopped"):
            group.evolve(1 | nbody_system.time)

    def test_duplicate_member_names_disambiguated(self):
        codes = [SleepCode(cost_s=0.0) for _ in range(3)]
        group = EvolveGroup(codes)
        try:
            results = group.evolve(1 | nbody_system.time)
            assert len(results) == 3
        finally:
            group.stop()
