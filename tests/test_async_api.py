"""Async-first API: futures, EvolveGroup, eager state guards, shim.

Covers the PR-2 redesign: unit-aware futures over the RPC pending
table, the ``m.async_(...)`` method surface, the in-flight transition
tracking that raises :class:`CodeStateError` eagerly on illegal
overlaps, the :class:`EvolveGroup` scheduler, and the aggregate-error /
timeout semantics of ``wait_all``.
"""

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cesm import EarthSystemModel
from repro.codes import EvolveGroup, PhiGRAPE, SSE
from repro.codes.base import CodeStateError, InflightTracker
from repro.codes.testing import SleepCode
from repro.distributed import JungleRunner
from repro.ic import new_plummer_model
from repro.jungle import make_lab_jungle
from repro.rpc import (
    AggregateRequestError,
    AsyncRequest,
    Future,
    QuantityFuture,
    as_completed,
    wait_all,
)
from repro.units import Quantity, nbody_system, units


@pytest.fixture
def converter():
    return nbody_system.nbody_to_si(
        1000.0 | units.MSun, 1.0 | units.parsec
    )


@pytest.fixture
def stars(converter):
    return new_plummer_model(24, convert_nbody=converter, rng=0)


def _resolved(value):
    request = AsyncRequest()
    request._resolve(value)
    return request


class TestFuture:
    def test_transform_runs_lazily_in_joining_thread(self):
        request = AsyncRequest()
        seen = []
        future = Future(request, transform=lambda v: (
            seen.append(threading.get_ident()), v * 2)[1])
        resolver = threading.Thread(target=request._resolve, args=(21,))
        resolver.start()
        resolver.join()
        assert future.done()
        assert seen == []                      # not yet materialized
        assert future.result() == 42
        assert seen == [threading.get_ident()]  # ran HERE, not resolver

    def test_transform_runs_exactly_once(self):
        calls = []
        future = Future(_resolved(1), transform=lambda v: (
            calls.append(v), v)[1])
        assert future.result() == future.result() == 1
        assert calls == [1]

    def test_cleanup_runs_on_success_and_failure(self):
        done = []
        ok = Future(_resolved(1), cleanup=lambda: done.append("ok"))
        ok.result()
        bad = Future(
            _resolved(1), transform=lambda v: 1 / 0,
            cleanup=lambda: done.append("bad"),
        )
        with pytest.raises(ZeroDivisionError):
            bad.result()
        assert done == ["ok", "bad"]

    def test_multi_request_future(self):
        requests = [_resolved(i) for i in range(3)]
        future = Future(requests=requests, transform=sum)
        assert future.result() == 3

    def test_add_done_callback(self):
        request = AsyncRequest()
        future = Future(request)
        fired = []
        future.add_done_callback(fired.append)
        assert fired == []
        request._resolve("x")
        assert fired == [future]
        # late registration fires immediately
        future.add_done_callback(fired.append)
        assert fired == [future, future]

    def test_empty_multi_future_fires_callback(self):
        future = Future(requests=[], transform=lambda values: values)
        assert future.done()
        fired = []
        future.add_done_callback(fired.append)
        assert fired == [future]
        assert future.result() == []

    def test_abandon_retires_cleanup_without_transform(self):
        request = AsyncRequest()
        ran = []
        future = Future(
            request,
            transform=lambda v: ran.append("transform"),
            cleanup=lambda: ran.append("cleanup"),
            description="slow.evolve_model",
        )
        future.abandon()
        assert ran == []            # nothing until the response lands
        request._resolve(1)
        assert ran == ["cleanup"]   # transform skipped, cleanup ran
        with pytest.raises(RuntimeError, match="abandoned"):
            future.result()

    def test_abandon_never_blocks_on_running_transform(self):
        """abandon()'s discard runs on channel reader threads, so it
        must return immediately while a joiner's transform (which may
        do channel I/O serviced by that same reader) is running —
        otherwise reader and joiner deadlock on each other."""
        request = AsyncRequest()
        gate = threading.Event()
        started = threading.Event()

        def slow_transform(value):
            started.set()
            assert gate.wait(5)
            return value

        future = Future(request, transform=slow_transform,
                        description="slow")
        request._resolve(1)
        joiner = threading.Thread(target=future.result)
        joiner.start()
        assert started.wait(5)
        t0 = time.monotonic()
        future.abandon()                     # must NOT wait for gate
        assert time.monotonic() - t0 < 1.0
        gate.set()
        joiner.join(5)
        assert future.result() == 1          # the earlier join won

    def test_result_timeout_bounded_during_foreign_materialization(
            self):
        """result(timeout) must honor its deadline even when another
        thread has claimed the materialization and its transform is
        still running."""
        request = AsyncRequest()
        gate = threading.Event()
        started = threading.Event()

        def slow_transform(value):
            started.set()
            assert gate.wait(5)
            return value

        future = Future(request, transform=slow_transform)
        request._resolve(1)
        joiner = threading.Thread(target=future.result)
        joiner.start()
        assert started.wait(5)
        with pytest.raises(TimeoutError, match="materialized"):
            future.result(timeout=0.05)
        gate.set()
        joiner.join(5)
        assert future.result() == 1

    def test_raising_done_callback_does_not_kill_resolver(self):
        request = AsyncRequest()
        fired = []
        request.add_done_callback(lambda r: 1 / 0)
        request.add_done_callback(fired.append)
        request._resolve(7)         # must not raise out of _resolve
        assert fired == [request]   # later callbacks still ran
        assert request.result() == 7

    def test_submit_offloads_to_thread(self):
        main = threading.get_ident()
        future = Future.submit(threading.get_ident)
        assert future.result(timeout=5) != main

    def test_submit_pool_runs_tasks_concurrently(self):
        # a barrier only releases if both tasks run at the same time
        barrier = threading.Barrier(2, timeout=5)
        futures = [Future.submit(barrier.wait) for _ in range(2)]
        wait_all(futures, timeout=10)

    def test_submit_delivers_errors(self):
        def boom():
            raise ValueError("offload failed")

        with pytest.raises(ValueError, match="offload failed"):
            Future.submit(boom).result(timeout=5)

    def test_exception_accessor(self):
        future = Future.failed(ValueError("nope"))
        assert isinstance(future.exception(), ValueError)
        assert Future.completed(1).exception() is None

    def test_quantity_future_value_in(self):
        future = QuantityFuture(
            _resolved(2.0),
            transform=lambda v: Quantity(v, units.parsec),
        )
        assert future.value_in(units.parsec) == pytest.approx(2.0)


class TestWaitAll:
    def test_results_in_order(self):
        assert wait_all(
            [Future.completed(i) for i in range(4)]
        ) == [0, 1, 2, 3]

    def test_timeout_names_pending_calls(self):
        pending = Future(description="slow.evolve_model")
        done = Future.completed(1)
        with pytest.raises(TimeoutError, match="slow.evolve_model"):
            wait_all([done, pending], timeout=0.05)

    def test_timeout_retires_all_cleanups(self):
        """On deadline expiry no cleanup hook may strand: resolved
        futures are joined, pending ones abandoned (retiring when the
        response eventually lands)."""
        retired = []
        pending = Future(cleanup=lambda: retired.append("pending"),
                         description="slow")
        done = Future(_resolved(1),
                      cleanup=lambda: retired.append("done"))
        with pytest.raises(TimeoutError):
            wait_all([done, pending], timeout=0.05)
        assert "done" in retired
        pending._requests[0]._resolve(2)   # the response finally lands
        assert "pending" in retired

    def test_aggregate_error_names_each_failure(self):
        futures = [
            Future.completed(1),
            Future.failed(ValueError("kapow"), description="A.evolve"),
            Future.failed(RuntimeError("bang"), description="B.kick"),
        ]
        with pytest.raises(AggregateRequestError) as err:
            wait_all(futures)
        message = str(err.value)
        assert "A.evolve" in message and "B.kick" in message
        assert "2 of 3" in message
        assert len(err.value.failures) == 2

    def test_aggregate_error_joins_everything_first(self):
        # cleanups of NON-failing futures must run even when a sibling
        # fails — no stranded in-flight transitions
        done = []
        futures = [
            Future.failed(ValueError("x"),
                          description="first fails"),
            Future(_resolved(1), cleanup=lambda: done.append("ran")),
        ]
        with pytest.raises(AggregateRequestError):
            wait_all(futures)
        assert done == ["ran"]

    def test_call_raised_timeout_is_failure_not_deadline(self):
        """A TimeoutError raised BY a call (e.g. a nested timed wait
        in a transform) is an ordinary failure — it must be aggregated
        and must not strand the remaining joins."""
        def inner_timeout(_value):
            raise TimeoutError("inner wait expired")

        done = []
        futures = [
            Future(_resolved(1), transform=inner_timeout,
                   description="hung.pull"),
            Future(_resolved(2), cleanup=lambda: done.append("ran")),
        ]
        with pytest.raises(AggregateRequestError,
                           match="inner wait expired"):
            wait_all(futures)
        assert done == ["ran"]

    def test_mixed_raw_requests_and_futures(self):
        assert wait_all([_resolved(1), Future.completed(2)]) == [1, 2]


class TestAsCompleted:
    def test_yields_in_completion_order(self):
        slow, fast = AsyncRequest(), AsyncRequest()
        futures = [Future(slow, description="slow"),
                   Future(fast, description="fast")]
        fast._resolve("f")
        iterator = as_completed(futures, timeout=5)
        first = next(iterator)
        assert first.description == "fast"
        slow._resolve("s")
        assert next(iterator).description == "slow"

    def test_timeout(self):
        with pytest.raises(TimeoutError):
            list(as_completed([Future()], timeout=0.05))


class TestAsyncMethodSurface:
    def test_sync_is_shim_over_async(self, converter, stars):
        """The blocking call and async_().result() produce identical
        trajectories — every legacy test doubles as a shim test."""
        results = []
        for use_async in (False, True):
            grav = PhiGRAPE(converter, eta=0.05)
            grav.add_particles(stars)
            if use_async:
                grav.evolve_model.async_(0.05 | units.Myr).result()
            else:
                grav.evolve_model(0.05 | units.Myr)
            results.append(
                grav.particles.position.value_in(units.m).copy()
            )
            grav.stop()
        assert np.array_equal(results[0], results[1])

    def test_async_evolve_refreshes_mirror_at_join(self, converter,
                                                   stars):
        grav = PhiGRAPE(converter, eta=0.05)
        grav.add_particles(stars)
        before = grav.particles.position.value_in(units.m).copy()
        future = grav.evolve_model.async_(0.05 | units.Myr)
        # mirror untouched until the join
        assert np.array_equal(
            before, grav.particles.position.value_in(units.m)
        )
        future.result()
        assert not np.allclose(
            before, grav.particles.position.value_in(units.m)
        )
        grav.stop()

    def test_energy_future_is_unit_aware(self, converter, stars):
        grav = PhiGRAPE(converter)
        grav.add_particles(stars)
        future = grav.get_kinetic_energy.async_()
        assert isinstance(future, QuantityFuture)
        assert future.value_in(units.J) > 0
        grav.stop()

    def test_field_query_async(self, converter, stars):
        grav = PhiGRAPE(converter)
        grav.add_particles(stars)
        future = grav.get_gravity_at_point.async_(
            0.01 | units.parsec, stars.position
        )
        acc = future.result().value_in(units.m / units.s ** 2)
        assert acc.shape == (len(stars), 3)
        grav.stop()

    def test_bound_method_metadata(self, converter):
        grav = PhiGRAPE(converter)
        assert grav.evolve_model.__name__ == "evolve_model"
        assert "end_time" in grav.evolve_model.__doc__ or \
            "evolve" in grav.evolve_model.__doc__.lower()
        grav.stop()

    @pytest.mark.network
    def test_async_evolve_over_sockets(self, converter, stars):
        grav = PhiGRAPE(
            converter, channel_type="sockets", eta=0.05
        )
        grav.add_particles(stars)
        future = grav.evolve_model.async_(0.02 | units.Myr)
        future.result(timeout=30)
        assert grav.model_time.value_in(units.Myr) == pytest.approx(
            0.02, rel=1e-6
        )
        grav.stop()


class TestStateGuards:
    def test_evolving_stopped_code_raises(self, converter, stars):
        grav = PhiGRAPE(converter)
        grav.add_particles(stars)
        grav.stop()
        with pytest.raises(CodeStateError, match="stopped"):
            grav.evolve_model(0.01 | units.Myr)
        with pytest.raises(CodeStateError, match="stopped"):
            grav.evolve_model.async_(0.01 | units.Myr)

    def test_double_stop_raises(self, converter):
        grav = PhiGRAPE(converter)
        grav.stop()
        with pytest.raises(CodeStateError, match="already been stopped"):
            grav.stop()

    def test_context_manager_tolerates_explicit_stop(self, converter):
        with PhiGRAPE(converter) as grav:
            grav.stop()   # __exit__ must not double-stop

    def test_exit_with_inflight_future_preserves_exception(
            self, converter, stars):
        """Unwinding with an outstanding future must propagate the
        body's exception (not mask it with CodeStateError) and still
        shut the worker down."""
        grav = PhiGRAPE(converter, eta=0.05)
        with pytest.raises(ValueError, match="body failed"):
            with grav:
                grav.add_particles(stars)
                grav.evolve_model.async_(0.02 | units.Myr)
                raise ValueError("body failed")
        assert grav.stopped

    def test_edits_during_inflight_evolve_raise(self, converter,
                                                stars):
        grav = PhiGRAPE(converter, eta=0.05)
        grav.add_particles(stars)
        future = grav.evolve_model.async_(0.02 | units.Myr)
        with pytest.raises(CodeStateError, match="in flight"):
            grav.push_masses()
        with pytest.raises(CodeStateError, match="in flight"):
            grav.kick(np.ones((len(stars), 3)) | units.kms)
        with pytest.raises(CodeStateError, match="in flight"):
            grav.evolve_model(0.03 | units.Myr)
        with pytest.raises(CodeStateError, match="in flight"):
            grav.stop()
        with pytest.raises(CodeStateError, match="in flight"):
            grav.parameters.eta = 0.1
        future.result()
        # after the join everything is legal again
        grav.push_masses()
        grav.stop()

    def test_inflight_cleared_even_when_evolve_fails(self, converter):
        grav = PhiGRAPE(converter, eta=-1.0)   # commit will fail
        future = grav.evolve_model.async_(0.01 | units.Myr)
        with pytest.raises(Exception):
            future.result()
        assert grav._inflight.inflight is None
        grav.stop()

    def test_reads_allowed_during_inflight(self, converter, stars):
        grav = PhiGRAPE(converter, eta=0.05)
        grav.add_particles(stars)
        future = grav.evolve_model.async_(0.02 | units.Myr)
        # diagnostics pipeline behind the evolve; they are not edits
        assert grav.kinetic_energy.value_in(units.J) > 0
        future.result()
        grav.stop()

    def test_evolve_during_inflight_kick_raises(self, converter,
                                                stars):
        """The guard works in BOTH directions: an outstanding kick or
        push future blocks a new evolve, otherwise the kick's join
        would clobber the post-evolve worker state."""
        grav = PhiGRAPE(converter, eta=0.05)
        grav.add_particles(stars)
        kick = grav.kick.async_(
            np.ones((len(stars), 3)) | units.kms
        )
        with pytest.raises(CodeStateError, match="in flight"):
            grav.evolve_model(0.02 | units.Myr)
        kick.result()
        push = grav.push_state.async_()
        with pytest.raises(CodeStateError, match="in flight"):
            grav.evolve_model.async_(0.02 | units.Myr)
        push.result()
        grav.evolve_model(0.02 | units.Myr)   # legal after the joins
        grav.stop()

    def test_field_upload_during_inflight_evolve_raises(
            self, converter, stars):
        """A sources= field query replaces the worker's particles — a
        mutation that must not pipeline behind an in-flight evolve."""
        from repro.codes import Fi
        fi = Fi(converter)
        fi.add_particles(stars)
        mass = fi._to_code(stars.mass, fi._MASS_UNIT)
        pos = fi._to_code(stars.position, fi._LENGTH_UNIT)
        future = fi.evolve_model.async_(0.01 | units.Myr)
        with pytest.raises(CodeStateError, match="in flight"):
            fi.get_gravity_at_point(
                0.01 | units.parsec, stars.position,
                sources=(mass, pos),
            )
        # plain (read-only) field queries remain legal mid-evolve
        fi.get_gravity_at_point(0.01 | units.parsec, stars.position)
        future.result()
        fi.stop()

    def test_pull_state_on_stopped_code_raises(self):
        code = SleepCode()
        code.stop()
        with pytest.raises(CodeStateError, match="stopped"):
            code.pull_state()
        with pytest.raises(CodeStateError, match="stopped"):
            code.model_time

    def test_tracker_overlap_message(self):
        tracker = InflightTracker("PhiGRAPE")
        tracker.begin("evolve_model")
        with pytest.raises(CodeStateError, match="PhiGRAPE"):
            tracker.begin("evolve_model")
        tracker.finish("evolve_model")
        tracker.begin("evolve_model")   # legal again
        tracker.finish("evolve_model")


class TestEvolveGroup:
    def test_two_codes_advance_together(self, converter, stars):
        a = PhiGRAPE(converter, eta=0.05)
        b = PhiGRAPE(converter, eta=0.05)
        a.add_particles(stars)
        b.add_particles(stars)
        group = EvolveGroup([a, b])
        results = group.evolve(0.02 | units.Myr)
        assert len(results) == 2
        for code in (a, b):
            assert code.model_time.value_in(units.Myr) == \
                pytest.approx(0.02, rel=1e-6)
        group.stop()

    def test_plain_callable_member_offloads(self):
        seen = []
        group = EvolveGroup([seen.append])
        group.evolve(1.25)
        assert seen == [1.25]

    def test_offloaded_member_guarded_against_overlap(self):
        """Blocking-only members get a group-level in-flight guard: a
        retry after a timeout raises eagerly instead of running two
        calls concurrently on the same object."""

        class SlowStepper:
            def __init__(self):
                self.gate = threading.Event()
                self.calls = 0

            def evolve_model(self, t_end):
                self.calls += 1
                assert self.gate.wait(5)
                return t_end

        stepper = SlowStepper()
        group = EvolveGroup([stepper])
        with pytest.raises(TimeoutError):
            group.evolve(1.0, timeout=0.05)
        with pytest.raises(CodeStateError, match="in flight"):
            group.evolve(2.0)
        assert stepper.calls == 1        # never ran concurrently
        stepper.gate.set()
        tracker = group._offload_trackers[id(stepper)]
        deadline = time.monotonic() + 5.0
        while tracker.inflight is not None and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        assert group.evolve(3.0) == [3.0]   # unlocked after finish

    def test_blocking_member_offloads(self):
        class Stepper:
            def __init__(self):
                self.t = 0.0

            def evolve_model(self, t_end):
                self.t = t_end
                return t_end

        stepper = Stepper()
        assert EvolveGroup([stepper]).evolve(2.5) == [2.5]
        assert stepper.t == 2.5

    def test_failure_is_aggregate_and_names_model(self, converter,
                                                  stars):
        def broken(_t):
            raise RuntimeError("model diverged")

        grav = PhiGRAPE(converter, eta=0.05)
        grav.add_particles(stars)
        group = EvolveGroup([grav, broken])
        with pytest.raises(AggregateRequestError,
                           match="model diverged"):
            group.evolve(0.02 | units.Myr)
        # the healthy code was still joined: no stranded transition
        assert grav._inflight.inflight is None
        grav.stop()

    @pytest.mark.network
    def test_sleepy_workers_genuinely_overlap(self):
        """Two equal-cost workers must finish in well under 2x one —
        the acceptance shape of the async redesign, at test scale."""
        codes = [SleepCode(channel_type="sockets") for _ in range(2)]
        group = EvolveGroup(codes)
        start = time.perf_counter()
        group.evolve(1.0 | nbody_system.time)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.6 * 0.15
        group.stop()

    @pytest.mark.network
    def test_timeout_cancels_futures_and_unlocks_codes(self):
        """A timeout CANCELS the outstanding evolve: the wire call is
        withdrawn from the pending table and the in-flight tracker
        retires immediately — the code unlocks without waiting for the
        worker to answer (the pre-cancel API could only abandon and
        wait)."""
        code = SleepCode(channel_type="sockets")
        group = EvolveGroup([code])
        with pytest.raises(TimeoutError):
            group.evolve(1.0 | nbody_system.time, timeout=0.02)
        # unlocked NOW, not whenever the worker finishes its sleep
        assert code._inflight.inflight is None
        # the pending table stays consistent: only the cancel ack may
        # still be in flight, and it drains promptly
        deadline = time.monotonic() + 5.0
        while code.channel._pending and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not code.channel._pending
        code.stop()   # orderly stop works again

    def test_failed_launch_joins_already_launched(self, converter,
                                                  stars):
        """A mid-launch failure (stopped member) must not strand the
        futures already launched on healthy members."""
        healthy = PhiGRAPE(converter, eta=0.05)
        healthy.add_particles(stars)
        dead = PhiGRAPE(converter)
        dead.stop()
        group = EvolveGroup([healthy, dead])
        with pytest.raises(CodeStateError, match="stopped"):
            group.evolve(0.02 | units.Myr)
        # the healthy code was joined on the way out: not locked
        assert healthy._inflight.inflight is None
        healthy.stop()

    def test_stop_skips_already_stopped(self, converter):
        a = PhiGRAPE(converter)
        b = PhiGRAPE(converter)
        group = EvolveGroup([a, b])
        a.stop()
        group.stop()        # must not raise on the stopped member
        assert a.stopped and b.stopped

    def test_stop_forces_shutdown_of_busy_member(self, converter,
                                                 stars):
        """A member with an outstanding future must not abort the
        group cleanup: it is force-shut-down and the REST of the group
        still gets stopped."""
        busy = PhiGRAPE(converter, eta=0.05)
        busy.add_particles(stars)
        idle = PhiGRAPE(converter)
        group = EvolveGroup([busy, idle])
        busy.evolve_model.async_(0.02 | units.Myr)   # never joined
        group.stop()
        assert busy.stopped and idle.stopped


class TestBridgeKickRecovery:
    def test_failed_field_query_does_not_strand_kicks(self, converter,
                                                      stars):
        """A failing partner must not strand a sibling system's
        already-launched kick: the kick is joined (mirror stays
        coherent) and the original error propagates."""
        from repro.coupling import Bridge, CouplingField
        from repro.codes import Fi

        a = PhiGRAPE(converter, eta=0.05)
        b = PhiGRAPE(converter, eta=0.05)
        a.add_particles(stars)
        b.add_particles(stars)
        coupling = Fi(converter)
        broken = SimpleNamespace(
            get_gravity_at_point=SimpleNamespace(
                async_=lambda eps, pos: Future.failed(
                    RuntimeError("field worker died")
                )
            )
        )
        bridge = Bridge(timestep=Quantity(0.01, units.Myr))
        bridge.add_system(a, [CouplingField(coupling, [b])])
        bridge.add_system(b, [broken])
        with pytest.raises(AggregateRequestError,
                           match="field worker died"):
            bridge.evolve_model(0.01 | units.Myr)
        # a's kick was joined: no stranded transition, mirror matches
        # the worker
        assert a._inflight.inflight is None
        assert np.allclose(
            a.channel.call("get_velocity"),
            a._to_code(a.particles.velocity, a._SPEED_UNIT),
        )
        bridge.stop()
        coupling.stop()


class TestParametersProxy:
    @pytest.mark.network
    def test_repr_is_single_batched_frame(self, converter):
        grav = PhiGRAPE(converter, channel_type="sockets")
        sent = []
        original = grav.channel._send_frame_locked
        grav.channel._send_frame_locked = lambda message: (
            sent.append(message), original(message))[1]
        text = repr(grav.parameters)
        assert "eta=" in text and "eps2=" in text
        assert len(sent) == 1
        assert sent[0][0] == "mcall"
        grav.channel._send_frame_locked = original
        grav.stop()

    @pytest.mark.network
    def test_kick_is_single_round_trip(self, converter, stars):
        """Kicks use the worker-side add_velocity op: one frame, no
        get/set pair."""
        grav = PhiGRAPE(converter, channel_type="sockets")
        grav.add_particles(stars)
        sent = []
        original = grav.channel._send_frame_locked
        grav.channel._send_frame_locked = lambda message: (
            sent.append(message), original(message))[1]
        grav.kick(np.ones((len(stars), 3)) | units.kms)
        assert len(sent) == 1
        assert sent[0][2] == "add_velocity"
        grav.channel._send_frame_locked = original
        grav.stop()

    def test_repr_on_direct_channel(self, converter):
        grav = PhiGRAPE(converter, eta=0.125)
        assert "eta=0.125" in repr(grav.parameters)
        grav.stop()


class TestConcurrencyAccounting:
    def test_jungle_runner_infers_overlap_from_bridge(self):
        """A driven simulation charges the step graph's critical path
        (overlapped drifts); modeled time alone charges the paper's
        sequential barrier."""
        from repro.jungle import Placement

        jungle = make_lab_jungle()
        desktop = jungle.host("desktop")
        placement = Placement(coupler_host=desktop)
        for role in ("coupling", "gravity", "hydro", "se"):
            placement.assign(role, desktop, channel="direct")
        damuse = SimpleNamespace(
            jungle=jungle, check_alive=lambda: True,
            placement=lambda: placement,
        )
        sim = SimpleNamespace(evolve_one_iteration=lambda: None)
        driven = JungleRunner(sim, damuse).run_iteration()
        modeled = JungleRunner(None, damuse).run_iteration()
        assert driven["schedule"] == "dag"
        assert driven["overlap_drift"] is True
        assert modeled["schedule"] == "barrier"
        assert modeled["overlap_drift"] is False


class TestCesmOverlap:
    def test_concurrent_step_matches_serial(self):
        serial = EarthSystemModel(overlap_components=False)
        overlap = EarthSystemModel(overlap_components=True)
        d_serial = serial.run(30.0, dt_days=5.0)
        d_overlap = overlap.run(30.0, dt_days=5.0)
        for key in ("global_mean_t_air_k", "global_mean_sst_k",
                    "ice_fraction"):
            assert d_overlap[key] == pytest.approx(
                d_serial[key], rel=1e-12
            )


class TestSseAsync:
    def test_sse_evolve_async(self):
        se = SSE()
        p = new_plummer_model(3, rng=3)
        p.mass = np.array([1.0, 5.0, 12.0]) | units.MSun
        se.add_particles(p)
        future = se.evolve_model.async_(30.0 | units.Myr)
        future.result()
        assert np.asarray(se.particles.stellar_type)[2] >= 13
        se.stop()

    def test_time_of_next_supernova_async(self):
        se = SSE()
        p = new_plummer_model(2, rng=4)
        p.mass = np.array([9.0, 1.0]) | units.MSun
        se.add_particles(p)
        t_sn = se.time_of_next_supernova.async_()
        assert isinstance(t_sn, QuantityFuture)
        assert 20.0 < t_sn.value_in(units.Myr) < 50.0
        se.stop()
