"""Bridge (kick-drift-kick) coupling tests."""

import collections
from types import SimpleNamespace

import numpy as np
import pytest
from reference_bridge import barrier_evolve

from repro.codes import Fi, Gadget, PhiGRAPE
from repro.coupling import Bridge, CouplingField
from repro.ic import new_plummer_gas_model, new_plummer_model
from repro.units import Quantity, nbody_system, units


@pytest.fixture
def converter():
    return nbody_system.nbody_to_si(
        200.0 | units.MSun, 0.5 | units.parsec
    )


def make_two_system_bridge(converter, n_stars=24, n_gas=96, dt=0.02):
    stars = new_plummer_model(n_stars, convert_nbody=converter, rng=0)
    gas = new_plummer_gas_model(n_gas, convert_nbody=converter, rng=1)
    gravity = PhiGRAPE(converter, eta=0.1)
    hydro = Gadget(converter, n_neighbours=12)
    coupling = Fi(converter)
    gravity.add_particles(stars)
    hydro.add_particles(gas)
    bridge = Bridge(timestep=Quantity(dt, units.Myr))
    bridge.add_system(
        gravity, [CouplingField(coupling, [hydro])]
    )
    bridge.add_system(
        hydro, [CouplingField(coupling, [gravity])]
    )
    return bridge, gravity, hydro, coupling


class TestCouplingField:
    def test_field_matches_source_system(self, converter):
        stars = new_plummer_model(64, convert_nbody=converter, rng=2)
        gravity = PhiGRAPE(converter)
        gravity.add_particles(stars)
        coupling = Fi(converter, theta=0.3)
        field = CouplingField(coupling, [gravity])
        point = np.array([[3.0, 0.0, 0.0]]) * 3.086e16 | units.m
        acc_field = field.get_gravity_at_point(
            0.01 | units.parsec, Quantity(point.number, units.m)
        ).value_in(units.m / units.s ** 2)
        acc_direct = gravity.get_gravity_at_point(
            0.01 | units.parsec, Quantity(point.number, units.m)
        ).value_in(units.m / units.s ** 2)
        assert np.allclose(acc_field, acc_direct, rtol=0.05)
        gravity.stop()
        coupling.stop()

    def test_field_combines_sources(self, converter):
        stars = new_plummer_model(16, convert_nbody=converter, rng=3)
        a = PhiGRAPE(converter)
        a.add_particles(stars)
        coupling = Fi(converter)
        single = CouplingField(coupling, [a])
        double = CouplingField(coupling, [a, a])
        pt = Quantity(np.array([[1e17, 0.0, 0.0]]), units.m)
        acc1 = single.get_gravity_at_point(
            0.01 | units.parsec, pt).value_in(units.m / units.s ** 2)
        acc2 = double.get_gravity_at_point(
            0.01 | units.parsec, pt).value_in(units.m / units.s ** 2)
        assert np.allclose(2.0 * acc1, acc2, rtol=1e-6)
        a.stop()
        coupling.stop()


class TestBridge:
    def test_requires_systems(self):
        bridge = Bridge(timestep=Quantity(0.01, units.Myr))
        with pytest.raises(RuntimeError):
            bridge.evolve_model(0.1 | units.Myr)

    def test_time_advances_by_steps(self, converter):
        bridge, gravity, hydro, coupling = make_two_system_bridge(
            converter
        )
        bridge.evolve_model(0.06 | units.Myr)
        assert bridge.time.value_in(units.Myr) == pytest.approx(
            0.06, rel=1e-6
        )
        assert bridge.drift_count == 3
        assert bridge.kick_count == 6
        bridge.stop()

    def test_energy_roughly_conserved(self, converter):
        bridge, gravity, hydro, coupling = make_two_system_bridge(
            converter
        )
        e0 = (
            bridge.kinetic_energy() + bridge.potential_energy()
        ).value_in(units.J)
        bridge.evolve_model(0.08 | units.Myr)
        e1 = (
            bridge.kinetic_energy() + bridge.potential_energy()
        ).value_in(units.J)
        assert abs((e1 - e0) / e0) < 0.1
        bridge.stop()

    def test_async_and_sync_agree(self, converter):
        """The step graph and the barrier-ordered reference give the
        same positions bit for bit: the graph's edges are exactly the
        barrier phases' data dependencies."""
        results = []
        for evolve in (Bridge.evolve_model, barrier_evolve):
            bridge, gravity, hydro, coupling = make_two_system_bridge(
                converter
            )
            evolve(bridge, 0.04 | units.Myr)
            results.append(
                gravity.particles.position.value_in(units.m).copy()
            )
            bridge.stop()
        assert np.array_equal(results[0], results[1])

    def test_kick_changes_velocities(self, converter):
        bridge, gravity, hydro, coupling = make_two_system_bridge(
            converter
        )
        v0 = gravity.particles.velocity.value_in(units.kms).copy()
        bridge.evolve_model(0.02 | units.Myr)
        v1 = gravity.particles.velocity.value_in(units.kms)
        assert not np.allclose(v0, v1)
        bridge.stop()

    def test_combined_particles_view(self, converter):
        bridge, gravity, hydro, coupling = make_two_system_bridge(
            converter, n_stars=10, n_gas=20
        )
        assert len(bridge.particles) == 30
        bridge.stop()

    def test_gas_feels_star_gravity(self, converter):
        """A cold gas blob far from a star cluster must accelerate
        toward it through the coupling field."""
        stars = new_plummer_model(32, convert_nbody=converter, rng=4)
        gravity = PhiGRAPE(converter, eta=0.1)
        gravity.add_particles(stars)
        gas = new_plummer_gas_model(
            32, convert_nbody=converter, rng=5
        )
        gas.position = gas.position * 0.05 + Quantity(
            np.array([3.0, 0.0, 0.0]) * 1.5e16, units.m
        )
        gas.u = gas.u * 0.01
        hydro = Gadget(converter, n_neighbours=8, self_gravity=False)
        hydro.add_particles(gas)
        coupling = Fi(converter)
        bridge = Bridge(timestep=Quantity(0.02, units.Myr))
        bridge.add_system(hydro, [CouplingField(coupling, [gravity])])
        bridge.add_system(gravity, [])
        bridge.evolve_model(0.04 | units.Myr)
        vx = hydro.particles.velocity.value_in(units.kms)[:, 0]
        assert vx.mean() < 0.0   # falling toward the origin
        bridge.stop()


def _sphere(converter, n, rng, offset_pc):
    sphere = new_plummer_model(n, convert_nbody=converter, rng=rng)
    sphere.position = sphere.position + (
        np.array([offset_pc, 0.0, 0.0]) | units.parsec
    )
    return sphere


def make_chatty_bridge(converter, channel_type="direct",
                       providers="codes"):
    """Two PhiGRAPE spheres kicking each other: directly (each system
    code is the other's field provider) or through CouplingFields that
    share one Fi."""
    codes = []
    for k in range(2):
        code = PhiGRAPE(converter, channel_type=channel_type,
                        eps2=1e-2, eta=0.5)
        code.add_particles(_sphere(converter, 16, k, 2.0 * k))
        code.commit_particles()
        codes.append(code)
    field_codes = []
    if providers == "codes":
        partners = [[codes[1]], [codes[0]]]
    else:
        coupling = Fi(converter, channel_type=channel_type)
        field_codes.append(coupling)
        partners = [[CouplingField(coupling, [codes[1]])],
                    [CouplingField(coupling, [codes[0]])]]
    bridge = Bridge(timestep=Quantity(0.01, units.Myr))
    for code, provider in zip(codes, partners, strict=True):
        bridge.add_system(code, provider)
    return bridge, codes, field_codes


def count_calls(codes):
    """Count the worker methods called through the codes' current
    channels, by name."""
    counter = collections.Counter()
    for code in codes:
        channel = code.channel
        original = channel.async_call

        def counted(method, *args, _original=original, **kwargs):
            counter[method] += 1
            return _original(method, *args, **kwargs)

        channel.async_call = counted
    return counter


def one_step(bridge, evolve):
    evolve(bridge, bridge.time + bridge.timestep)


def mirror_state(code):
    return (code.particles.position.number.copy(),
            code.particles.velocity.number.copy())


class TestFieldReuse:
    """A kick moves no particle, so a first kick's field inputs usually
    equal the previous second kick's: the bridge reuses that sum.  The
    oracle, ``barrier_evolve``, evaluates every field, so equality with
    it shows the reuse is exact."""

    @pytest.mark.parametrize("channel_type", [
        "direct", pytest.param("sockets", marks=pytest.mark.network),
    ])
    @pytest.mark.parametrize("providers", ["codes", "coupling_field"])
    def test_one_step_calls_match_the_oracle(self, converter,
                                             channel_type, providers):
        steps = 20
        runs = []
        for evolve in (Bridge.evolve_model, barrier_evolve):
            bridge, codes, field_codes = make_chatty_bridge(
                converter, channel_type, providers
            )
            calls = count_calls(codes + field_codes)
            for _ in range(steps):
                one_step(bridge, evolve)
            runs.append((
                [mirror_state(code) for code in codes],
                calls["get_gravity_at_point"],
            ))
            bridge.stop()
            for code in field_codes:
                code.stop()
        (graph_state, graph_queries), (oracle_state, oracle_queries) = runs
        for (pos, vel), (ref_pos, ref_vel) in zip(
                graph_state, oracle_state, strict=True):
            assert np.array_equal(pos, ref_pos)
            assert np.array_equal(vel, ref_vel)
        # every field once per kick for the oracle; the bridge
        # evaluates both fields of the first step and only the second
        # kicks' afterwards
        assert oracle_queries == 2 * 2 * steps
        assert graph_queries == 2 * (steps + 1)


def _make_static_partner_bridge(converter):
    """A kicked system feeling a system code directly and a
    CouplingField over a third code.  Neither provider is registered,
    so nothing but the test's edits changes them between steps."""
    kicked = PhiGRAPE(converter, eta=0.1)
    kicked.add_particles(_sphere(converter, 16, 0, 0.0))
    direct = PhiGRAPE(converter)
    direct.add_particles(_sphere(converter, 16, 1, 2.0))
    source = PhiGRAPE(converter)
    source.add_particles(_sphere(converter, 16, 2, -2.0))
    coupling = Fi(converter)
    bridge = Bridge(timestep=Quantity(0.01, units.Myr))
    bridge.add_system(
        kicked, [direct, CouplingField(coupling, [source])]
    )
    return bridge, SimpleNamespace(
        kicked=kicked, direct=direct, source=source, coupling=coupling,
        converter=converter,
    )


def _stop(codes):
    for code in (codes.kicked, codes.direct, codes.source,
                 codes.coupling):
        code.stop()


def _scaled(codes, name, attr, factor):
    """Edit the mirror of one code in place: the first particle's
    *attr* times *factor*, written through a subset."""
    particles = getattr(codes, name).particles[:1]
    setattr(particles, attr, getattr(particles, attr) * factor)


#: edits between two steps -> whether the next first kick must
#: evaluate its fields again
_EDITS = {
    "push_masses": (True, lambda c: (
        _scaled(c, "direct", "mass", 3.0), c.direct.push_masses())),
    "push_state": (True, lambda c: (
        _scaled(c, "direct", "position", 1.1), c.direct.push_state())),
    "evolve_model": (True, lambda c: c.direct.evolve_model(
        0.005 | units.Myr)),
    "parameter_eps2": (True, lambda c: setattr(
        c.direct.parameters, "eps2", 0.05)),
    "add_particles": (True, lambda c: c.direct.add_particles(
        _sphere(c.converter, 4, 9, 2.5))),
    "restart_worker": (True, lambda c: c.direct.restart_worker()),
    "kicked_mirror_position": (True, lambda c: _scaled(
        c, "kicked", "position", 1.01)),
    "field_source_mirror_mass": (True, lambda c: _scaled(
        c, "source", "mass", 2.0)),
    "partner_kick": (False, lambda c: c.direct.kick(
        np.ones((16, 3)) | units.kms)),
    "nothing": (False, lambda c: None),
}


class TestFieldInvalidation:
    @pytest.mark.parametrize("edit", list(_EDITS))
    def test_edit_between_steps(self, converter, edit):
        requery, apply = _EDITS[edit]
        results = []
        for evolve in (Bridge.evolve_model, barrier_evolve):
            bridge, codes = _make_static_partner_bridge(converter)
            one_step(bridge, evolve)
            apply(codes)
            calls = count_calls([codes.direct, codes.coupling])
            one_step(bridge, evolve)
            results.append((
                mirror_state(codes.kicked),
                calls["get_gravity_at_point"],
            ))
            _stop(codes)
        (state, queries), (ref_state, ref_queries) = results
        assert np.array_equal(state[0], ref_state[0])
        assert np.array_equal(state[1], ref_state[1])
        # two providers, two kicks: the oracle always asks four times;
        # the bridge skips the first kick's pair unless the edit
        # changed one of its inputs
        assert ref_queries == 4
        assert queries == (4 if requery else 2)

    def test_partner_without_epoch_is_always_queried(self, converter):
        """A duck-typed provider keeps no epoch, so its field can never
        be told unchanged."""
        bridge, codes = _make_static_partner_bridge(converter)
        bare = SimpleNamespace(
            get_gravity_at_point=codes.direct.get_gravity_at_point
        )
        bridge.systems[0][1][0] = bare
        one_step(bridge, Bridge.evolve_model)
        calls = count_calls([codes.direct])
        one_step(bridge, Bridge.evolve_model)
        assert calls["get_gravity_at_point"] == 2
        _stop(codes)


@pytest.mark.network
class TestStepFrames:
    def test_steady_step_on_sockets(self, converter):
        """A step after the first sends, per system: its first kick,
        the evolve, the mirror refresh's getters in one frame, the
        partner's second-kick field query and its own second kick —
        ten request frames carrying fourteen calls for the pair."""
        bridge, codes, _ = make_chatty_bridge(converter, "sockets")
        one_step(bridge, Bridge.evolve_model)
        sent = {}
        for code in codes:
            frames = sent[id(code)] = []
            original = code.channel._send_frame_locked
            code.channel._send_frame_locked = (
                lambda message, frames=frames, original=original:
                (frames.append(message), original(message))[1]
            )
        one_step(bridge, Bridge.evolve_model)
        messages = [m for frames in sent.values() for m in frames]
        calls = sum(
            len(m[2]) if m[0] == "mcall" else 1 for m in messages
        )
        assert (len(messages), calls) == (10, 14)
        for frames in sent.values():
            kinds = [
                (m[0], m[2] if m[0] == "call"
                 else tuple(c[0] for c in m[2]))
                for m in frames
            ]
            evolve = kinds.index(("call", "evolve_model"))
            assert kinds[evolve + 1] == (
                "mcall", ("get_mass", "get_position", "get_velocity")
            )
        bridge.stop()
