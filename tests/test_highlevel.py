"""High-level code wrapper tests: units at the boundary, mirrors."""

import contextlib

import numpy as np
import pytest

from repro.codes import SSE, Fi, Gadget, Octgrav, PhiGRAPE
from repro.codes.base import CodeStateError
from repro.distributed import IbisDaemon, connect
from repro.ic import new_plummer_gas_model, new_plummer_model
from repro.rpc import Future, remote_method
from repro.units import nbody_system, units


@pytest.fixture
def converter():
    return nbody_system.nbody_to_si(
        1000.0 | units.MSun, 1.0 | units.parsec
    )


@pytest.fixture
def stars(converter):
    return new_plummer_model(32, convert_nbody=converter, rng=0)


class TestGravityWrapper:
    def test_add_particles_mirrors_keys(self, converter, stars):
        grav = PhiGRAPE(converter)
        grav.add_particles(stars)
        assert np.array_equal(grav.particles.key, stars.key)
        grav.stop()

    def test_units_converted_on_boundary(self, converter, stars):
        grav = PhiGRAPE(converter)
        grav.add_particles(stars)
        mass_nbody = grav.channel.call("get_mass")
        assert mass_nbody.sum() == pytest.approx(1.0)
        grav.stop()

    def test_evolve_and_pull(self, converter, stars):
        grav = PhiGRAPE(converter, eta=0.05)
        grav.add_particles(stars)
        before = stars.position.value_in(units.m).copy()
        grav.evolve_model(0.1 | units.Myr)
        after = grav.particles.position.value_in(units.m)
        assert not np.allclose(before, after)
        assert grav.model_time.value_in(units.Myr) == pytest.approx(
            0.1, rel=1e-6
        )
        grav.stop()

    def test_energies_in_si(self, converter, stars):
        grav = PhiGRAPE(converter)
        grav.add_particles(stars)
        ke = grav.kinetic_energy.value_in(units.J)
        pe = grav.potential_energy.value_in(units.J)
        assert ke > 0 and pe < 0
        assert grav.total_energy.value_in(units.J) == pytest.approx(
            ke + pe, rel=1e-9
        )
        grav.stop()

    def test_virial_ratio_of_plummer(self, converter, stars):
        grav = PhiGRAPE(converter)
        grav.add_particles(stars)
        q = -grav.kinetic_energy.value_in(units.J) / \
            grav.potential_energy.value_in(units.J)
        # code-side softening (eps2) shifts the PE slightly
        assert q == pytest.approx(0.5, rel=1e-2)
        grav.stop()

    def test_generic_mode_without_converter(self):
        p = new_plummer_model(16, rng=1)
        grav = PhiGRAPE()
        grav.add_particles(p)
        assert grav.kinetic_energy.number == pytest.approx(
            0.25, rel=1e-6
        )
        grav.stop()

    def test_push_masses(self, converter, stars):
        grav = PhiGRAPE(converter)
        grav.add_particles(stars)
        grav.particles.mass = grav.particles.mass * 0.5
        grav.push_masses()
        assert grav.channel.call("get_mass").sum() == pytest.approx(
            0.5
        )
        grav.stop()

    def test_kick(self, converter, stars):
        grav = PhiGRAPE(converter)
        grav.add_particles(stars)
        dv = np.ones((32, 3)) | units.kms
        grav.kick(dv)
        vel = grav.channel.call("get_velocity")
        expected = converter.to_nbody(1.0 | units.kms).number
        assert vel[:, 0].mean() == pytest.approx(expected, rel=1e-2)
        grav.stop()

    def test_gravity_at_point_quantity(self, converter, stars):
        grav = PhiGRAPE(converter)
        grav.add_particles(stars)
        acc = grav.get_gravity_at_point(
            0.01 | units.parsec, stars.position
        )
        assert acc.unit.powers == (
            units.m / units.s ** 2).base_form().powers
        grav.stop()

    def test_parameters_proxy(self, converter):
        grav = PhiGRAPE(converter, eta=0.123)
        assert grav.parameters.eta == 0.123
        with pytest.raises(AttributeError):
            grav.parameters.nonexistent
        grav.stop()

    def test_channel_type_sockets(self, converter, stars):
        grav = PhiGRAPE(converter, channel_type="sockets", eta=0.05)
        grav.add_particles(stars)
        grav.evolve_model(0.02 | units.Myr)
        assert grav.channel.kind == "sockets"
        grav.stop()


_network = pytest.mark.network


class TestMirrorAfterEvolve:
    """The mirror refresh's getters travel right behind the evolve on
    the same connection without waiting for its reply, so every
    channel must run a connection's frames in order: after the join
    the mirror holds exactly what the worker's getters return."""

    @staticmethod
    def _placed(stack, kind, cls, converter):
        args = () if cls is SSE else (converter,)
        if kind in ("relay", "decoded"):
            daemon = IbisDaemon()
            daemon.start()
            stack.callback(daemon.shutdown)
            session = stack.enter_context(
                connect(daemon, relay=kind == "relay")
            )
            code = session.code(cls, *args, channel_type="thread")
        else:
            code = cls(*args, channel_type=kind)
        stack.callback(code.shutdown)
        return code

    @staticmethod
    def _worker_columns(code):
        """Each mirror attribute as the worker's getters give it,
        converted the way the mirror refresh converts it."""
        if isinstance(code, SSE):
            mass, radius, lum, teff, stype = code.channel.call(
                "get_state", code._ids
            )
            return {
                "mass": mass, "radius": radius, "luminosity": lum,
                "temperature": teff, "stellar_type": np.asarray(stype),
            }
        return {
            attr: code._from_code(
                code.channel.call(getter, code._ids), unit
            ).number
            for getter, _setter, attr, unit in code._STATE_ATTRS
        }

    @pytest.mark.parametrize("kind", [
        "direct",
        pytest.param("sockets", marks=_network),
        pytest.param("subprocess", marks=_network),
        pytest.param("shm", marks=_network),
        pytest.param("relay", marks=_network),
        pytest.param("decoded", marks=_network),
    ])
    @pytest.mark.parametrize("cls", [PhiGRAPE, SSE],
                             ids=lambda c: c.__name__)
    def test_mirror_equals_worker_getters(self, converter, kind, cls):
        particles = new_plummer_model(
            16, convert_nbody=converter, rng=3
        )
        if cls is SSE:
            particles.mass = np.linspace(1.0, 30.0, 16) | units.MSun
            end = 20.0 | units.Myr
        else:
            end = 0.05 | units.Myr
        with contextlib.ExitStack() as stack:
            code = self._placed(stack, kind, cls, converter)
            code.add_particles(particles)
            before = code.particles.copy()
            code.evolve_model(end)
            worker = self._worker_columns(code)
            moved = "position" if cls is PhiGRAPE else "radius"
            assert not np.array_equal(
                getattr(before, moved).number, worker[moved]
            )
            for attr, value in worker.items():
                mirror = getattr(code.particles, attr)
                assert np.array_equal(
                    getattr(mirror, "number", mirror), value
                ), attr


_PLACEMENTS = [
    "direct",
    pytest.param("sockets", marks=_network),
    pytest.param("subprocess", marks=_network),
    pytest.param("shm", marks=_network),
    pytest.param("relay", marks=_network),
]


class TestMirrorOwnsItsColumns:
    """A whole-set pull hands the mirror columns that nothing else
    holds, so the mirror and the worker change only through the pulls
    and pushes between them — on every placement, the in-process one
    included.  Generic units: no conversion makes a copy that would
    hide an alias."""

    N = 16

    def _loaded(self, stack, kind):
        code = TestMirrorAfterEvolve._placed(stack, kind, PhiGRAPE, None)
        code.add_particles(new_plummer_model(self.N, rng=3))
        return code

    @pytest.mark.parametrize("kind", _PLACEMENTS)
    def test_worker_kick_reaches_the_mirror_at_the_next_pull(self, kind):
        with contextlib.ExitStack() as stack:
            code = self._loaded(stack, kind)
            code.pull_state()
            pulled = code.particles.velocity.number.copy()
            code.kick(nbody_system.speed.as_quantity()
                      * np.ones((self.N, 3)))
            assert np.array_equal(code.particles.velocity.number, pulled)
            code.pull_state()
            assert np.array_equal(
                code.particles.velocity.number, pulled + 1.0
            )

    @pytest.mark.parametrize("kind", _PLACEMENTS)
    def test_mirror_edit_reaches_the_worker_at_the_next_push(self, kind):
        with contextlib.ExitStack() as stack:
            code = self._loaded(stack, kind)
            code.pull_state()
            worker = code.channel.call("get_velocity")
            code.particles.velocity.number[...] += 1.0
            assert np.array_equal(code.channel.call("get_velocity"), worker)
            code.push_state()
            pushed = code.particles.velocity.number.copy()
            assert np.array_equal(code.channel.call("get_velocity"), pushed)
            code.particles.velocity.number[...] += 1.0
            assert np.array_equal(code.channel.call("get_velocity"), pushed)

    @pytest.mark.parametrize("cls, columns", [
        (PhiGRAPE, {"get_mass": "mass", "get_position": "pos",
                    "get_velocity": "vel"}),
        (Gadget, {"get_internal_energy": "u", "get_density": "rho",
                  "get_smoothing_length": "h"}),
        (SSE, {"get_mass": "mass", "get_radius": "radius",
               "get_luminosity": "luminosity",
               "get_temperature": "temperature", "get_age": "age"}),
    ], ids=lambda v: getattr(v, "__name__", "columns"))
    def test_direct_whole_set_getters_copy(self, cls, columns):
        code = cls() if cls is SSE else cls(None)
        particles = new_plummer_gas_model(self.N, rng=3) \
            if cls is Gadget else new_plummer_model(self.N, rng=3)
        if cls is SSE:
            particles.mass = np.linspace(1.0, 30.0, self.N) | units.MSun
        code.add_particles(particles)
        interface = code.channel.interface
        results = [getattr(interface, g)() for g in columns]
        if cls is SSE:
            results += list(interface.get_state())
        stored = [interface.storage.arrays[f] for f in columns.values()]
        for result in results:
            for live in stored:
                assert result is not live
                assert not np.shares_memory(result, live)
        code.stop()

    @_network
    def test_pull_request_bytes_do_not_grow_with_n(self):
        sent = []
        for n in (10, 10_000):
            code = PhiGRAPE(channel_type="sockets")
            code.add_particles(
                new_plummer_model(n, rng=3, do_scale=False))
            before = code.channel.transport_stats["bytes_sent"]
            code.pull_state()
            sent.append(code.channel.transport_stats["bytes_sent"]
                        - before)
            code.stop()
        assert sent[0] == sent[1]


class TestHydroWrapper:
    def test_add_gas_with_internal_energy(self, converter):
        gas = new_plummer_gas_model(64, convert_nbody=converter, rng=2)
        hydro = Gadget(converter)
        hydro.add_particles(gas)
        assert hydro.particles.u.value_in(
            units.J / units.kg).min() > 0
        hydro.stop()

    def test_inject_energy(self, converter):
        gas = new_plummer_gas_model(64, convert_nbody=converter, rng=2)
        hydro = Gadget(converter)
        hydro.add_particles(gas)
        e0 = hydro.thermal_energy.value_in(units.J)
        hydro.inject_energy([0, 1], 1e10 | units.J / units.kg)
        assert hydro.thermal_energy.value_in(units.J) > e0
        hydro.stop()

    def test_evolve_pulls_u(self, converter):
        gas = new_plummer_gas_model(64, convert_nbody=converter, rng=2)
        hydro = Gadget(converter)
        hydro.add_particles(gas)
        hydro.evolve_model(0.01 | units.Myr)
        assert hydro.particles.u.value_in(
            units.J / units.kg).shape == (64,)
        hydro.stop()


class TestSSEWrapper:
    def test_stellar_state_units(self):
        se = SSE()
        p = new_plummer_model(4, rng=3)
        p.mass = np.array([1.0, 5.0, 12.0, 30.0]) | units.MSun
        se.add_particles(p)
        se.evolve_model(30.0 | units.Myr)
        assert se.particles.radius.unit.powers == units.m.powers
        assert se.particles.temperature.value_in(units.K).min() > 0
        types = np.asarray(se.particles.stellar_type)
        assert types[3] == 14      # 30 MSun -> black hole by 30 Myr
        se.stop()

    def test_time_of_next_supernova_quantity(self):
        se = SSE()
        p = new_plummer_model(2, rng=4)
        p.mass = np.array([9.0, 1.0]) | units.MSun
        se.add_particles(p)
        t_sn = se.time_of_next_supernova()
        assert 20.0 < t_sn.value_in(units.Myr) < 50.0
        se.stop()


_GRAVITY_ROWS = (
    "get_model_time", "get_kinetic_energy", "get_potential_energy",
    "get_total_energy", "get_gravity_at_point", "get_potential_at_point",
    "kick", "push_masses",
)
#: every derived remote operation of each code: the rows of its table
_ROWS = {
    PhiGRAPE: _GRAVITY_ROWS,
    Fi: _GRAVITY_ROWS,
    Gadget: _GRAVITY_ROWS + (
        "get_potential", "get_thermal_energy", "inject_energy"),
    SSE: ("get_model_time", "time_of_next_supernova"),
}
_MUTATIONS = ("kick", "push_masses", "inject_energy")
#: the remote methods written by hand
_HAND_WRITTEN = {"evolve_model", "pull_state", "push_state"}


def _loaded_code(cls, converter):
    if cls is SSE:
        code = SSE()
        stars = new_plummer_model(4, rng=3)
        stars.mass = np.array([1.0, 5.0, 12.0, 30.0]) | units.MSun
        code.add_particles(stars)
    elif cls is Gadget:
        code = Gadget(converter)
        code.add_particles(
            new_plummer_gas_model(32, convert_nbody=converter, rng=2))
    else:
        code = cls(converter)
        code.add_particles(
            new_plummer_model(32, convert_nbody=converter, rng=0))
    return code


def _row_args(code, row):
    if row in ("get_gravity_at_point", "get_potential_at_point"):
        return (0.01 | units.parsec, code.particles.position)
    if row == "kick":
        return (np.ones((len(code.particles), 3)) | units.kms,)
    if row == "inject_energy":
        return ([0, 1], 1e10 | units.J / units.kg)
    return ()


class TestInterfaceTable:
    @pytest.mark.parametrize("cls", list(_ROWS), ids=lambda c: c.__name__)
    def test_rows_are_every_derived_remote_method(self, cls):
        remote = {
            name for name in dir(cls)
            if isinstance(getattr(cls, name), remote_method)
        }
        assert remote - _HAND_WRITTEN == set(_ROWS[cls])

    @pytest.mark.parametrize("cls, row", [
        (cls, row) for cls, rows in _ROWS.items() for row in rows
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_row(self, converter, cls, row):
        """The blocking call is its future's result; a mutation is
        refused while an evolve is in flight; nothing reaches a stopped
        code."""
        code = _loaded_code(cls, converter)
        args = _row_args(code, row)
        method = getattr(code, row)
        blocking = method(*args)
        future = method.async_(*args)
        assert isinstance(future, Future)
        joined = future.result()
        if blocking is None:
            assert joined is None
        else:
            assert joined.unit.powers == blocking.unit.powers
            assert np.array_equal(joined.number, blocking.number)
        if row in _MUTATIONS:
            evolving = code.evolve_model.async_(0.001 | units.Myr)
            with pytest.raises(CodeStateError, match="in flight"):
                method(*args)
            with pytest.raises(CodeStateError, match="in flight"):
                method.async_(*args)
            evolving.result()
            method(*args)          # legal again after the join
        code.stop()
        with pytest.raises(CodeStateError, match="stopped"):
            method(*args)
        with pytest.raises(CodeStateError, match="stopped"):
            method.async_(*args)

    def test_stopped_code_queries_and_parameters(self, converter):
        se = SSE()
        se.stop()
        with pytest.raises(CodeStateError, match="stopped"):
            se.time_of_next_supernova()
        grav = PhiGRAPE(converter, eta=0.125)
        grav.stop()
        with pytest.raises(CodeStateError, match="stopped"):
            grav.parameters.eta
        with pytest.raises(CodeStateError, match="stopped"):
            grav.parameters.eta = 0.25
        with pytest.raises(CodeStateError, match="stopped"):
            repr(grav.parameters)
        with pytest.raises(AttributeError):
            grav.parameters.nonexistent


class TestMultiKernelEquivalence:
    def test_octgrav_vs_fi_same_field(self, converter, stars):
        fields = []
        for cls in (Octgrav, Fi):
            code = cls(converter, theta=0.5)
            code.add_particles(stars)
            acc = code.get_gravity_at_point(
                0.01 | units.parsec, stars.position
            )
            fields.append(acc.value_in(units.m / units.s ** 2))
            code.stop()
        assert np.allclose(fields[0], fields[1], rtol=1e-8)
