"""InCodeParticleStorage: the id -> row lookup on the sorted id array.

The storage is checked against the dict-of-rows implementation it
replaced (kept here as the oracle), its cost is pinned by counting
interpreter instructions instead of reading a clock, and the whole-set and
partial-set paths are driven through the high-level codes.
"""

import gc
import sys

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.codes import Gadget, PhiGRAPE
from repro.codes.base import InCodeParticleStorage
from repro.ic import new_plummer_gas_model, new_plummer_model
from repro.units import nbody as nbody_system
from repro.units.core import Quantity

FIELDS = {"mass": 1, "pos": 3}


class DictRowStorage:
    """The storage as it was: a dict from id to row, filled and read
    one id at a time.  Slow, obviously right — the reference."""

    def __init__(self, fields):
        self.arrays = {
            name: np.empty((0, dim)) if dim > 1 else np.empty(0)
            for name, dim in fields.items()
        }
        self.ids = np.empty(0, dtype=np.int64)
        self._id_to_row = {}
        self._next_id = 0

    def add(self, **values):
        n = len(next(iter(values.values())))
        new_ids = np.arange(self._next_id, self._next_id + n, dtype=np.int64)
        self._next_id += n
        for name, block in values.items():
            self.arrays[name] = np.concatenate([self.arrays[name], block])
        for pid in new_ids:
            self._id_to_row[int(pid)] = len(self._id_to_row)
        self.ids = np.concatenate([self.ids, new_ids])
        return new_ids

    def rows(self, ids):
        try:
            return np.array(
                [self._id_to_row[int(i)] for i in ids], dtype=np.intp
            )
        except KeyError as exc:
            raise KeyError(f"unknown particle id {exc}") from None

    def get(self, name, ids):
        return self.arrays[name][self.rows(ids)]

    def set(self, name, values, ids):
        self.arrays[name][self.rows(ids)] = values

    def add_to(self, name, values, ids):
        self.arrays[name][self.rows(ids)] += values

    def remove(self, ids):
        keep = np.ones(len(self.ids), dtype=bool)
        keep[self.rows(ids)] = False
        for name in self.arrays:
            self.arrays[name] = self.arrays[name][keep]
        self.ids = self.ids[keep]
        self._id_to_row = {
            int(pid): row for row, pid in enumerate(self.ids)
        }


REQUEST_KINDS = ("whole", "permutation", "subset", "repeats", "empty")


class StorageMachine(RuleBasedStateMachine):
    """Random interleavings of add / remove / get / set / add_to on the
    storage and on the oracle, with every shape of id request."""

    def __init__(self):
        super().__init__()
        self.real = InCodeParticleStorage(FIELDS)
        self.oracle = DictRowStorage(FIELDS)

    def request(self, data, kind):
        ids = self.real.ids
        if kind == "empty" or not len(ids):
            return ids[:0]
        if kind == "whole":
            return ids.copy()
        if kind == "permutation":
            return np.array(data.draw(st.permutations(list(ids))))
        if kind == "subset":
            return ids[np.array(
                data.draw(st.lists(st.booleans(), min_size=len(ids),
                                   max_size=len(ids))))]
        if kind == "repeats":
            return np.array(data.draw(
                st.lists(st.sampled_from(list(ids)), min_size=2,
                         max_size=2 * len(ids))))
        raise ValueError(kind)

    def values(self, data, name, n):
        shape = (n, 3) if FIELDS[name] > 1 else (n,)
        seed = data.draw(st.integers(0, 2 ** 16))
        return np.random.default_rng(seed).normal(size=shape)

    @rule(n=st.integers(1, 6), data=st.data())
    def add(self, n, data):
        mass = self.values(data, "mass", n)
        pos = self.values(data, "pos", n)
        assert np.array_equal(
            self.real.add(mass=mass, pos=pos),
            self.oracle.add(mass=mass, pos=pos),
        )

    @rule(kind=st.sampled_from(REQUEST_KINDS), data=st.data())
    def remove(self, kind, data):
        ids = self.request(data, kind)
        self.real.remove(ids)
        self.oracle.remove(ids)

    @rule(kind=st.sampled_from(REQUEST_KINDS),
          name=st.sampled_from(sorted(FIELDS)), data=st.data())
    def get(self, kind, name, data):
        ids = self.request(data, kind)
        got = self.real.get(name, ids)
        assert np.array_equal(got, self.oracle.get(name, ids))
        # a fresh array for ANY ids, the whole set included
        assert not np.shares_memory(got, self.real.arrays[name])
        assert np.array_equal(
            self.real.arrays[name][self.real.rows(ids)], got
        )

    @rule(kind=st.sampled_from(REQUEST_KINDS),
          name=st.sampled_from(sorted(FIELDS)),
          op=st.sampled_from(("set", "add_to")), data=st.data())
    def write(self, kind, name, op, data):
        ids = self.request(data, kind)
        values = self.values(data, name, len(ids))
        getattr(self.real, op)(name, values, ids)
        getattr(self.oracle, op)(name, values.copy(), ids)

    @rule(kind=st.sampled_from(REQUEST_KINDS),
          op=st.sampled_from(("rows", "get", "set", "add_to", "remove")),
          bad=st.sampled_from(("negative", "past_the_end", "hole")),
          data=st.data())
    def unknown_id(self, kind, op, bad, data):
        """One id the storage does not hold, anywhere in the request:
        KeyError naming the first such id, nothing written."""
        ids = self.request(data, kind)
        holes = np.setdiff1d(
            np.arange(self.real._next_id), self.real.ids
        )
        if bad == "hole" and not len(holes):
            bad = "past_the_end"
        unknown = {
            "negative": -data.draw(st.integers(1, 5)),
            "past_the_end": self.real._next_id + data.draw(
                st.integers(0, 5)),
            "hole": int(holes[0]) if len(holes) else None,
        }[bad]
        at = data.draw(st.integers(0, len(ids)))
        ids = np.insert(ids, at, unknown)
        if data.draw(st.booleans()):
            # a second, different miss later on must not be the one named
            ids = np.append(ids, unknown - 1 if unknown < 0 else unknown + 9)
        args = {
            "rows": (ids,), "remove": (ids,), "get": ("pos", ids),
            "set": ("pos", np.zeros((len(ids), 3)), ids),
            "add_to": ("pos", np.ones((len(ids), 3)), ids),
        }[op]
        with pytest.raises(KeyError) as real_error:
            getattr(self.real, op)(*args)
        with pytest.raises(KeyError) as oracle_error:
            getattr(self.oracle, op)(*args)
        assert real_error.value.args == oracle_error.value.args
        assert real_error.value.args == (f"unknown particle id {unknown}",)

    @invariant()
    def ids_strictly_ascending(self):
        assert np.all(np.diff(self.real.ids) > 0)

    @invariant()
    def agrees_with_oracle(self):
        assert np.array_equal(self.real.ids, self.oracle.ids)
        assert len(self.real) == len(self.oracle.ids)
        for name in FIELDS:
            assert np.array_equal(
                self.real.arrays[name], self.oracle.arrays[name]
            )


TestStorageAgainstOracle = StorageMachine.TestCase
TestStorageAgainstOracle.settings = settings(
    max_examples=150, stateful_step_count=25, deadline=None
)


class TestRequests:
    def test_empty_storage(self):
        storage = InCodeParticleStorage(FIELDS)
        assert len(storage.get("pos", [])) == 0
        with pytest.raises(KeyError, match="unknown particle id 0"):
            storage.rows([0])

    def test_scalar_list_and_float_ids(self):
        storage = InCodeParticleStorage(FIELDS)
        storage.add(mass=[1.0, 2.0, 3.0])
        storage.remove([1])
        assert storage.get("mass", 2) == [3.0]
        assert list(storage.get("mass", [2, 0])) == [3.0, 1.0]
        assert list(storage.get("mass", np.array([2.0, 0.0]))) == [3.0, 1.0]
        with pytest.raises(KeyError, match="unknown particle id 1"):
            storage.get("mass", [0, 1, 7])

    def test_ids_none_is_the_live_array(self):
        """The kernels' own access: no ids, no copy."""
        storage = InCodeParticleStorage(FIELDS)
        storage.add(mass=[1.0, 2.0])
        assert storage.get("mass") is storage.arrays["mass"]


def count_opcodes(call):
    """Bytecode instructions the interpreter executes while *call*
    runs, in every Python frame below it (numpy's own Python wrappers
    included): the interpreted work, exactly, with no clock involved.
    (``sys.setprofile`` call/c_call counts would not do: CPython
    reports no event for ``int(i)`` — a type call — so the per-id loop
    this pins against is invisible to it.)"""
    count = 0

    def tracer(frame, event, _arg):
        nonlocal count
        if event == "call":
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
        elif event == "opcode":
            count += 1
        return tracer

    previous = sys.gettrace()      # a coverage run has its own tracer
    gc.disable()                   # finalizers would run, traced, here
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
        gc.enable()
    return count


class TestNoPerIdPythonWork:
    """The interpreter executes the same number of instructions for
    1 000 and for 100 000 particles: everything per particle happens
    inside numpy.  (The comprehension this replaces ran a handful of
    instructions per id.)"""

    @classmethod
    def instructions(cls, op, request_ids, n):
        """Fewest of three counts, each on a fresh storage: whatever
        else the interpreter squeezes in between two instructions of
        this thread (a signal handler, say) only ever adds."""
        return min(cls.count(op, request_ids, n) for _ in range(3))

    @staticmethod
    def count(op, request_ids, n):
        rng = np.random.default_rng(n)
        storage = InCodeParticleStorage({"mass": 1, "pos": 3})
        ids = storage.add(mass=rng.random(n), pos=rng.random((n, 3)))
        values = rng.random((n, 3))
        if request_ids == "permuted":
            ids = rng.permutation(ids)
        return count_opcodes({
            "get": lambda: storage.get("pos", ids),
            "set": lambda: storage.set("pos", values, ids),
            "add_to": lambda: storage.add_to("pos", values, ids),
            "remove": lambda: storage.remove(
                ids if request_ids == "whole" else ids[: n // 2]),
            "add": lambda: storage.add(mass=values[:, 0], pos=values),
        }[op])

    @pytest.mark.parametrize("request_ids", ["whole", "permuted"])
    @pytest.mark.parametrize("op", ["get", "set", "add_to", "remove"])
    def test_instruction_count_independent_of_n(self, op, request_ids):
        assert self.instructions(op, request_ids, 1_000) \
            == self.instructions(op, request_ids, 100_000)

    def test_add(self):
        assert self.instructions("add", None, 1_000) \
            == self.instructions("add", None, 100_000)


CHANNELS_LOCAL = ["direct", "sockets"]
CHANNELS_PARTIAL = ["direct", "subprocess"]


class TestMirrorIsolation:
    def test_direct_generic_units_share_no_memory(self):
        """direct channel, no converter: no copy on the wire and no
        unit conversion — the fresh array of ``get`` is what keeps the
        mirror and the worker apart."""
        code = PhiGRAPE()
        code.add_particles(new_plummer_model(16, rng=3))
        code.pull_state()
        worker = code.channel.interface.storage.arrays
        mirror = code.particles
        for attr, name in (("mass", "mass"), ("position", "pos"),
                           ("velocity", "vel")):
            held = getattr(mirror, attr).number
            assert not np.shares_memory(held, worker[name])
            before = worker[name].copy()
            held += 1.0
            assert np.array_equal(worker[name], before)
            snapshot = held.copy()
            worker[name] *= 2.0
            assert np.array_equal(getattr(mirror, attr).number, snapshot)
        code.stop()


class TestGadgetPush:
    """``Gadget.push_state`` / ``push_masses`` used to die on
    ``'GadgetInterface' object has no attribute 'set_mass'`` and never
    sent ``u``."""

    @pytest.mark.parametrize("channel_type", CHANNELS_LOCAL)
    def test_push_then_pull_round_trips_bit_for_bit(self, channel_type):
        gas = new_plummer_gas_model(16, rng=5)
        code = Gadget(channel_type=channel_type)
        code.add_particles(gas)
        rng = np.random.default_rng(0)
        mirror = code.particles
        mirror.mass = Quantity(rng.random(16), nbody_system.mass)
        mirror.position = Quantity(
            rng.normal(size=(16, 3)), nbody_system.length)
        mirror.velocity = Quantity(
            rng.normal(size=(16, 3)), nbody_system.speed)
        mirror.u = Quantity(rng.random(16), nbody_system.speed ** 2)
        pushed = {
            attr: getattr(mirror, attr).number.copy()
            for attr in ("mass", "position", "velocity", "u")
        }
        code.push_state()
        for attr in pushed:
            getattr(mirror, attr).number[...] = -1.0
        code.pull_state()
        for attr, sent in pushed.items():
            assert np.array_equal(getattr(mirror, attr).number, sent)
        code.stop()

    @pytest.mark.parametrize("channel_type", CHANNELS_LOCAL)
    def test_push_masses_reaches_the_worker(self, channel_type):
        code = Gadget(channel_type=channel_type)
        code.add_particles(new_plummer_gas_model(16, rng=5))
        masses = np.linspace(0.1, 0.2, 16)
        code.particles.mass = Quantity(masses, nbody_system.mass)
        code.push_masses()
        assert np.array_equal(
            code.channel.call("get_mass", code._ids), masses
        )
        code.stop()


class TestPartialSetThroughTheStack:
    """With some particles deleted behind the wrapper's back the ids a
    code asks for are a strict subset of the storage — the binary
    search path — and must act exactly like a code that only ever held
    the survivors (the whole-set path)."""

    N = 24
    GONE = [1, 2, 9, 23]

    def pair(self, cls, model, channel_type):
        """(code with GONE deleted on the worker, fresh code holding
        only the survivors), both asking for the survivors' ids."""
        survivors = np.setdiff1d(np.arange(self.N), self.GONE)
        partial = cls(channel_type=channel_type)
        partial.add_particles(model)
        partial.channel.call("delete_particle", partial._ids[self.GONE])
        partial._ids = partial._ids[survivors]
        fresh = cls(channel_type=channel_type)
        fresh.add_particles(model[survivors])
        return partial, fresh

    @staticmethod
    def worker_state(code, getters):
        return [code.channel.call(g, code._ids) for g in getters]

    @pytest.mark.parametrize("channel_type", CHANNELS_PARTIAL)
    def test_kick_and_getters(self, channel_type):
        partial, fresh = self.pair(
            PhiGRAPE, new_plummer_model(self.N, rng=11), channel_type
        )
        delta = Quantity(
            np.random.default_rng(1).normal(size=(self.N - 4, 3)),
            nbody_system.speed,
        )
        getters = ("get_mass", "get_position", "get_velocity")
        for code in (partial, fresh):
            code.kick(delta)
        for a, b in zip(self.worker_state(partial, getters),
                        self.worker_state(fresh, getters), strict=True):
            assert np.array_equal(a, b)
        for code in (partial, fresh):
            code.stop()

    @pytest.mark.parametrize("channel_type", CHANNELS_PARTIAL)
    def test_gadget_inject_energy(self, channel_type):
        partial, fresh = self.pair(
            Gadget, new_plummer_gas_model(self.N, rng=11), channel_type
        )
        subset = [0, 5, 19]
        du = Quantity([0.5, 0.25, 0.125], nbody_system.speed ** 2)
        getters = ("get_internal_energy", "get_velocity", "get_potential")
        for code in (partial, fresh):
            code.kick(Quantity(np.full((self.N - 4, 3), 0.5),
                               nbody_system.speed))
            code.inject_energy(subset, du)
        for a, b in zip(self.worker_state(partial, getters),
                        self.worker_state(fresh, getters), strict=True):
            assert np.array_equal(a, b)
        for code in (partial, fresh):
            code.stop()
