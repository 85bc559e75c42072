"""Span tracing installed from outside, at the layers' public entry
points, for the separate traced run (``--trace``).

Nothing under ``src/`` knows about this module: :func:`install` wraps
functions and methods of the imported ``repro`` modules at run time.
A span is ``(name, layer, start, end, self_cpu, id, parent, op_id,
thread)``, kept in memory and written as Chrome trace-event JSON when
the run ends; ``start``/``end`` are ``perf_counter_ns`` ticks.

Self time is counted in *thread CPU time*: what the span's thread
burned between entry and exit, minus what its child spans burned.  A
thread blocked on a socket, a queue or the interpreter lock burns
nothing, so a layer is charged for the work it does and not for the
waiting it does while another thread works (wall-clock self times
charge one instant to every thread that is inside a span).
``budget.<layer>_share`` is the layer's CPU self time over the wall
clock of the timed ops; ``budget.residual`` is what no layer claimed:
idle time, untraced code (worker dispatch loops) and, as a negative
term, native code of two threads genuinely running at once.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from time import perf_counter_ns, thread_time_ns

#: layers a budget share is reported for
LAYERS = (
    "units", "datamodel", "kernels", "codes", "highlevel", "protocol",
    "channel", "taskgraph", "coupling",
)

_SKIPPED_DUNDERS = frozenset((
    "__init__", "__new__", "__hash__", "__eq__", "__ne__", "__repr__",
    "__str__", "__format__", "__len__", "__bool__", "__float__",
    "__iter__", "__setattr__", "__getattr__", "__enter__", "__exit__",
))


class Tracer:
    def __init__(self):
        self.spans = []
        #: index of the timed op in progress; spans outside ops (set-up,
        #: checks, teardown) are not kept
        self.op_id = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name, layer):
        spans = self.spans
        ids = self._ids
        local = self._local
        get_ident = threading.get_ident
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            frame = [next(ids), 0]      # span id, CPU ns of children
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter_ns()
            cpu_start = thread_time_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = thread_time_ns() - cpu_start
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += cpu
                if tracer.op_id >= 0:
                    spans.append((
                        name, layer, start, end, cpu - frame[1],
                        frame[0], parent, tracer.op_id, get_ident(),
                    ))

        return traced

    def budget(self):
        """``{budget.<layer>_share, budget.residual, spans_per_op}``
        over every span recorded inside a timed op."""
        self_ns = dict.fromkeys(LAYERS, 0)
        root_ns = 0
        ops = set()
        for _name, layer, start, end, own, _sid, _parent, op, _tid \
                in self.spans:
            if layer == "op":
                root_ns += end - start
                ops.add(op)
            elif layer in self_ns:
                self_ns[layer] += own
        out = {
            f"budget.{layer}_share": self_ns[layer] / root_ns
            for layer in LAYERS
        }
        out["budget.residual"] = 1.0 - sum(out.values())
        out["trace.spans_per_op"] = len(self.spans) / len(ops)
        return out

    def write_chrome_trace(self, path, max_ops=20):
        """Trace-event JSON (load in Perfetto / chrome://tracing); only
        the first *max_ops* ops, to keep chatty runs loadable."""
        threads = {}
        events = []
        for name, layer, start, end, own, sid, parent, op, tid \
                in self.spans:
            if op >= max_ops:
                continue
            events.append({
                "name": name, "cat": layer, "ph": "X",
                "ts": start / 1e3, "dur": (end - start) / 1e3,
                "pid": 1, "tid": threads.setdefault(tid, len(threads)),
                "args": {"op_id": op, "id": sid, "parent": parent,
                         "self_cpu_us": own / 1e3},
            })
        with open(path, "w") as out:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, out)


def _rebind(original, replacement):
    """Point every ``repro`` module namespace that imported *original*
    by name at *replacement*."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


def _wrap_functions(tracer, module, names, layer):
    for name in names:
        original = getattr(module, name)
        _rebind(original, tracer.wrap(
            original, f"{module.__name__.rpartition('.')[2]}.{name}", layer
        ))


def _wrap_class(tracer, cls, layer, private=False, extra=()):
    """Wrap the functions *cls* itself defines: public ones, dunder
    operators, with *private* also ``_helpers``; ``remote_method``
    descriptors get their async implementation wrapped."""
    from repro.rpc.futures import remote_method

    for name, attr in list(vars(cls).items()):
        label = f"{cls.__name__}.{name}"
        if isinstance(attr, remote_method):
            attr.async_impl = tracer.wrap(attr.async_impl, label, layer)
            continue
        if not callable(attr) or isinstance(attr, type):
            continue
        if isinstance(attr, (staticmethod, classmethod)):
            continue
        dunder = name.startswith("__")
        if name not in extra and (
            name in _SKIPPED_DUNDERS
            or (name.startswith("_") and not dunder and not private)
        ):
            continue
        setattr(cls, name, tracer.wrap(attr, label, layer))


def install(tracer):
    """Wrap every layer's entry points.  Call after the ``repro``
    modules are imported and before the workload builds its models."""
    from repro.codes import base, gadget, highlevel, kernels, phigrape
    from repro.codes import sse, treecode
    from repro.coupling import bridge, embedded
    from repro.datamodel import particles
    from repro.rpc import channel, futures, protocol, taskgraph
    from repro.units import core as units_core
    from repro.units import nbody as units_nbody

    for cls in (units_core.Quantity, units_core.Unit,
                units_nbody.ConvertBetweenGenericAndSiUnits):
        _wrap_class(tracer, cls, "units")
    _wrap_functions(tracer, units_core,
                    ("new_quantity", "to_quantity"), "units")

    _wrap_class(tracer, particles.Particles, "datamodel",
                extra=("__getattr__", "__setattr__"))
    _wrap_class(tracer, particles.AttributeChannel, "datamodel")

    _wrap_functions(tracer, kernels, (
        "direct_acceleration", "direct_acc_jerk", "direct_potential",
        "total_energy",
    ), "kernels")
    # the octree is built in its constructor
    _wrap_class(tracer, kernels.Octree, "kernels", extra=("__init__",))
    _wrap_functions(tracer, gadget, ("sph_state_arrays",), "kernels")

    for cls in (base.InCodeParticleStorage, base.CodeInterface,
                phigrape.PhiGRAPEInterface, gadget.GadgetInterface,
                treecode.TreeGravityInterface, treecode.FiInterface,
                sse.SSEInterface):
        _wrap_class(tracer, cls, "codes")

    for cls in (highlevel.CommunityCode,
                highlevel.GravitationalDynamicsCode, highlevel.Gadget,
                highlevel.SSE):
        _wrap_class(tracer, cls, "highlevel", private=True)

    _wrap_functions(tracer, protocol,
                    ("encode_payload", "decode_payload"), "protocol")
    _wrap_functions(tracer, protocol, (
        "send_frame", "send_frame_v2", "recv_frame",
    ), "channel")
    for cls in (channel.Channel, channel.DirectChannel,
                channel.StreamChannel, channel.SocketChannel,
                channel.AsyncRequest):
        _wrap_class(tracer, cls, "channel")

    _wrap_class(tracer, taskgraph.TaskGraph, "taskgraph")
    _wrap_class(tracer, futures.Future, "taskgraph")
    _wrap_functions(tracer, futures, ("wait_all",), "taskgraph")

    for cls in (bridge.Bridge, bridge.CouplingField,
                embedded.EmbeddedClusterSimulation):
        _wrap_class(tracer, cls, "coupling", private=True)
