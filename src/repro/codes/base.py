"""Common machinery for model codes ("community codes" in AMUSE speak).

Every kernel (PhiGRAPE, SSE, Gadget, Octgrav, Fi) is implemented as a
*low-level interface*: a class holding raw float64 state whose public
methods take and return plain numbers/arrays — exactly the surface the
original Fortran/C codes expose through MPI.  The RPC layer
(:mod:`repro.rpc`) can run any low-level interface behind a channel, and
the high-level layer (:mod:`repro.codes.highlevel`) adds units and
particle-set mirroring on the script side.

The AMUSE state model is reproduced in compact form: codes move through
``UNINITIALIZED → INITIALIZED → EDIT → RUN`` via ``initialize_code``,
``commit_parameters`` and ``commit_particles``; editing particles drops a
RUN code back to EDIT; ``stop`` ends in STOPPED.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "CodeInterface",
    "InCodeParticleStorage",
    "ParticleStateMixin",
    "CodeStateError",
    "InflightTracker",
    "STATES",
]

STATES = ("UNINITIALIZED", "INITIALIZED", "EDIT", "RUN", "STOPPED")

#: what :meth:`InCodeParticleStorage.rows` returns for the whole set
_ALL = slice(None)


class CodeStateError(RuntimeError):
    """Raised on illegal state transitions (e.g. evolving a stopped code)."""


class InflightTracker:
    """Script-side tracking of in-flight asynchronous state transitions.

    With the async API a transition like ``evolve_model`` is *in
    flight* between the moment the call is issued and the moment its
    future is joined.  During that window the worker is advancing its
    model, so operations that would race with it — a second evolve,
    particle edits, ``stop`` — are illegal and must raise
    :class:`CodeStateError` *eagerly*, in the caller, rather than be
    pipelined behind the evolve and silently act on a different model
    state than the script sees.

    The high-level wrappers hold one tracker per code: ``begin`` marks
    a transition in flight (rejecting overlaps), ``finish`` retires it
    (wired to the future's cleanup hook so it runs exactly once,
    whatever the outcome), and ``require_idle`` guards mutating
    operations.
    """

    def __init__(self, owner=""):
        self.owner = owner
        self._inflight = None
        self._lock = threading.Lock()

    @property
    def inflight(self):
        """Name of the in-flight transition, or None when idle."""
        return self._inflight

    def begin(self, transition):
        with self._lock:
            if self._inflight is not None:
                raise CodeStateError(
                    f"cannot start {transition} on {self.owner or 'code'}"
                    f" while async {self._inflight} is in flight; join "
                    "its future first"
                )
            self._inflight = transition
        return transition

    def finish(self, transition):
        with self._lock:
            if self._inflight == transition:
                self._inflight = None

    def resync(self):
        """Forget any in-flight transition unconditionally.

        The worker-death recovery path: when the channel is lost (e.g.
        a crashed subprocess worker) the transition can never complete
        remotely, so the tracker must not stay wedged on it.  Normal
        retirement goes through :meth:`finish` via the future's cleanup
        hook; ``resync`` is for cleanup paths that cannot wait for a
        join.
        """
        with self._lock:
            self._inflight = None

    def require_idle(self, action):
        if self._inflight is not None:
            raise CodeStateError(
                f"cannot {action} on {self.owner or 'code'} while async "
                f"{self._inflight} is in flight; join its future first"
            )


class InCodeParticleStorage:
    """Id-keyed structure-of-arrays storage used inside model codes.

    Rows are dense and ``ids`` is *strictly ascending*: ids come from
    the monotone counter ``_next_id`` and are appended, and deletion
    compacts the arrays in order (ids of other particles stay valid).
    The id array is therefore its own index — :meth:`rows` is a binary
    search on it, with no second id -> row table to keep in step.

    Two reads, one per kind of caller:

    * ``get(name)`` hands out the live array: the kernels' own access.
    * ``read(name, ids)`` returns a *fresh* array in every case, and
      ``ids=None`` means the whole set: what the RPC getters hand out.
      On the ``direct`` channel nothing else stands between these
      arrays and the script's mirror, which keeps what it is given.

    ``get(name, ids)`` with ids given is ``read``.  The writes ``set``
    and ``add_to`` read ``ids=None`` as the whole set too, so a code
    whose caller means "every particle I registered" sends no ids.
    """

    def __init__(self, fields):
        # fields: name -> number of components (1 = scalar, 3 = vector)
        self.fields = dict(fields)
        self.arrays = {
            name: np.empty((0, dim)) if dim > 1 else np.empty(0)
            for name, dim in self.fields.items()
        }
        self.ids = np.empty(0, dtype=np.int64)
        self._next_id = 0

    def __len__(self):
        return len(self.ids)

    def add(self, **values):
        """Append particles; returns the assigned ids (ndarray)."""
        counts = {
            name: np.atleast_1d(np.asarray(v, dtype=float)).shape[0]
            for name, v in values.items()
        }
        n = max(counts.values()) if counts else 1
        new_ids = np.arange(self._next_id, self._next_id + n, dtype=np.int64)
        self._next_id += n
        for name, dim in self.fields.items():
            arr = values.get(name)
            if arr is None:
                block = np.zeros((n, dim)) if dim > 1 else np.zeros(n)
            else:
                block = np.asarray(arr, dtype=float)
                if dim > 1:
                    block = np.broadcast_to(
                        np.atleast_2d(block), (n, dim)
                    ).copy()
                else:
                    block = np.broadcast_to(
                        np.atleast_1d(block), (n,)
                    ).copy()
            self.arrays[name] = np.concatenate([self.arrays[name], block])
        self.ids = np.concatenate([self.ids, new_ids])
        return new_ids

    def rows(self, ids):
        """Index selecting the given particle ids, usable as
        ``arr[rows]``: ``slice(None)`` when *ids* is the whole set in
        storage order (the selection is then a view, not a gather),
        else an array of row numbers.  Unknown ids raise ``KeyError``.
        The high-level wrappers ask for the whole set with no ids at
        all, so this runs only for explicit ids."""
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        if np.array_equal(ids, self.ids):
            return _ALL
        # searched in ascending order: on shuffled ids every probe of
        # the binary search is a mispredicted branch (33 ms against
        # 12 ms for 200 000 ids, the sort included)
        order = ids.argsort()
        rows = np.empty(len(ids), dtype=np.intp)
        rows[order] = self.ids.searchsorted(ids[order])
        known = rows < len(self.ids)
        known[known] = self.ids[rows[known]] == ids[known]
        if not known.all():
            raise KeyError(f"unknown particle id {ids[known.argmin()]}")
        return rows

    def get(self, name, ids=None):
        if ids is None:
            return self.arrays[name]
        return self.read(name, ids)

    def read(self, name, ids=None):
        arr = self.arrays[name]
        rows = _ALL if ids is None else self.rows(ids)
        return arr.copy() if rows is _ALL else arr[rows]

    def set(self, name, values, ids=None):
        rows = _ALL if ids is None else self.rows(ids)
        self.arrays[name][rows] = np.asarray(values, dtype=float)

    def add_to(self, name, values, ids=None):
        """In-place increment (e.g. bridge velocity kicks): one wire
        round trip instead of a get followed by a set."""
        arr = self.arrays[name]
        values = np.asarray(values, dtype=float)
        rows = _ALL if ids is None else self.rows(ids)
        if rows is _ALL:
            arr += values
        else:
            arr[rows] += values     # a gather and a scatter

    def remove(self, ids):
        keep = np.ones(len(self.ids), dtype=bool)
        keep[self.rows(ids)] = False
        for name in self.arrays:
            self.arrays[name] = self.arrays[name][keep]
        self.ids = self.ids[keep]


class CodeInterface:
    """Base class for low-level model-code interfaces.

    Subclasses define PARAMETERS (name -> (default, docstring)) and get
    one instance attribute per parameter.  The state machine hooks
    (``initialize_code`` etc.) may be overridden; ``ensure_state`` walks
    the chain automatically, mirroring AMUSE's implicit state
    transitions.
    """

    PARAMETERS = {}
    #: device the kernel variant targets — used by the jungle cost model
    KERNEL_DEVICE = "cpu"
    #: short literature tag, for documentation / monitoring displays
    LITERATURE = ""

    def __init__(self, **parameter_overrides):
        self.state = "UNINITIALIZED"
        self.model_time = 0.0
        # instrumentation counters read by the jungle performance model
        self.interaction_count = 0
        self.step_count = 0
        for name, (default, _doc) in self.PARAMETERS.items():
            setattr(self, name, parameter_overrides.pop(name, default))
        if parameter_overrides:
            raise TypeError(
                f"unknown parameters {sorted(parameter_overrides)} for "
                f"{type(self).__name__}; valid: {sorted(self.PARAMETERS)}"
            )

    # -- state machine ------------------------------------------------------

    _CHAIN = {
        "UNINITIALIZED": ("INITIALIZED", "initialize_code"),
        "INITIALIZED": ("EDIT", "commit_parameters"),
        "EDIT": ("RUN", "commit_particles"),
    }

    def ensure_state(self, target):
        if self.state == "STOPPED":
            raise CodeStateError(
                f"{type(self).__name__} has been stopped"
            )
        guard = 0
        while self.state != target:
            step = self._CHAIN.get(self.state)
            if step is None:
                raise CodeStateError(
                    f"cannot reach state {target} from {self.state}"
                )
            next_state, hook = step
            getattr(self, hook)()
            # hooks may not change state themselves:
            if self.state != next_state:
                self.state = next_state
            guard += 1
            if guard > len(STATES):
                raise CodeStateError("state machine did not converge")

    def invalidate_model(self):
        """Particle edits drop a running model back to EDIT."""
        if self.state == "RUN":
            self.state = "EDIT"

    # default (overridable) hooks
    def initialize_code(self):
        return 0

    def commit_parameters(self):
        return 0

    def commit_particles(self):
        return 0

    def synchronize_model(self):
        return 0

    def recommit_particles(self):
        return 0

    def cleanup_code(self):
        return 0

    def stop(self):
        if self.state != "STOPPED":
            self.cleanup_code()
            self.state = "STOPPED"
        return 0

    # -- parameter access (RPC-friendly) ---------------------------------------

    def get_parameter(self, name):
        if name not in self.PARAMETERS:
            raise KeyError(name)
        return getattr(self, name)

    def set_parameter(self, name, value):
        if name not in self.PARAMETERS:
            raise KeyError(name)
        if self.state not in ("UNINITIALIZED", "INITIALIZED"):
            # AMUSE allows it only before commit_parameters; be faithful
            raise CodeStateError(
                f"parameter {name} must be set before commit_parameters"
            )
        setattr(self, name, value)
        return 0

    def parameter_names(self):
        return sorted(self.PARAMETERS)

    def get_model_time(self):
        return self.model_time

    def set_model_time(self, value):
        """Restore the model clock — the RESTART replay path: a
        respawned worker resumes from the script's last synchronized
        time instead of re-integrating from zero."""
        self.model_time = float(value)
        return 0

    # -- introspection used by the RPC worker ------------------------------------

    @classmethod
    def remote_methods(cls):
        """Public callables exposed through a channel."""
        out = {}
        for name in dir(cls):
            if name.startswith("_"):
                continue
            attr = getattr(cls, name)
            if callable(attr) and name not in (
                "remote_methods",
            ):
                out[name] = attr
        return out


class ParticleStateMixin:
    """Particle-state accessors of the dynamics interfaces (PhiGRAPE,
    the tree codes, Gadget) over ``self.storage``.

    The state is mass, position, velocity and then the scalar fields
    named in ``EXTRA_STATE`` (Gadget: internal energy), in that order
    wherever a method takes or returns all of it.  What a write makes
    stale differs per code and is all a code has to say: every write
    first reports what it touches to :meth:`_state_written` — a field
    name, or ``"particles"`` when particles are added, deleted or
    wholly rewritten (``set_state``).
    """

    EXTRA_STATE = ()

    def _state_written(self, what):
        raise NotImplementedError

    def new_particle(self, mass, x, y, z, vx, vy, vz, *extra):
        """Add particles; scalar or array arguments; returns ids."""
        self._state_written("particles")
        return self.storage.add(
            mass=mass, pos=np.column_stack([x, y, z]),
            vel=np.column_stack([vx, vy, vz]),
            **dict(zip(self.EXTRA_STATE, extra, strict=True)),
        )

    def delete_particle(self, ids):
        self._state_written("particles")
        self.storage.remove(ids)
        return 0

    def get_number_of_particles(self):
        return len(self.storage)

    def get_state(self, ids=None):
        st = self.storage
        p = st.read("pos", ids)
        v = st.read("vel", ids)
        return (
            st.read("mass", ids), p[:, 0], p[:, 1], p[:, 2],
            v[:, 0], v[:, 1], v[:, 2],
            *(st.read(name, ids) for name in self.EXTRA_STATE),
        )

    def set_state(self, ids, mass, x, y, z, vx, vy, vz, *extra):
        self._state_written("particles")
        st = self.storage
        st.set("mass", mass, ids)
        st.set("pos", np.column_stack([x, y, z]), ids)
        st.set("vel", np.column_stack([vx, vy, vz]), ids)
        for name, values in zip(self.EXTRA_STATE, extra, strict=True):
            st.set(name, values, ids)
        return 0

    def get_mass(self, ids=None):
        return self.storage.read("mass", ids)

    def get_position(self, ids=None):
        return self.storage.read("pos", ids)

    def get_velocity(self, ids=None):
        return self.storage.read("vel", ids)

    def set_mass(self, ids, mass):
        self._state_written("mass")
        self.storage.set("mass", mass, ids)
        return 0

    def set_position(self, ids, pos):
        self._state_written("pos")
        self.storage.set("pos", pos, ids)
        return 0

    def set_velocity(self, ids, vel):
        self._state_written("vel")
        self.storage.set("vel", vel, ids)
        return 0

    def add_velocity(self, ids, dv):
        """Increment velocities (bridge p-kicks): one round trip."""
        self._state_written("vel")
        self.storage.add_to("vel", dv, ids)
        return 0
