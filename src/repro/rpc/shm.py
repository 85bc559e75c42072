"""The shm channel — same-host workers over shared-memory segments.

The paper's deployment spans both ends of the locality spectrum: several
kernels pinned to one box (the multi-kernel pilots of Sec. 6) and
WAN-connected sites.  The sockets/subprocess channels already move
arrays with one copy per direction, but every byte still traverses the
kernel TCP stack.  On the same host that traversal is pure overhead —
so ``channel_type="shm"`` keeps the socket only as a control plane and
passes out-of-band buffers through ``multiprocessing.shared_memory``
segments instead: zero wire copies for array payloads.

Mechanics (frame layout in :mod:`repro.rpc.protocol`, magic ``AMSH``):

* the channel creates TWO segments up front — one per direction — and
  offers their names in the hello capability dict; the worker (a thread
  or a spawned child process) attaches them by name and acks.  A peer
  that cannot attach them (another host, a dead creator) simply doesn't
  ack and the connection stays on the plain socket path.
* each segment is managed by a :class:`ShmArena` — a first-fit
  free-list allocator with block coalescing, the classic ring-buffer
  compromise for variable-sized blocks.  Only the sending side
  allocates from its own arena; the receiver reports consumed offsets
  back piggybacked on its next frame, so steady request/response
  traffic recycles the pool with no extra messages.
* an exhausted arena degrades per buffer to the inline socket path —
  backpressure can slow the channel down but never deadlock it.
* the CHANNEL owns both segments: it unlinks them on ``stop()``, on
  connection loss (a peer that died mid-call), and on the subprocess
  terminate/kill escalation paths, so no ``/dev/shm`` entry outlives
  the channel.  Workers only ever attach and close.
* the negotiation is RELAY-TRANSPARENT: a daemon-relayed channel
  (``relay=True`` on :class:`~repro.distributed.channel.
  DistributedChannel`) offers its segment names in the end-to-end
  hello that travels through the daemon's zero-decode splice, and the
  pilot attaches them directly when it shares the host.  ``AMSH``
  descriptors (offset/length into the arenas) are then spliced
  verbatim by :func:`~repro.rpc.protocol.relay_frame` — large arrays
  cross client → daemon → pilot with ZERO wire copies end to end.

Python <= 3.12 registers attached segments with the per-process
``resource_tracker`` as if they were created locally (bpo-38119), which
would make a worker child's exit unlink the parent's live segments and
spam leak warnings; :func:`attach_peer_arenas` therefore unregisters
attached segments immediately.
"""

from __future__ import annotations

import os
import threading

from multiprocessing import shared_memory

from .channel import SocketChannel, register_channel_factory
from .protocol import SHM_MIN_DEFAULT, ProtocolError

__all__ = [
    "DEFAULT_SEGMENT_SIZE",
    "ShmArena",
    "ShmChannel",
    "attach_peer_arenas",
]

#: per-direction segment size; /dev/shm is virtual memory, pages are
#: only committed on first write, so generous is cheap
DEFAULT_SEGMENT_SIZE = 64 << 20

#: allocation granularity (cache-line aligned blocks)
_ALIGN = 64


def _untrack(segment):
    """Drop *segment* from this process's resource tracker (attach-side
    workaround for the double-registration of bpo-38119)."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(
            getattr(segment, "_name", segment.name), "shared_memory"
        )
    except Exception:  # noqa: BLE001 - tracker may be absent/foreign
        pass


class ShmArena:
    """One shared-memory segment with a first-fit free-list allocator.

    Thread-safe.  The creating side owns the segment name (``unlink``
    is a no-op on attached arenas) and is the only side that ever
    allocates from it; an attaching peer only reads.
    """

    def __init__(self, size=DEFAULT_SEGMENT_SIZE, name=None, create=True,
                 untrack=True):
        if create:
            self._segment = shared_memory.SharedMemory(
                create=True, size=int(size)
            )
        else:
            self._segment = shared_memory.SharedMemory(name=name)
            if untrack:
                _untrack(self._segment)
        self.name = self._segment.name
        self.size = self._segment.size
        self.owner = bool(create)
        self._lock = threading.Lock()
        #: sorted list of (offset, size) holes
        self._free = [(0, self.size)]
        self._allocated = {}
        self._closed = False
        self._unlinked = False

    # -- allocation --------------------------------------------------------

    def alloc(self, nbytes):
        """Reserve a block; returns its offset, or None when no hole
        fits (the caller then falls back to the inline socket path)."""
        need = max(_ALIGN, (int(nbytes) + _ALIGN - 1) & ~(_ALIGN - 1))
        with self._lock:
            if self._closed:
                return None
            for i, (offset, size) in enumerate(self._free):
                if size >= need:
                    if size == need:
                        del self._free[i]
                    else:
                        self._free[i] = (offset + need, size - need)
                    self._allocated[offset] = need
                    return offset
        return None

    def free(self, offset):
        """Release a block, coalescing with adjacent holes."""
        with self._lock:
            size = self._allocated.pop(offset, None)
            if size is None:
                return      # double/foreign free: ignore, stay sane
            lo, hi = 0, len(self._free)
            while lo < hi:
                mid = (lo + hi) // 2
                if self._free[mid][0] < offset:
                    lo = mid + 1
                else:
                    hi = mid
            self._free.insert(lo, (offset, size))
            # coalesce with the successor, then the predecessor
            if lo + 1 < len(self._free):
                o, s = self._free[lo]
                o2, s2 = self._free[lo + 1]
                if o + s == o2:
                    self._free[lo: lo + 2] = [(o, s + s2)]
            if lo > 0:
                o, s = self._free[lo - 1]
                o2, s2 = self._free[lo]
                if o + s == o2:
                    self._free[lo - 1: lo + 1] = [(o, s + s2)]

    @property
    def allocated_bytes(self):
        with self._lock:
            return sum(self._allocated.values())

    # -- data movement -----------------------------------------------------

    def write(self, offset, data):
        """Copy *data* into the block at *offset* (the only copy a
        buffer makes on the send side)."""
        self._segment.buf[offset:offset + len(data)] = data

    def read(self, offset, length):
        """Copy the block out into a fresh writable buffer.

        The copy decouples the unpickled arrays' lifetime from the
        block, letting the receiver release the offset immediately —
        and it is the only copy on the receive side (the socket path
        pays the same one in ``recv_into``).
        """
        if offset + length > self.size:
            raise ProtocolError(
                f"shm descriptor out of bounds: {offset}+{length} "
                f"> {self.size}"
            )
        return bytearray(self._segment.buf[offset:offset + length])

    # -- lifecycle ---------------------------------------------------------

    def unlink(self):
        """Remove the segment name (owner only); the mapping stays
        valid until :meth:`close`.  Idempotent."""
        if self.owner and not self._unlinked:
            self._unlinked = True
            try:
                self._segment.unlink()
            except FileNotFoundError:
                pass

    def close(self):
        """Unmap the segment.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._segment.close()
        except BufferError:
            # an exported view is still alive somewhere; the segment
            # is already unlinked, so nothing leaks in /dev/shm and
            # the mapping goes with the process
            pass

    def __repr__(self):
        return (
            f"<ShmArena {self.name} {self.size >> 20} MiB "
            f"owner={self.owner}>"
        )


def attach_peer_arenas(wire, shm_offer):
    """Worker half of the shm handshake: attach the channel-created
    segments named in the hello capability dict and hang them on
    *wire*.  The worker WRITES replies into ``w2c`` and READS call
    arguments from ``c2w`` — the mirror image of the channel side.

    The bpo-38119 untrack is skipped for a worker THREAD (same process
    as the creator): the tracker registry is a name set, so the
    attach-side unregister would also drop the creator's crash-cleanup
    safety net.
    """
    untrack = shm_offer.get("pid") != os.getpid()
    tx = ShmArena(name=shm_offer["w2c"], create=False, untrack=untrack)
    try:
        rx = ShmArena(
            name=shm_offer["c2w"], create=False, untrack=untrack
        )
    except Exception:
        tx.close()
        raise
    wire.tx_arena = tx
    wire.rx_arena = rx


def ShmChannel(interface_factory, worker_mode="thread", host="127.0.0.1",
               segment_size=DEFAULT_SEGMENT_SIZE, shm_min=SHM_MIN_DEFAULT,
               stop_timeout=10.0, spawn_timeout=30.0, kill_timeout=5.0):
    """Build a same-host shared-memory channel (``channel_type="shm"``).

    ``worker_mode="thread"`` serves the worker from an in-process
    thread (cheapest, GIL-shared); ``"subprocess"`` spawns a real child
    process — the AMUSE process model — that attaches the segments by
    name.  Both run the same negotiated wire: control frames on the
    loopback socket, array payloads through shared memory.
    """
    common = dict(
        host=host, stop_timeout=stop_timeout,
        shm_segment_size=segment_size, shm_min=shm_min,
    )
    if worker_mode == "thread":
        return SocketChannel(interface_factory, **common)
    if worker_mode == "subprocess":
        from .subproc import SubprocessChannel  # lazy: -m entrypoint

        return SubprocessChannel(
            interface_factory, spawn_timeout=spawn_timeout,
            kill_timeout=kill_timeout, **common,
        )
    raise ValueError(
        f"unknown shm worker mode {worker_mode!r}; "
        "known: ['subprocess', 'thread']"
    )


register_channel_factory("shm", ShmChannel)
