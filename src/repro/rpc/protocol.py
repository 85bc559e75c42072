"""Wire protocol for AMUSE worker channels.

AMUSE communicates with workers "using a channel, in an RPC-like method"
(paper Sec. 4.1).  The loopback link between coupler and daemon is the
path the paper quotes ">8 Gbit/s even on a modest laptop" for
(``benchmarks/bench_loopback.py`` reproduces the measurement), so the
framing is built to move large float64 arrays with as few copies as the
socket API allows.

Every frame starts with a 4-byte magic naming its layout and a 4-byte
length; one receive path reads them all:

**AMSE** — no out-of-band buffers: ``b"AMSE"`` + payload length + one
contiguous pickle-5 payload.  Every bufferless message (most small
calls and replies) travels this way, at one ``sendall`` and two reads.

**AMS2** — with buffers: ``b"AMS2"`` + descriptor-block length, then
one descriptor block holding the buffer table and the pickle-5
*metadata* (the message with large buffers extracted out-of-band via
``buffer_callback``), then the raw buffers back to back::

    <4s magic "AMS2"> <u32 block_len>
    block: <u32 nbuffers> <u64 buffer_len x nbuffers> <metadata bytes>
    <buffer bytes ...>

Grouping the buffer table with the metadata keeps a small frame at two
reads, while large frames add exactly one ``recv_into`` per
out-of-band buffer.

Two more layouts extend AMS2 for connections that negotiated the
matching capability in the hello (see *Hello* below); capable peers mix
them freely with AMSE/AMS2 frames on one connection:

**AMSC** — per-buffer compression.  The buffer table gains
an encoded length next to the raw length and the block names the codec;
each buffer above the negotiated size threshold is compressed
individually and stored raw when compression does not shrink it
(``enc_len == raw_len`` marks a raw buffer, so incompressible data
costs one compression attempt and nothing on the wire)::

    <4s magic "AMSC"> <u32 block_len>
    block: <u32 nbuffers> <u8 codec_id>
           <(u64 enc_len, u64 raw_len) x nbuffers> <metadata bytes>
    <encoded buffer bytes ...>

**AMSH** — same-host shared-memory transport.  Buffer
*bytes* leave the socket entirely: the sender copies each large buffer
into a block of its :class:`~repro.rpc.shm.ShmArena` segment and the
frame carries only ``(offset, length)`` descriptors; the receiver reads
the block straight out of the mapped segment.  Small buffers stay
inline (``kind 0``) so arena exhaustion degrades to the socket path
instead of failing.  Block release is piggybacked: every frame also
carries the offsets its sender has consumed from the *peer's* arena
since its last frame, so the request/response traffic itself recycles
the pool with zero extra round trips::

    <4s magic "AMSH"> <u32 block_len>
    block: <u32 nbuffers> <u32 nfreed>
           <(u8 kind, u64 a, u64 b) x nbuffers>   # kind 1: a=offset b=len (shm)
           <u64 freed_offset x nfreed>            # kind 0: a=len, inline
           <metadata bytes>
    <inline buffer bytes ...>

**AMCX** — in-flight call cancellation, the control
frame behind ``Future.cancel()`` and the RESTART fault policy.  A tiny
fixed-size frame naming the call to withdraw plus its own ack id::

    <4s magic "AMCX"> <u32 block_len=16>
    block: <u64 ack_id> <u64 target_call_id>

The worker acknowledges with a normal ``("result", ack_id, {...})``
frame reporting what happened to the target: ``"dequeued"`` (the call
had not started and never will run), ``"abandoned"`` (it is running;
its eventual result will be discarded instead of sent) or ``"done"``
(too late — the reply was already sent).  Because a single-threaded
worker busy in a long call could never see the frame, the worker serves
calls on a dedicated runner thread while its main thread keeps reading
frames (see :func:`repro.rpc.channel.worker_loop`).

**Hello** — the capability handshake a client opens every connection
with: ``("hello", id, PROTOCOL_VERSION, caps)``.  The server checks the
version with :func:`parse_hello`; a mismatch is answered with an error
frame and the client raises :class:`ProtocolError` naming both
versions.  *caps* may offer a codec preference list (``"compress"``),
shared-memory segment names (``"shm"``) and in-flight cancellation
(``"cancel"``); the ack ``{"version": ..., "caps": {...}}`` answers
with the first offered codec the server can load, ``"shm": True`` once
it attached the named segments, and ``"cancel": True`` when it will
honour AMCX frames (only :func:`worker_loop` does — the daemon never
acks it, so its decoded channels degrade to client-side abandon).
Whatever the ack leaves out stays off for that connection.  A
:class:`WireState` holds the outcome per connection.

On send the parts are handed to ``socket.sendmsg`` as a scatter-gather
iovec — header, metadata and every array buffer go to the kernel without
being concatenated.  On receive each buffer is read with ``recv_into``
into one pre-allocated ``bytearray`` and the arrays are reconstructed
*in place* over those bytearrays (``pickle.loads(..., buffers=...)``),
so a NumPy array crosses the wire with exactly one copy per direction.

Message shapes::

    ("hello",   id, PROTOCOL_VERSION, caps_dict)
    ("call",    call_id, method_name, args_tuple, kwargs_dict)
    ("mcall",   call_id, [(method, args, kwargs), ...])   # pipelined batch
    ("result",  call_id, value)
    ("mresult", call_id, [("ok", value) | ("error", cls, msg, tb), ...])
    ("error",   call_id, exception_class_name, message, traceback_text)
"""

from __future__ import annotations

import errno
import functools
import os
import pickle
import secrets
import struct
import threading
import zlib

__all__ = [
    "MAGIC",
    "MAGIC2",
    "MAGIC_COMPRESS",
    "MAGIC_SHM",
    "MAGIC_CANCEL",
    "HEADER",
    "PROTOCOL_VERSION",
    "COMPRESS_MIN_DEFAULT",
    "SHM_MIN_DEFAULT",
    "Codec",
    "WireState",
    "available_codecs",
    "negotiate_codec",
    "resolve_compress_offer",
    "accept_capabilities",
    "parse_hello",
    "new_session_id",
    "encode_frame_v2",
    "send_frame",
    "send_cancel_frame",
    "recv_frame",
    "relay_frame",
    "RelayScratch",
    "encode_payload",
    "decode_payload",
    "RemoteError",
    "ProtocolError",
    "ConnectionLostError",
    "CancelledError",
]

MAGIC = b"AMSE"                       # no out-of-band buffers
MAGIC2 = b"AMS2"                      # with out-of-band buffers
MAGIC_COMPRESS = b"AMSC"              # + per-buffer compression
MAGIC_SHM = b"AMSH"                   # + shared-memory buffer blocks
MAGIC_CANCEL = b"AMCX"                # in-flight call cancellation
HEADER = struct.Struct("<4sI")        # magic + payload/block length
CANCEL_BODY = struct.Struct("<QQ")    # ack id + target call id (AMCX)
BLOCK_COUNT = struct.Struct("<I")     # buffer count (start of AMS2 block)
BUFFER_LEN = struct.Struct("<Q")      # per-buffer length (AMS2 table)
COMPRESS_HEAD = struct.Struct("<IB")  # buffer count + codec id (AMSC)
COMPRESS_ENTRY = struct.Struct("<QQ")  # encoded + raw length (AMSC table)
SHM_HEAD = struct.Struct("<II")       # buffer count + freed count (AMSH)
SHM_ENTRY = struct.Struct("<BQQ")     # kind + two u64 fields (AMSH table)
MAX_FRAME = 1 << 31
MAX_BUFFERS = 1 << 16
PROTOCOL_VERSION = 2

#: buffers below this many bytes are never compressed (the attempt
#: costs more than the socket write it would save)
COMPRESS_MIN_DEFAULT = 1 << 14

#: buffers below this many bytes stay inline on the socket even on an
#: shm connection (descriptor bookkeeping beats memcpy only for bulk)
SHM_MIN_DEFAULT = 1 << 16

#: iovec batch size for sendmsg (Linux IOV_MAX is 1024)
_IOV_LIMIT = 1024

#: below this, a bufferless frame is concatenated and sent with one
#: sendall — cheaper than iovec bookkeeping for latency-bound calls
_SMALL_FRAME = 1 << 16


class ProtocolError(RuntimeError):
    """Raised on malformed frames or broken connections."""


class ConnectionLostError(ProtocolError):
    """The peer vanished while calls were (or could be) in flight.

    Raised by stream channels when the connection drops, and by the
    subprocess channel when the worker child dies — then carrying the
    child's exit code and a tail of its captured stderr so the crash
    is diagnosable from the script side.
    """

    def __init__(self, message, returncode=None, stderr_tail=""):
        super().__init__(message)
        self.returncode = returncode
        self.stderr_tail = stderr_tail


class CancelledError(RuntimeError):
    """An in-flight call or future was cancelled before it completed.

    Deliberately an ``Exception`` (unlike
    :class:`concurrent.futures.CancelledError`, which is a
    ``BaseException``): cancellation is an expected recovery outcome
    that aggregate joins and cleanup paths must be able to absorb.
    """


class RemoteError(RuntimeError):
    """An exception that occurred inside a worker, re-raised locally."""

    def __init__(self, exc_class, message, remote_traceback=""):
        super().__init__(f"{exc_class}: {message}")
        self.exc_class = exc_class
        self.remote_message = message
        self.remote_traceback = remote_traceback


# -- per-buffer compression codecs ------------------------------------------


class Codec:
    """One negotiable per-buffer compression codec.

    ``compress`` maps a readable buffer to bytes; ``decompress`` maps
    the encoded bytes plus the known raw length back to a *writable*
    buffer (arrays are reconstructed in place over it, and the wire
    contract is that received arrays are writable).
    """

    __slots__ = ("codec_id", "name", "compress", "decompress")

    def __init__(self, codec_id, name, compress, decompress):
        self.codec_id = codec_id
        self.name = name
        self.compress = compress
        self.decompress = decompress

    def __repr__(self):
        return f"<Codec {self.name} (id {self.codec_id})>"


def _build_codecs():
    """Probe for codec libraries; unimportable ones simply don't exist.

    zstd and lz4 are the WAN-grade codecs the roadmap names; zlib is
    the stdlib floor so a compression-negotiated link works on any
    interpreter (it is offered last — a peer with a real codec never
    picks it).  Compressor objects are created per call: the zstd/lz4
    module-level objects are not documented thread-safe, and a reader
    thread may decompress while a sender compresses.
    """
    codecs = {}
    codecs["zlib"] = Codec(
        1, "zlib",
        lambda data: zlib.compress(data, 1),
        lambda data, raw_len: bytearray(zlib.decompress(data)),
    )
    try:
        import lz4.frame as _lz4
    except ImportError:
        pass
    else:
        codecs["lz4"] = Codec(
            2, "lz4",
            lambda data: _lz4.compress(bytes(data)),
            lambda data, raw_len: bytearray(_lz4.decompress(bytes(data))),
        )
    try:
        import zstandard as _zstd
    except ImportError:
        pass
    else:
        codecs["zstd"] = Codec(
            3, "zstd",
            lambda data: _zstd.ZstdCompressor(level=1).compress(
                bytes(data)
            ),
            lambda data, raw_len: bytearray(
                _zstd.ZstdDecompressor().decompress(
                    bytes(data), max_output_size=raw_len
                )
            ),
        )
    return codecs


#: codec preference order when offering/accepting (fastest real codec
#: first, stdlib floor last)
CODEC_PREFERENCE = ("zstd", "lz4", "zlib")
CODECS_BY_NAME = _build_codecs()
CODECS_BY_ID = {c.codec_id: c for c in CODECS_BY_NAME.values()}


def available_codecs():
    """Importable codec names, most preferred first."""
    return [n for n in CODEC_PREFERENCE if n in CODECS_BY_NAME]


def negotiate_codec(offered):
    """Pick the first codec from the peer's preference list that this
    side can load; None when there is no common codec."""
    for name in offered:
        if name in CODECS_BY_NAME:
            return name
    return None


def resolve_compress_offer(compress):
    """Normalise a channel's ``compress=`` option into an offer list.

    ``None``/``False`` — offer nothing; ``True`` — every importable
    codec in preference order; a name — just that codec (must be
    importable); a list — the importable subset, the caller's order.
    """
    if compress is None or compress is False:
        return []
    if compress is True:
        return available_codecs()
    if isinstance(compress, str):
        if compress not in CODECS_BY_NAME:
            raise ValueError(
                f"compression codec {compress!r} is not available; "
                f"importable codecs: {available_codecs()}"
            )
        return [compress]
    return [name for name in compress if name in CODECS_BY_NAME]


# -- negotiated per-connection wire state ------------------------------------


class WireState:
    """The outcome of one connection's hello negotiation.

    Holds the agreed codec (if any) with its size threshold, and — for
    shm connections — the two arena ends: this
    side allocates outgoing buffers from ``tx_arena`` and reads the
    peer's buffers out of ``rx_arena``.  The pending-free list collects
    the rx offsets this side has consumed; the send path drains it into
    the next outgoing frame so the peer can recycle its blocks.
    """

    def __init__(self, codec=None, compress_min=COMPRESS_MIN_DEFAULT,
                 tx_arena=None, rx_arena=None, shm_min=SHM_MIN_DEFAULT):
        self.codec = codec
        self.compress_min = compress_min
        self.tx_arena = tx_arena
        self.rx_arena = rx_arena
        self.shm_min = shm_min
        #: peer honours AMCX cancel frames (hello "cancel" capability)
        self.cancel = False
        self._free_lock = threading.Lock()
        self._pending_free = []
        #: transport statistics (raw payload vs wire bytes; shm bytes
        #: never touch the socket at all)
        self.raw_buffer_bytes = 0
        self.wire_buffer_bytes = 0
        self.shm_buffer_bytes = 0
        #: post-compression bytes actually written for AMSC frames
        self.compressed_bytes = 0
        #: receive-side totals (kept here because only the receive path
        #: sees the frame sizes; :func:`recv_frame` updates them when
        #: handed a wire state)
        self.bytes_received = 0
        self.frames_received = 0

    def add_freed(self, offsets):
        """Record consumed peer-arena offsets for the next send."""
        if offsets:
            with self._free_lock:
                self._pending_free.extend(offsets)

    def take_freed(self):
        with self._free_lock:
            freed, self._pending_free = self._pending_free, []
        return freed

    def has_pending_free(self):
        return bool(self._pending_free)

    @property
    def shm_active(self):
        return self.tx_arena is not None


def accept_capabilities(offered, wire, allow_cancel=False):
    """Server half of the hello capability negotiation.

    Mutates *wire* with whatever this side can honour and returns the
    ack dict.  Anything unrecognised — or an shm offer whose segments
    this process cannot attach (wrong host, dead creator) — is silently
    dropped, which IS the downgrade: the client reads the ack and keeps
    the plain socket path for everything missing from it.

    *allow_cancel* is passed True only by servers that actually honour
    AMCX frames (:func:`~repro.rpc.channel.worker_loop`); the daemon
    keeps the default so distributed clients fall back to client-side
    abandon instead of sending cancel frames into a loop that would
    reject them.
    """
    accepted = {}
    if allow_cancel and offered.get("cancel"):
        wire.cancel = True
        accepted["cancel"] = True
    codec_name = negotiate_codec(offered.get("compress") or ())
    if codec_name:
        wire.codec = CODECS_BY_NAME[codec_name]
        if "compress_min" in offered:
            wire.compress_min = int(offered["compress_min"])
        accepted["compress"] = codec_name
    shm_offer = offered.get("shm")
    if shm_offer:
        try:
            from .shm import attach_peer_arenas  # lazy: avoids a cycle
            attach_peer_arenas(wire, shm_offer)
        except Exception:  # noqa: BLE001 - any failure means "no shm"
            pass
        else:
            if "shm_min" in shm_offer:
                wire.shm_min = int(shm_offer["shm_min"])
            accepted["shm"] = True
    return accepted


def parse_hello(rest):
    """Server half of the hello: check its shape and version.

    *rest* is the hello after its kind and id, ``(version, caps)``.
    Returns the offered capability dict.  A peer speaking another
    protocol version raises :class:`ProtocolError` naming both
    versions; servers answer it with an error frame, which the client
    raises in turn — there is no downgrade.
    """
    if len(rest) != 2 or not isinstance(rest[1], dict):
        raise ProtocolError(f"malformed hello {rest!r}")
    version, offered = rest
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: hello names version {version}, "
            f"the server speaks version {PROTOCOL_VERSION}"
        )
    return offered


def new_session_id():
    """Mint an unguessable wire identifier.

    Used by the multi-session daemon for session ids and join tokens:
    a tenant can only address pilots inside a session whose token it
    was handed at hello time, so ids must not be enumerable.
    """
    return secrets.token_hex(8)


# -- out-of-band payload helpers (also used by repro.mpi.comm) -------------


def encode_payload(obj):
    """Pickle *obj*, extracting large buffers out-of-band.

    Returns ``(meta, buffers)`` where *meta* is the pickle-5 metadata and
    *buffers* is a list of contiguous memoryviews over the original
    arrays — no data copies are made.
    """
    pickle_buffers = []
    meta = pickle.dumps(obj, protocol=5,
                        buffer_callback=pickle_buffers.append)
    return meta, [pb.raw() for pb in pickle_buffers]


def decode_payload(meta, buffers=()):
    """Inverse of :func:`encode_payload`; arrays are reconstructed over
    the provided buffers without copying."""
    return pickle.loads(meta, buffers=buffers)


# -- AMCX framing -----------------------------------------------------------


def send_cancel_frame(sock, ack_id, target_call_id):
    """Send one AMCX cancel frame; returns the byte count.

    Only valid on a connection whose peer acked the "cancel"
    capability — any other peer would reject the magic.
    """
    data = (
        HEADER.pack(MAGIC_CANCEL, CANCEL_BODY.size)
        + CANCEL_BODY.pack(ack_id, target_call_id)
    )
    sock.sendall(data)
    return len(data)


# -- send (layout chosen per frame) -----------------------------------------


@functools.lru_cache(maxsize=64)
def _head_struct(nbuf):
    return struct.Struct(f"<4sII{nbuf}Q")


def encode_frame_v2(message):
    """Serialise *message* into a list of AMS2 frame parts (no copies).

    The parts are ready for scatter-gather send: header + buffer table,
    metadata, then one raw memoryview per out-of-band buffer.
    """
    meta, buffers = encode_payload(message)
    return _build_parts_v2(meta, buffers)


def _build_parts_v2(meta, buffers):
    nbuf = len(buffers)
    if nbuf > MAX_BUFFERS:
        raise ProtocolError(f"too many buffers: {nbuf}")
    block_len = BLOCK_COUNT.size + BUFFER_LEN.size * nbuf + len(meta)
    total = block_len + sum(len(b) for b in buffers)
    if total > MAX_FRAME or block_len > MAX_FRAME:
        raise ProtocolError(f"frame too large: {total} bytes")
    head = _head_struct(nbuf).pack(
        MAGIC2, block_len, nbuf, *(len(b) for b in buffers)
    )
    return [head, meta, *buffers]


def _sendmsg_all(sock, parts):
    """Send every part via scatter-gather; returns total bytes sent."""
    sendmsg = getattr(sock, "sendmsg", None)
    if sendmsg is None:
        # fallback for socket-likes without sendmsg (tests, non-POSIX)
        data = b"".join(bytes(p) for p in parts)
        sock.sendall(data)
        return len(data)
    total = sum(len(p) for p in parts)
    while parts:
        sent = sendmsg(parts[:_IOV_LIMIT])
        # advance past whatever the kernel accepted
        i = 0
        while i < len(parts) and sent >= len(parts[i]):
            sent -= len(parts[i])
            i += 1
        parts = parts[i:]
        if sent:
            parts[0] = memoryview(parts[0])[sent:]
    return total


def send_frame(sock, message, wire=None):
    """Send one frame; returns the byte count.

    A message with no out-of-band buffers pickles to a single
    self-contained payload and is emitted as AMSE (one ``sendall`` for
    small, latency-bound calls).  Messages carrying buffers use the
    AMS2 layout with scatter-gather send.

    A negotiated :class:`WireState` upgrades the buffer path: on an shm
    connection large buffers travel through the arena (and any frame
    with pending block releases uses shm framing so the peer's pool
    recycles); on a compressed connection buffers above the threshold
    are compressed per-buffer.  Both degrade to the plain AMS2 layout
    frame by frame — arena full, nothing compressible — without the
    peer needing to know.
    """
    meta, buffers = encode_payload(message)
    if wire is not None:
        wire.raw_buffer_bytes += sum(len(b) for b in buffers)
        if wire.shm_active and (
            wire.has_pending_free()
            or any(len(b) >= wire.shm_min for b in buffers)
        ):
            return _send_frame_shm(sock, wire, meta, buffers)
        if wire.codec is not None and any(
            len(b) >= wire.compress_min for b in buffers
        ):
            sent = _send_frame_compressed(sock, wire, meta, buffers)
            if sent is not None:
                return sent
        wire.wire_buffer_bytes += sum(len(b) for b in buffers)
    if not buffers:
        if len(meta) > MAX_FRAME:
            raise ProtocolError(f"frame too large: {len(meta)} bytes")
        head = HEADER.pack(MAGIC, len(meta))
        if len(meta) <= _SMALL_FRAME:
            data = head + meta
            sock.sendall(data)
            return len(data)
        return _sendmsg_all(sock, [head, meta])
    return _sendmsg_all(sock, _build_parts_v2(meta, buffers))


#: former name, still looked up by ``benchmarks/e2e/trace.py``; remove
#: the alias and that lookup together
send_frame_v2 = send_frame


def _send_frame_compressed(sock, wire, meta, buffers):
    """Emit an AMSC frame; returns None when nothing shrank (the
    caller then falls back to the cheaper plain AMS2 table)."""
    codec = wire.codec
    table = []
    parts = []
    shrank = False
    for buf in buffers:
        raw_len = len(buf)
        if raw_len >= wire.compress_min:
            encoded = codec.compress(buf)
            if len(encoded) < raw_len:
                table.append(COMPRESS_ENTRY.pack(len(encoded), raw_len))
                parts.append(encoded)
                shrank = True
                continue
        table.append(COMPRESS_ENTRY.pack(raw_len, raw_len))
        parts.append(buf)
    if not shrank:
        return None
    nbuf = len(buffers)
    if nbuf > MAX_BUFFERS:
        raise ProtocolError(f"too many buffers: {nbuf}")
    block_len = COMPRESS_HEAD.size + COMPRESS_ENTRY.size * nbuf + len(meta)
    payload = sum(len(p) for p in parts)
    if block_len > MAX_FRAME or block_len + payload > MAX_FRAME:
        raise ProtocolError(
            f"frame too large: {block_len + payload} bytes"
        )
    wire.wire_buffer_bytes += payload
    wire.compressed_bytes += payload
    head = HEADER.pack(MAGIC_COMPRESS, block_len)
    codec_head = COMPRESS_HEAD.pack(nbuf, codec.codec_id)
    return _sendmsg_all(sock, [head, codec_head, *table, meta, *parts])


def _send_frame_shm(sock, wire, meta, buffers):
    """Emit an AMSH frame: large buffers through the arena, small (or
    overflow) buffers inline, consumed peer offsets piggybacked.

    A frame rejected as oversize must not poison the still-healthy
    connection: the blocks allocated for it are returned to the arena
    and the drained freed-offset list is re-queued for the next frame.
    """
    arena = wire.tx_arena
    nbuf = len(buffers)
    if nbuf > MAX_BUFFERS:
        raise ProtocolError(f"too many buffers: {nbuf}")
    freed = wire.take_freed()
    allocated = []
    try:
        entries = []
        inline = []
        for buf in buffers:
            length = len(buf)
            offset = arena.alloc(length) if length >= wire.shm_min \
                else None
            if offset is None:
                entries.append(SHM_ENTRY.pack(0, length, 0))
                inline.append(buf)
            else:
                arena.write(offset, buf)
                allocated.append(offset)
                entries.append(SHM_ENTRY.pack(1, offset, length))
        head_fixed = SHM_HEAD.pack(nbuf, len(freed))
        freed_bytes = struct.pack(f"<{len(freed)}Q", *freed)
        block_len = (
            SHM_HEAD.size + SHM_ENTRY.size * nbuf + len(freed_bytes)
            + len(meta)
        )
        payload = sum(len(b) for b in inline)
        if block_len > MAX_FRAME or block_len + payload > MAX_FRAME:
            raise ProtocolError(
                f"frame too large: {block_len + payload} bytes"
            )
    except BaseException:
        for offset in allocated:
            arena.free(offset)
        wire.add_freed(freed)
        raise
    wire.wire_buffer_bytes += payload
    wire.shm_buffer_bytes += sum(len(b) for b in buffers) - payload
    head = HEADER.pack(MAGIC_SHM, block_len)
    return _sendmsg_all(
        sock, [head, head_fixed, *entries, freed_bytes, meta, *inline]
    )


# -- receive (layout detected per frame by magic) ----------------------------


def _recv_exact(sock, n):
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks) if len(chunks) != 1 else chunks[0]


def _recv_exact_into(sock, buf):
    """Fill the writable buffer *buf* completely via ``recv_into``."""
    view = memoryview(buf)
    offset = 0
    recv_into = getattr(sock, "recv_into", None)
    if recv_into is None:
        view[:] = _recv_exact(sock, len(view))
        return
    while offset < len(view):
        n = recv_into(view[offset:])
        if not n:
            raise ProtocolError("connection closed mid-frame")
        offset += n


def recv_frame(sock, wire=None):
    """Receive one frame (any layout, detected by magic); raises
    ProtocolError on EOF/corruption/oversize.

    Compressed (AMSC) frames are self-describing — the codec id is in
    the block — so *wire* is only needed for shm (AMSH) frames, whose
    descriptors reference the peer's arena attached on *wire* — and for
    the receive-side byte/frame accounting it accumulates.
    """
    header = _recv_exact(sock, HEADER.size)
    magic = header[:4]
    if magic == MAGIC:
        (length,) = struct.unpack("<I", header[4:])
        if length > MAX_FRAME:
            raise ProtocolError(f"frame too large: {length} bytes")
        payload = bytearray(length)
        _recv_exact_into(sock, payload)
        _count_received(wire, HEADER.size + length)
        return pickle.loads(payload)
    if magic == MAGIC2:
        (block_len,) = struct.unpack("<I", header[4:])
        if block_len > MAX_FRAME:
            raise ProtocolError(f"frame too large: {block_len} bytes")
        block = bytearray(block_len)
        _recv_exact_into(sock, block)
        (nbuffers,) = BLOCK_COUNT.unpack_from(block)
        table_end = BLOCK_COUNT.size + BUFFER_LEN.size * nbuffers
        if nbuffers > MAX_BUFFERS or table_end > block_len:
            raise ProtocolError(f"bad buffer table ({nbuffers} buffers)")
        lengths = struct.unpack_from(f"<{nbuffers}Q", block,
                                     BLOCK_COUNT.size)
        total = block_len + sum(lengths)
        if total > MAX_FRAME:
            raise ProtocolError(f"frame too large: {total} bytes")
        buffers = []
        for length in lengths:
            buf = bytearray(length)
            _recv_exact_into(sock, buf)
            buffers.append(buf)
        _count_received(wire, HEADER.size + total)
        meta = memoryview(block)[table_end:]
        return pickle.loads(meta, buffers=buffers)
    if magic == MAGIC_COMPRESS:
        return _recv_frame_compressed(sock, header, wire)
    if magic == MAGIC_SHM:
        return _recv_frame_shm(sock, header, wire)
    if magic == MAGIC_CANCEL:
        (block_len,) = struct.unpack("<I", header[4:])
        if block_len != CANCEL_BODY.size:
            raise ProtocolError(
                f"bad cancel frame length {block_len}"
            )
        ack_id, target = CANCEL_BODY.unpack(
            _recv_exact(sock, CANCEL_BODY.size)
        )
        _count_received(wire, HEADER.size + CANCEL_BODY.size)
        return ("cancel", ack_id, target)
    raise ProtocolError(f"bad frame magic {magic!r}")


def _count_received(wire, nbytes):
    """Accumulate receive-side accounting on *wire* (no-op without one)."""
    if wire is not None:
        wire.bytes_received += nbytes
        wire.frames_received += 1


def _recv_block(sock, header):
    (block_len,) = struct.unpack("<I", header[4:])
    if block_len > MAX_FRAME:
        raise ProtocolError(f"frame too large: {block_len} bytes")
    block = bytearray(block_len)
    _recv_exact_into(sock, block)
    return block


def _recv_frame_compressed(sock, header, wire=None):
    block = _recv_block(sock, header)
    nbuffers, codec_id = COMPRESS_HEAD.unpack_from(block)
    table_end = COMPRESS_HEAD.size + COMPRESS_ENTRY.size * nbuffers
    if nbuffers > MAX_BUFFERS or table_end > len(block):
        raise ProtocolError(f"bad buffer table ({nbuffers} buffers)")
    codec = CODECS_BY_ID.get(codec_id)
    if codec is None:
        raise ProtocolError(
            f"frame compressed with unknown codec id {codec_id} "
            "(negotiation should have prevented this)"
        )
    entries = [
        COMPRESS_ENTRY.unpack_from(block, COMPRESS_HEAD.size + i *
                                   COMPRESS_ENTRY.size)
        for i in range(nbuffers)
    ]
    total = len(block) + sum(enc for enc, _raw in entries)
    if total > MAX_FRAME:
        raise ProtocolError(f"frame too large: {total} bytes")
    buffers = []
    for enc_len, raw_len in entries:
        buf = bytearray(enc_len)
        _recv_exact_into(sock, buf)
        if enc_len != raw_len:
            buf = codec.decompress(buf, raw_len)
            if len(buf) != raw_len:
                raise ProtocolError(
                    f"decompressed to {len(buf)} bytes, "
                    f"expected {raw_len}"
                )
        buffers.append(buf)
    _count_received(wire, HEADER.size + total)
    meta = memoryview(block)[table_end:]
    return pickle.loads(meta, buffers=buffers)


def _recv_frame_shm(sock, header, wire):
    block = _recv_block(sock, header)
    nbuffers, nfreed = SHM_HEAD.unpack_from(block)
    table_end = (
        SHM_HEAD.size + SHM_ENTRY.size * nbuffers + BUFFER_LEN.size *
        nfreed
    )
    if nbuffers > MAX_BUFFERS or table_end > len(block):
        raise ProtocolError(f"bad buffer table ({nbuffers} buffers)")
    entries = [
        SHM_ENTRY.unpack_from(block, SHM_HEAD.size + i * SHM_ENTRY.size)
        for i in range(nbuffers)
    ]
    freed = struct.unpack_from(
        f"<{nfreed}Q", block, SHM_HEAD.size + SHM_ENTRY.size * nbuffers
    )
    total_inline = sum(a for kind, a, _b in entries if kind == 0)
    if len(block) + total_inline > MAX_FRAME:
        raise ProtocolError(
            f"frame too large: {len(block) + total_inline} bytes"
        )
    if wire is None or (
        any(kind == 1 for kind, _a, _b in entries)
        and wire.rx_arena is None
    ):
        raise ProtocolError(
            "received an shm frame on a connection without negotiated "
            "shared memory"
        )
    if freed and wire.tx_arena is not None:
        for offset in freed:
            wire.tx_arena.free(offset)
    buffers = []
    consumed = []
    for kind, a, b in entries:
        if kind == 0:
            buf = bytearray(a)
            _recv_exact_into(sock, buf)
        elif kind == 1:
            buf = wire.rx_arena.read(a, b)
            consumed.append(a)
        else:
            raise ProtocolError(f"bad shm buffer kind {kind}")
        buffers.append(buf)
    wire.add_freed(consumed)
    _count_received(wire, HEADER.size + len(block) + total_inline)
    meta = memoryview(block)[table_end:]
    return pickle.loads(meta, buffers=buffers)


# -- zero-decode relay (frame splicing) --------------------------------------

#: cut-through chunk size for relayed buffer bytes: big enough that the
#: per-chunk syscall pair is amortised, small enough that forwarding
#: starts while the sender is still writing the frame
RELAY_CHUNK = 1 << 20


def _relay_recv_header(src):
    """Read one frame header, or return None on EOF *between* frames.

    EOF mid-header is a protocol violation like any other truncation;
    EOF at a frame boundary is how a relayed connection ends cleanly.
    """
    buf = bytearray(HEADER.size)
    view = memoryview(buf)
    got = 0
    while got < HEADER.size:
        n = src.recv_into(view[got:])
        if not n:
            if got == 0:
                return None
            raise ProtocolError("connection closed mid-frame")
        got += n
    return buf


def _relay_trailing_len(magic, block):
    """Byte count that follows the descriptor block of a spliced frame.

    Parses ONLY the buffer table — never the pickled metadata — which
    is the whole point of the relay: the daemon learns how many raw
    buffer bytes to pump and nothing about their content.
    """
    block_len = len(block)
    if magic == MAGIC2:
        (nbuffers,) = BLOCK_COUNT.unpack_from(block)
        table_end = BLOCK_COUNT.size + BUFFER_LEN.size * nbuffers
        if nbuffers > MAX_BUFFERS or table_end > block_len:
            raise ProtocolError(
                f"bad buffer table ({nbuffers} buffers)"
            )
        lengths = struct.unpack_from(
            f"<{nbuffers}Q", block, BLOCK_COUNT.size
        )
        return sum(lengths)
    if magic == MAGIC_COMPRESS:
        nbuffers, _codec_id = COMPRESS_HEAD.unpack_from(block)
        table_end = COMPRESS_HEAD.size + COMPRESS_ENTRY.size * nbuffers
        if nbuffers > MAX_BUFFERS or table_end > block_len:
            raise ProtocolError(
                f"bad buffer table ({nbuffers} buffers)"
            )
        return sum(
            COMPRESS_ENTRY.unpack_from(
                block, COMPRESS_HEAD.size + i * COMPRESS_ENTRY.size
            )[0]
            for i in range(nbuffers)
        )
    # MAGIC_SHM: only kind-0 (inline) entries carry bytes on the wire;
    # kind-1 descriptors reference arena blocks the endpoints mapped
    # between themselves — the relay forwards those untouched, which is
    # what makes same-host shm zero-wire-copy end to end.
    nbuffers, nfreed = SHM_HEAD.unpack_from(block)
    table_end = (
        SHM_HEAD.size + SHM_ENTRY.size * nbuffers
        + BUFFER_LEN.size * nfreed
    )
    if nbuffers > MAX_BUFFERS or table_end > block_len:
        raise ProtocolError(f"bad buffer table ({nbuffers} buffers)")
    total = 0
    for i in range(nbuffers):
        kind, a, _b = SHM_ENTRY.unpack_from(
            block, SHM_HEAD.size + i * SHM_ENTRY.size
        )
        if kind == 0:
            total += a
        elif kind != 1:
            raise ProtocolError(f"bad shm buffer kind {kind}")
    return total


class RelayScratch:
    """Reusable pump state for :func:`relay_frame`.

    Owns the userspace chunk buffer and, on Linux, a lazily-created
    kernel pipe through which buffer bytes are moved socket-to-socket
    with ``os.splice`` — the payload never enters userspace at all,
    which is what keeps relayed throughput within the 10% acceptance
    bound of a direct socket.  One instance per pump thread; call
    :meth:`close` when the pump ends (the pipe holds kernel pages).
    """

    __slots__ = ("buf", "_pipe", "_no_splice")

    def __init__(self):
        self.buf = bytearray(RELAY_CHUNK)
        self._pipe = None
        self._no_splice = not hasattr(os, "splice")

    def pipe(self):
        if self._pipe is None:
            read_fd, write_fd = os.pipe()
            try:
                import fcntl

                # a 1 MiB pipe moves RELAY_CHUNK per splice pair; the
                # 64 KiB default would cost 16x the syscalls
                fcntl.fcntl(
                    write_fd, fcntl.F_SETPIPE_SZ, RELAY_CHUNK
                )
            except (ImportError, AttributeError, OSError):
                pass        # default capacity still works, just slower
            self._pipe = (read_fd, write_fd)
        return self._pipe

    def close(self):
        if self._pipe is not None:
            for fd in self._pipe:
                try:
                    os.close(fd)
                except OSError:
                    pass
            self._pipe = None


def _splice_kernel(src, dst, nbytes, scratch):
    """Zero-copy pump: socket → kernel pipe → socket via os.splice.

    Returns False (without consuming anything) when the kernel refuses
    the very first splice — the caller then falls back to the
    userspace loop for good.  Any failure after bytes moved is a real
    connection error; the pipe may hold undelivered bytes, so it is
    dropped rather than reused.
    """
    pipe_read, pipe_write = scratch.pipe()
    src_fd, dst_fd = src.fileno(), dst.fileno()
    remaining = nbytes
    try:
        while remaining:
            try:
                moved = os.splice(
                    src_fd, pipe_write, min(remaining, RELAY_CHUNK)
                )
            except OSError as exc:
                if remaining == nbytes and exc.errno in (
                    errno.EINVAL, errno.ENOSYS, errno.EOPNOTSUPP,
                ):
                    scratch._no_splice = True
                    return False
                raise
            if not moved:
                raise ProtocolError("connection closed mid-frame")
            while moved:
                n = os.splice(pipe_read, dst_fd, moved)
                moved -= n
                remaining -= n
    except BaseException:
        scratch.close()     # never reuse a pipe with stranded bytes
        raise
    return True


def _splice_exact(src, dst, nbytes, scratch):
    """Pump *nbytes* from src to dst, cut-through: each chunk is
    forwarded as soon as it arrives, so the two hops of a relayed
    transfer pipeline instead of store-and-forwarding.  With a
    :class:`RelayScratch` the bytes move through a kernel pipe
    (``os.splice``, zero userspace copies); a plain ``bytearray``
    scratch — or a kernel that refuses to splice sockets — takes the
    portable recv_into/sendall loop."""
    if isinstance(scratch, RelayScratch):
        if not scratch._no_splice and \
                _splice_kernel(src, dst, nbytes, scratch):
            return
        view = memoryview(scratch.buf)
    else:
        view = memoryview(scratch)
    remaining = nbytes
    while remaining:
        n = src.recv_into(view[: min(remaining, len(view))])
        if not n:
            raise ProtocolError("connection closed mid-frame")
        dst.sendall(view[:n])
        remaining -= n


def relay_frame(src, dst, scratch=None):
    """Splice one frame from *src* to *dst* without decoding it.

    The relay half of the daemon data plane: reads the 8-byte header,
    parses just enough of the descriptor block to learn the trailing
    buffer byte count (never the pickled metadata), validates the same
    size/table bounds :func:`recv_frame` enforces, and forwards
    header + block verbatim followed by the raw buffer bytes in
    cut-through chunks.

    Returns the total byte count spliced, or ``None`` on a clean EOF
    at a frame boundary.  Raises :class:`ProtocolError` on truncation,
    oversize or a malformed table — the caller tears down only the
    offending connection.

    *scratch* is a reusable ``bytearray`` or :class:`RelayScratch` for
    the buffer pump; one per pump thread avoids re-allocating
    :data:`RELAY_CHUNK` per frame, and a :class:`RelayScratch` adds
    the kernel ``splice(2)`` fast path (no userspace copies at all).
    """
    header = _relay_recv_header(src)
    if header is None:
        return None
    magic = bytes(header[:4])
    (block_len,) = struct.unpack("<I", header[4:])
    if magic == MAGIC_CANCEL:
        if block_len != CANCEL_BODY.size:
            raise ProtocolError(f"bad cancel frame length {block_len}")
        body = bytearray(CANCEL_BODY.size)
        _recv_exact_into(src, body)
        dst.sendall(bytes(header) + bytes(body))
        return HEADER.size + CANCEL_BODY.size
    if block_len > MAX_FRAME:
        raise ProtocolError(f"frame too large: {block_len} bytes")
    if magic == MAGIC:
        # AMSE: the length IS the payload length; stream it straight through
        dst.sendall(header)
        if scratch is None:
            scratch = bytearray(RELAY_CHUNK)
        _splice_exact(src, dst, block_len, scratch)
        return HEADER.size + block_len
    if magic not in (MAGIC2, MAGIC_COMPRESS, MAGIC_SHM):
        raise ProtocolError(f"bad frame magic {magic!r}")
    block = bytearray(block_len)
    _recv_exact_into(src, block)
    trailing = _relay_trailing_len(magic, block)
    if block_len + trailing > MAX_FRAME:
        raise ProtocolError(
            f"frame too large: {block_len + trailing} bytes"
        )
    dst.sendall(bytes(header) + bytes(block))
    if trailing:
        if scratch is None:
            scratch = bytearray(RELAY_CHUNK)
        _splice_exact(src, dst, trailing, scratch)
    return HEADER.size + block_len + trailing
