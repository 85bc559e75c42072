"""Correctness oracle and residue guard.

Every check is a dict ``{"name", "ok", "detail"}``; run.py counts each
one as attempted and each failed one in ``fail_ratio``, next to the ops
themselves.  The oracles:

* placement equivalence — the same workload and seed on ``jungle`` and
  on ``direct`` must end in the same state (``cluster_jungle`` final
  ``metrics()`` + ``diagnostics()`` at rtol 1e-9, ``bridge_chatty``
  final positions at rtol 1e-12): :func:`equal_states`;
* mass budget and bit-exact push/pull round trip — need the live
  codes, so they live with the workloads (``self_checks``);
* ``kernels.octree_rms_rel_err`` ≤ 2e-2 — measured in layers.py;
* residue — a measuring process leaves nothing behind once it has
  stopped its codes: :func:`residue_checks`.
"""

from __future__ import annotations

import math
import os
import re
import threading
import time

#: rtol of the placement-equivalence oracle per workload
EQUIVALENCE_RTOL = {"cluster_jungle": 1e-9, "bridge_chatty": 1e-12}
OCTREE_RMS_REL_ERR_MAX = 2e-2

#: The daemon's own threads, which are unnamed (``Thread-7 (_serve)``;
#: every rpc.channel thread has a name of its own).  Once a session is
#: closed these stay: the two accept loops, which serve until the
#: process ends, and the ``_serve`` / ``_read_responses`` pair of a
#: client link — always the session's control link, now and then a
#: pilot's relay link — blocked in ``recv``, since closing a socket
#: from the process that also reads it does not wake the reader.
#: ``IbisDaemon.shutdown()`` ends none of them (layers.py times it and
#: counts them: ``distributed.shutdown_s`` / ``.leaked_threads``).  A
#: known defect at the commit that added this benchmark, so
#: :func:`residue_checks` lets exactly that many pass — 2 accept loops
#: and one pair per link — counts them, and fails on any thread beyond
#: them.
DAEMON_THREAD = re.compile(
    r"Thread-\d+ \((_accept_loop|_serve|_read_responses)\)"
)


def check(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": "" if ok else detail}


def _close(a, b, rtol):
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _close(x, y, rtol) for x, y in zip(a, b)
        )
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)
    return a == b


def equal_states(label, got, want, rtol):
    """One check per key of two ``final_state()`` dicts."""
    return [
        check(
            f"{label}.{key}",
            key in got and key in want
            and _close(got[key], want[key], rtol),
            f"{got.get(key)!r} != {want.get(key)!r} at rtol {rtol}",
        )
        for key in sorted(set(got) | set(want))
    ]


# -- residue ----------------------------------------------------------------


def _shm_segments():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _child_pids():
    """Pids whose parent is this process (zombies included)."""
    me = str(os.getpid())
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rpartition(")")[2].split()
        except OSError:
            continue            # exited while we were looking
        if fields[1] == me:
            children.append(int(entry))
    return children


def residue_baseline():
    return {
        "threads": set(threading.enumerate()),
        "shm": _shm_segments(),
    }


def residue_checks(baseline, links=0, timeout=5.0):
    """``(checks, exempt)``: no live child process, no new ``/dev/shm``
    segment, no new thread beyond the DAEMON_THREAD allowance for the
    *links* client connections the process opened to its in-process
    daemon (0: no daemon) — each given *timeout* seconds to wind down;
    *exempt* is how many threads that allowance let pass."""
    deadline = time.monotonic() + timeout
    while True:
        children = _child_pids()
        segments = sorted(_shm_segments() - baseline["shm"])
        allowance = {"_accept_loop": 2, "_serve": links,
                     "_read_responses": links} if links else {}
        exempt = 0
        threads = []
        for thread in threading.enumerate():
            if thread in baseline["threads"]:
                continue
            match = DAEMON_THREAD.fullmatch(thread.name)
            if match and allowance.get(match[1], 0) > 0:
                allowance[match[1]] -= 1
                exempt += 1
            else:
                threads.append(thread.name)
        if not (children or segments or threads) \
                or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    return [
        check("residue.child_processes", not children,
              f"still alive: {children}"),
        check("residue.shm_segments", not segments,
              f"left in /dev/shm: {segments}"),
        check("residue.threads", not threads,
              f"still running: {threads}"),
    ], exempt
