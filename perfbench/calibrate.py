"""A fixed reference load that measures how fast the host runs Python now.

The shared host's speed drifts by tens of percent over minutes, so a time
taken in one run and a time taken in another, minutes apart, differ by
more than any change worth detecting, even in CPU seconds.
``reference_load`` is a
small, fixed, pure-Python discrete-event loop — generators resumed from a
heap, messages in dict mailboxes, merged dependency sets and a retained
history of slotted objects that the garbage collector walks — in the
style of the simulator, but importing nothing from the program, so no
change to the program changes it.  The benchmark times it, in CPU
seconds, between the program's runs and reports each program time scaled
to the host speed at which the reference load takes ``REFERENCE_S``
seconds (see ``Calibrator``).
"""

from __future__ import annotations

import heapq
from time import process_time

#: CPU seconds the reference load takes at the reference speed.  A fixed
#: constant, near the load's time on a 2-CPU shared host under CPython
#: 3.11; it only sets the scale of the reported times.
REFERENCE_S = 0.04

#: Processes and messages per process of one reference load.
_PROCS = 32
_MESSAGES = 400
#: ``reference_load``'s return value: a mismatch means it did other work.
CHECKSUM = 3_252_313


class _Entry:
    __slots__ = ("me", "src", "seq", "value", "deps")

    def __init__(self, me, src, seq, value, deps):
        self.me = me
        self.src = src
        self.seq = seq
        self.value = value
        self.deps = deps


def _proc(me, peers, inbox, history):
    total = 0
    deps = frozenset()
    for i in range(_MESSAGES):
        dest = peers[(me + i) % len(peers)]
        yield ("send", dest, (me, i, total & 0xFFFF, deps))
        total += i
        while not inbox[me]:
            yield ("wait",)
        src, seq, value, theirs = inbox[me].pop(0)
        # A bounded dependency set, merged from every message received.
        if len(deps) < 8:
            deps = deps | theirs | {(src, seq)}
        else:
            deps = frozenset({(src, seq)})
        history.append(_Entry(me, src, seq, value, deps))
        total += value % 97
    return total


def reference_load() -> int:
    """Run the reference loop once; returns ``CHECKSUM``."""
    inbox = {p: [] for p in range(_PROCS)}
    history: list = []
    peers = list(range(_PROCS))
    gens = {p: _proc(p, peers, inbox, history) for p in peers}
    heap = [(0, p, p, None) for p in peers]
    seq = _PROCS
    results = {}
    while heap:
        now, _, p, value = heapq.heappop(heap)
        try:
            action = gens[p].send(value)
        except StopIteration as stop:
            results[p] = stop.value
            continue
        if action[0] == "send":
            _, dest, payload = action
            inbox[dest].append(payload)
        seq += 1
        heapq.heappush(heap, (now + 1 + (seq % 3), seq, p, None))
    return sum(results.values()) + sum(len(e.deps) for e in history)


class Calibrator:
    """Times the reference load between the program's timed sections and
    scales each section to the reference speed.

    Call ``mark()`` before the first section and after every one; a
    section is scaled by the mean of the reference timings taken just
    before and just after it, so drift slower than one section cancels.
    """

    def __init__(self) -> None:
        self.last = None

    def time_reference(self) -> float:
        t0 = process_time()
        if reference_load() != CHECKSUM:
            raise RuntimeError("the reference load returned a wrong checksum")
        return process_time() - t0

    def mark(self) -> float:
        """Time the reference load; return the scale for the section that
        just ended (``REFERENCE_S`` over the mean reference time around it),
        or 1.0 for the first mark."""
        now = self.time_reference()
        before, self.last = self.last, now
        if before is None:
            return 1.0
        return REFERENCE_S / ((before + now) / 2)
