"""Seeded workloads for the HOPE run ledger, and their reference oracle.

Each workload turns ``(seed, size)`` into plain inputs — affirm/deny
verdicts and per-round virtual compute costs — and the HOPE programs
receive nothing else.  The expected committed outputs are computed from
those inputs alone, without running the runtime, so a run is judged
against an independent reference rather than against another run.

All three run on the simulator backend through the public ``HopeSystem``
API, one process tree at a time.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro import HopeSystem
from repro.durable import DurableError, DurableStore, decode_value
from repro.obs import MetricsRegistry
from repro.sim import ConstantLatency

#: Guard against a livelocked run: far above any workload's event count.
MAX_EVENTS = 20_000_000


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _rng(workload: str, seed: int, size: int) -> random.Random:
    # String seeding hashes with SHA-512, so the draw is identical in
    # every interpreter (no dependence on PYTHONHASHSEED).
    return random.Random(f"{workload}/{size}/{seed}")


def _verdicts(rng: random.Random, rounds: int) -> tuple:
    """Exactly a third of the rounds denied, at seeded positions: the
    amount of rollback work is fixed by the size, only its placement
    moves with the seed."""
    denied = set(rng.sample(range(rounds), rounds // 3))
    return tuple(i not in denied for i in range(rounds))


def _costs(rng: random.Random, rounds: int) -> tuple:
    return tuple(rng.choice((0.75, 1.0, 1.25)) for _ in range(rounds))


# ---------------------------------------------------------------------------
# pingpong: every message guessed by the sender and affirmed by the receiver
# ---------------------------------------------------------------------------


def ping(p, peer, items):
    for i, (payload, cost) in enumerate(items):
        x = yield p.aid_init(f"m{i}")
        yield p.guess(x)
        yield p.send(peer, (x, i, payload))
        yield p.compute(cost)
        yield p.emit(("ping", i, payload))
        yield p.recv()
    return len(items)


def pong(p, peer, count):
    for _ in range(count):
        msg = yield p.recv()
        x, i, payload = msg.payload
        yield p.affirm(x)
        yield p.emit(("pong", i, payload))
        yield p.send(peer, i)
    return count


def _pingpong_inputs(seed: int, size: int):
    rng = _rng("pingpong", seed, size)
    return tuple(
        (rng.randrange(1 << 30), rng.choice((1.0, 2.0, 3.0, 4.0)))
        for _ in range(size)
    )


def _pingpong_build(system: HopeSystem, items) -> None:
    system.spawn("ping", ping, "pong", items)
    system.spawn("pong", pong, "ping", len(items))


def _pingpong_reference(items) -> dict:
    return {
        "ping": [("ping", i, payload) for i, (payload, _) in enumerate(items)],
        "pong": [("pong", i, payload) for i, (payload, _) in enumerate(items)],
    }


# ---------------------------------------------------------------------------
# fanout: independent worker/validator pairs, a third of the rounds denied
# ---------------------------------------------------------------------------

FANOUT_PAIRS = 32


def fan_worker(p, validator, costs):
    for i, cost in enumerate(costs):
        x = yield p.aid_init(f"r{i}")
        ok = yield p.guess(x)
        yield p.send(validator, (x, i))
        yield p.compute(cost)
        # The committed value of a guess is its verdict: True survives an
        # affirm, and a deny re-executes the guess, which then yields False.
        yield p.emit((i, ok))
    return len(costs)


def fan_validator(p, verdicts):
    for _ in range(len(verdicts)):
        msg = yield p.recv()
        x, i = msg.payload
        if verdicts[i]:
            yield p.affirm(x)
        else:
            yield p.deny(x)
        yield p.emit((i, verdicts[i]))
    return len(verdicts)


def _fanout_inputs(seed: int, size: int):
    rng = _rng("fanout", seed, size)
    return tuple(
        (_verdicts(rng, size), _costs(rng, size)) for _ in range(FANOUT_PAIRS)
    )


def _fanout_build(system: HopeSystem, pairs) -> None:
    for k, (verdicts, costs) in enumerate(pairs):
        system.spawn(f"fv{k}", fan_validator, verdicts)
        system.spawn(f"fw{k}", fan_worker, f"fv{k}", costs)


def _fanout_reference(pairs) -> dict:
    expected = {}
    for k, (verdicts, _) in enumerate(pairs):
        rows = [(i, ok) for i, ok in enumerate(verdicts)]
        expected[f"fv{k}"] = rows
        expected[f"fw{k}"] = list(rows)
    return expected


# ---------------------------------------------------------------------------
# counter: commit-point accumulators judged centrally, recorded durably
# ---------------------------------------------------------------------------

COUNTER_WORKERS = 4


def counter_worker(p, judge, rounds, resume=None):
    state = resume if resume is not None else {"round": 0, "acc": 0}
    while state["round"] < rounds:
        i = state["round"]
        a = yield p.aid_init(f"{p.name}-c{i}")
        yield p.send(judge, (a, p.name, i))
        if (yield p.guess(a)):
            yield p.compute(1.0)
            state["acc"] += 3
        else:
            yield p.compute(2.0)
            state["acc"] -= 1
        yield p.emit((p.name, i, state["acc"]))
        state["round"] += 1
        yield p.commit_point(dict(state))
    return state["acc"]


def counter_judge(p, verdicts, resume=None):
    state = resume if resume is not None else {"seen": 0}
    while state["seen"] < len(verdicts):
        msg = yield p.recv()
        a, name, i = msg.payload
        yield p.compute(0.3)
        if verdicts[(name, i)]:
            yield p.affirm(a)
        else:
            yield p.deny(a)
        state["seen"] += 1
        yield p.emit(("judged", name, i))
        yield p.commit_point(dict(state))
    return state["seen"]


def _counter_inputs(seed: int, size: int):
    rng = _rng("counter", seed, size)
    return tuple(_verdicts(rng, size) for _ in range(COUNTER_WORKERS))


def _counter_build(system: HopeSystem, workers) -> None:
    table = {
        (f"c{w}", i): ok
        for w, verdicts in enumerate(workers)
        for i, ok in enumerate(verdicts)
    }
    system.spawn("judge", counter_judge, table)
    for w, verdicts in enumerate(workers):
        system.spawn(f"c{w}", counter_worker, "judge", len(verdicts))


def _counter_reference(workers) -> dict:
    expected = {"judge": []}
    for w, verdicts in enumerate(workers):
        name = f"c{w}"
        acc, rows = 0, []
        for i, ok in enumerate(verdicts):
            acc += 3 if ok else -1
            rows.append((name, i, acc))
        expected[name] = rows
        expected["judge"].extend(("judged", name, i) for i in range(len(verdicts)))
    return expected


# ---------------------------------------------------------------------------
# the workload table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    #: Full size (messages for pingpong, rounds per process otherwise);
    #: the growth exponent compares it with a run at ``size // 4``.
    size: int
    make_inputs: Callable[[int, int], Any]
    build: Callable[[HopeSystem, Any], None]
    reference: Callable[[Any], dict]
    durable: bool = False
    fossil: bool = False
    metered: bool = False
    #: Processes whose committed outputs interleave several senders, so
    #: only their multiset is fixed by the inputs.
    unordered: frozenset = frozenset()

    def options(self, seed: int, durable_dir: Optional[str]) -> dict:
        opts: dict = {"seed": seed, "latency": ConstantLatency(1.0)}
        if self.fossil:
            opts["fossil_collect"] = True
        if self.metered:
            opts["metrics"] = MetricsRegistry()
        if self.durable:
            opts["durable_dir"] = durable_dir
        return opts


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pingpong", 2000, _pingpong_inputs, _pingpong_build,
                 _pingpong_reference),
        Workload("fanout", 120, _fanout_inputs, _fanout_build,
                 _fanout_reference, fossil=True),
        Workload("counter", 600, _counter_inputs, _counter_build,
                 _counter_reference, durable=True, fossil=True, metered=True,
                 unordered=frozenset({"judge"})),
    )
}


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def expected_count(reference: dict) -> int:
    return sum(len(rows) for rows in reference.values())


def count_failures(reference: dict, committed: dict, unordered=frozenset()) -> int:
    """Expected committed outputs that are missing, extra or wrong.

    Ordered processes are compared position by position; an ``unordered``
    process by multiset, where a wrong value shows as one missing and one
    extra output and counts once.  Outputs of a process the reference does
    not name are all extra.
    """
    failed = 0
    for name in sorted(set(reference) | set(committed)):
        want = reference.get(name, [])
        got = committed.get(name, [])
        if name in unordered:
            want_c, got_c = Counter(want), Counter(got)
            failed += max(sum((want_c - got_c).values()), sum((got_c - want_c).values()))
        else:
            failed += sum(1 for a, b in zip(want, got) if a != b)
            failed += abs(len(want) - len(got))
    return failed


def fingerprint(committed: dict) -> str:
    """Digest of every process's committed outputs, in spawn-name order."""
    h = hashlib.sha256()
    for name in sorted(committed):
        h.update(repr((name, committed[name])).encode())
    return h.hexdigest()[:16]


def durable_failures(root: str, committed: dict) -> int:
    """Verify a finished durable run through the public ``repro.durable``
    readers.

    The newest sealed envelope must load and verify, every WAL record on
    the replay path must be covered by a valid batch marker, and the
    envelope's persisted outputs must equal the committed outputs.
    Returns the number of rejected or discarded records, plus mismatched
    persisted outputs.
    """
    store = DurableStore(root, fsync=False)
    try:
        gens = store.envelope_gens()
        if not gens:
            return 1
        newest = gens[-1]
        try:
            doc, _ = store.load_envelope(newest)
        except DurableError:
            return 1
        failed = 0
        for gen in store.wal_gens():
            if gen >= newest:
                _, discarded, clean = store.scan_wal(gen)
                failed += max(discarded, 0 if clean else 1)
        persisted = {
            name: [decode_value(row[0]) for row in image["outputs"]]
            for name, image in doc["procs"].items()
        }
        failed += count_failures(committed, persisted)
        return failed
    finally:
        store.close()


class WorkDir:
    """Scratch directories for durable runs, under the benchmark's own
    output directory; every one is removed when its run is released."""

    def __init__(self, root: str) -> None:
        self.root = os.path.join(root, f"work-{os.getpid()}")
        self._next = 0

    def fresh(self) -> str:
        self._next += 1
        return os.path.join(self.root, f"run-{self._next}")

    def remove(self, path: Optional[str]) -> None:
        if path is not None:
            shutil.rmtree(path, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
