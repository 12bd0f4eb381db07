"""Rollback withdraws a suffix of ``proc.outputs``, found by bisect.

The engine used to rebuild the list with a filter on every rollback,
``[r for r in outputs if r.log_index < checkpoint]``.  It now cuts the
list at a bisect point, which is only equal while the list is ordered by
``log_index``.  These runs check the cut against that filter at every
rollback: live runs with interleaved emits and rollbacks, and a durable
run resumed from disk, whose list is rebuilt from the recorded image.
After a crash the committed outputs an earlier incarnation left behind
stay put, whatever log positions the new incarnation reaches.
"""

import pytest

from repro.bench.workloads import build_durable_counter, build_fanout
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, EventLimitExceeded


@pytest.fixture
def withdrawals(monkeypatch):
    """Spy on every rollback: the cut must equal the old filter, and the
    part of the list a rollback may cut must be ordered by log_index.
    (Outputs kept through a crash are outside both: see the last test.)"""
    original = HopeSystem._apply_rollback
    seen = []

    def spy(self, event):
        proc = self.procs.get(event.pid)
        if proc is None:
            return original(self, event)
        cut = event.resume_interval.ps.log_index
        kept = proc.outputs_kept
        before = list(proc.outputs)
        indices = [r.log_index for r in before[kept:]]
        assert indices == sorted(indices)
        expected = before[:kept] + [r for r in before[kept:] if r.log_index < cut]
        original(self, event)
        assert proc.outputs == expected
        seen.append((len(before), len(before) - len(expected)))

    monkeypatch.setattr(HopeSystem, "_apply_rollback", spy)
    return seen


def _values(system):
    return {name: system.outputs(name) for name in sorted(system.procs)}


def _committed(system):
    return {name: system.committed_outputs(name) for name in sorted(system.procs)}


def _multisets(outputs):
    """Per process, the outputs as a sorted multiset: the judge's order
    interleaves several senders and may move with crash timing."""
    return {name: sorted(map(repr, values)) for name, values in outputs.items()}


def test_interleaved_emits_and_rollbacks_match_the_filter(withdrawals):
    def worker(p, judge, rounds):
        for i in range(rounds):
            yield p.emit(("pre", i))
            x = yield p.aid_init(f"x{i}")
            yield p.send(judge, x)
            ok = yield p.guess(x)
            yield p.emit(("guessed", i, ok))
            yield p.compute(0.5)
            yield p.emit(("post", i, ok))
        return rounds

    def judge(p, rounds):
        for i in range(rounds):
            msg = yield p.recv()
            yield p.compute(2.0)
            if i % 3 == 1:
                yield p.deny(msg.payload)
            else:
                yield p.affirm(msg.payload)
            yield p.emit(("judged", i))
        return rounds

    system = HopeSystem(seed=2, latency=ConstantLatency(1.0))
    system.spawn("judge", judge, 12)
    system.spawn("worker", worker, "judge", 12)
    system.run()
    assert withdrawals and any(dropped for _, dropped in withdrawals)
    expected = []
    for i in range(12):
        ok = i % 3 != 1
        expected += [("pre", i), ("guessed", i, ok), ("post", i, ok)]
    assert system.outputs("worker") == expected
    assert system.committed_outputs("worker") == expected
    assert system.committed_outputs("judge") == [("judged", i) for i in range(12)]


def test_fanout_withdrawals_match_the_filter(withdrawals):
    system = HopeSystem(seed=5, latency=ConstantLatency(1.0), fossil_collect=True)
    build_fanout(system, pairs=4, rounds=20)
    system.run()
    assert len(withdrawals) > 20
    assert _values(system) == _committed(system)


def _durable_kwargs(**extra):
    kwargs = dict(
        seed=1,
        latency=ConstantLatency(1.0),
        fossil_collect=True,
        fossil_interval=4,
        durable_opts={"snapshot_every": 1},
    )
    kwargs.update(extra)
    return kwargs


def test_resume_rebuilt_outputs_match_the_filter(tmp_path, withdrawals):
    """Kill a durable run mid-way, resume it from disk, and keep rolling
    back: the cut still equals the filter on the rebuilt list, and the run
    commits what an uninterrupted twin commits."""

    def build(system):
        build_durable_counter(system, workers=3, rounds=8)

    twin = HopeSystem(**_durable_kwargs(durable_dir=str(tmp_path / "twin")))
    build(twin)
    twin.run()

    crashed = HopeSystem(**_durable_kwargs(durable_dir=str(tmp_path / "run")))
    build(crashed)
    with pytest.raises(EventLimitExceeded):
        crashed.run(max_events=60)
    del withdrawals[:]

    resumed = HopeSystem.resume(str(tmp_path / "run"), build, **_durable_kwargs())
    restored = {name: len(proc.outputs) for name, proc in resumed.procs.items()}
    assert any(restored.values())
    resumed.run()
    assert withdrawals and any(dropped for _, dropped in withdrawals)
    assert any(size > 0 for size, _ in withdrawals)
    assert _multisets(_committed(resumed)) == _multisets(_committed(twin))
    assert _multisets(_values(resumed)) == _multisets(_values(twin))


def test_outputs_kept_through_a_crash_are_never_withdrawn(withdrawals):
    """The first incarnation commits five outputs at log positions 1..5,
    then crashes.  The restarted one guesses at position 3 and is denied:
    the rollback withdraws nothing it did not emit itself."""

    def worker(p):
        t = yield p.now()
        if t < 1.0:
            for i in range(5):
                yield p.emit(("pre", i))
            yield p.compute(10.0)
            return "first"
        x = yield p.aid_init("x")
        yield p.send("judge", x)
        ok = yield p.guess(x)
        yield p.emit(("post", ok))
        yield p.compute(1.0)
        return "second"

    def judge(p):
        msg = yield p.recv()
        yield p.compute(3.0)
        yield p.deny(msg.payload)

    system = HopeSystem()
    system.spawn("worker", worker)
    system.spawn("judge", judge)
    system.sim.schedule_at(1.0, system.crash_process, "worker")
    system.sim.schedule_at(2.0, system.restart_process, "worker")
    system.run()
    pre = [("pre", i) for i in range(5)]
    assert system.procs["worker"].outputs_kept == 5
    assert system.outputs("worker") == pre + [("post", False)]
    assert system.committed_outputs("worker") == pre + [("post", False)]
    assert system.result_of("worker") == "second"
