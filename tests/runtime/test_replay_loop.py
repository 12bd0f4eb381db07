"""The replay fast-forward loop (``EffectLog.fast_forward``) and the
engine's restart path around it.

Covers every check the loop keeps while it sends logged results straight
into the body's generator: the per-entry kind check with its absolute
index, the non-HOPE effect check, the task state when the body returns or
raises mid-replay, and shadow replicas that diverge.  The pinned counts at
the end fix what the loop may not change: how many entries a run re-feeds,
how often it rolls back, and what it commits.
"""

import hashlib

import pytest

from repro.bench.workloads import build_fanout
from repro.core.errors import HopeError
from repro.runtime import EffectLog, HopeSystem, ReplayDivergenceError
from repro.runtime.effects import EFFECT_KINDS, ComputeEffect, NowEffect, SendEffect
from repro.runtime.replay import ShadowCheckpoint
from repro.sim import ConstantLatency
from repro.sim.process import Timeout


def _judge(verdicts, think=5.0):
    """Judge body factory: resolves round ``i`` by ``verdicts[i]`` after
    ``think`` time units, by default well after the worker has guessed."""

    def judge(p, resume=None):
        state = resume if resume is not None else {"seen": 0}
        while state["seen"] < len(verdicts):
            msg = yield p.recv()
            yield p.compute(think)
            if verdicts[state["seen"]]:
                yield p.affirm(msg.payload)
            else:
                yield p.deny(msg.payload)
            state["seen"] += 1
            yield p.commit_point(state)
        return "judged"

    return judge


def _two_incarnations(second):
    """A worker whose second incarnation runs ``second(p)`` as its replayed
    prefix; the first logs aid_init, send, compute, now before its guess.
    The judge denies the guess, so the second incarnation is a replay."""
    runs = {"n": 0}

    def worker(p):
        runs["n"] += 1
        if runs["n"] == 1:
            x = yield p.aid_init("x")
            yield p.send("judge", x)
            yield p.compute(1.0)
            yield p.now()
        else:
            x = yield from second(p)
        if (yield p.guess(x)):
            yield p.compute(5.0)
        return "finished"

    system = HopeSystem()
    system.spawn("worker", worker)
    system.spawn("judge", _judge([False]))
    return system


# ---------------------------------------------------------------- the loop
def _gen(kinds_fed, effects):
    """A body yielding ``effects`` in order, recording what it is fed."""
    for effect in effects:
        kinds_fed.append((yield effect))


def _log(*kinds):
    log = EffectLog()
    for i, kind in enumerate(kinds):
        log.append(kind, i)
    log.begin_replay()
    return log


class TestFastForwardUnit:
    def test_feeds_every_entry_and_writes_counters(self):
        fed = []
        log = _log("compute", "now", "compute")
        gen = _gen(fed, [ComputeEffect(1.0), NowEffect(), ComputeEffect(2.0), NowEffect()])
        effect = log.fast_forward(gen, next(gen), len(log))
        assert type(effect) is NowEffect
        assert fed == [0, 1, 2]
        assert (log.cursor, log.pending, log.replayed_entries_total) == (3, 0, 3)

    def test_stops_at_a_kind_mismatch_with_counters_at_the_entry(self):
        log = _log("compute", "now", "compute")
        gen = _gen([], [ComputeEffect(1.0), ComputeEffect(2.0)])
        effect = log.fast_forward(gen, next(gen), len(log))
        assert type(effect) is ComputeEffect
        assert (log.cursor, log.pending, log.replayed_entries_total) == (1, 2, 1)
        error = log.divergence(effect.kind)
        assert isinstance(error, ReplayDivergenceError)
        assert "entry 1" in str(error) and "'now'" in str(error)

    def test_an_exception_leaves_counters_as_feed_did(self):
        """The entry whose send the body answers by raising counts as fed,
        exactly as ``feed`` followed by a failed resume counted it."""

        def body():
            yield ComputeEffect(1.0)
            yield ComputeEffect(1.0)
            raise ValueError("boom")

        log = _log("compute", "compute", "compute")
        gen = body()
        with pytest.raises(ValueError, match="boom"):
            log.fast_forward(gen, next(gen), len(log))
        assert (log.cursor, log.pending, log.replayed_entries_total) == (2, 1, 2)

    def test_stop_iteration_propagates_with_counters(self):
        def body():
            yield ComputeEffect(1.0)
            return "early"

        log = _log("compute", "compute")
        gen = body()
        with pytest.raises(StopIteration) as stop:
            log.fast_forward(gen, next(gen), len(log))
        assert stop.value.value == "early"
        assert (log.cursor, log.pending, log.replayed_entries_total) == (1, 1, 1)

    def test_kind_table_covers_exactly_the_engine_handlers(self):
        assert set(EFFECT_KINDS) == set(HopeSystem._LIVE_HANDLERS)
        assert all(EFFECT_KINDS[cls] == cls.kind for cls in EFFECT_KINDS)


# ------------------------------------------------------ engine restart path
class TestEngineReplay:
    def test_divergence_after_rebase_reports_the_absolute_index(self):
        """Replay from a fossil base > 0: the error names the absolute
        journal position, not the position inside the kept window."""

        def worker(p, rounds, resume=None):
            state = resume if resume is not None else {"round": 0}
            while state["round"] < rounds:
                i = state["round"]
                x = yield p.aid_init(f"r{i}")
                if resume is not None and i == 3:
                    yield p.now()               # the log recorded a send here
                else:
                    yield p.send("judge", x)
                yield p.guess(x)
                yield p.compute(1.0)
                state["round"] += 1
                yield p.commit_point(state)
            return state["round"]

        system = HopeSystem(
            latency=ConstantLatency(1.0), fossil_collect=True, fossil_interval=1
        )
        system.spawn("judge", _judge([True, True, True, False, True], think=0.3))
        system.spawn("worker", worker, 5)
        with pytest.raises(ReplayDivergenceError) as err:
            system.run()
        log = system.procs["worker"].log
        assert log.base > 0
        assert log.cursor == log.base + 1
        assert f"at entry {log.cursor}:" in str(err.value)
        assert "'now'" in str(err.value) and "'send'" in str(err.value)

    def test_non_hope_effect_mid_replay_raises(self):
        def second(p):
            x = yield p.aid_init("x")
            yield Timeout(1.0)                  # a sim effect, not HOPE
            return x

        system = _two_incarnations(second)
        with pytest.raises(HopeError, match="non-HOPE effect .* during replay"):
            system.run()
        log = system.procs["worker"].log
        assert log.cursor == 1          # aid_init fed; the Timeout never was

    def test_body_returning_mid_replay_is_done_with_its_result(self):
        runs = {"n": 0}

        def worker(p):
            runs["n"] += 1
            x = yield p.aid_init("x")
            yield p.send("judge", x)
            if runs["n"] > 1:
                return "early"              # two entries into a 3-entry prefix
            yield p.compute(1.0)
            if (yield p.guess(x)):
                yield p.compute(5.0)
            return "finished"

        system = HopeSystem()
        system.spawn("worker", worker)
        system.spawn("judge", _judge([False]))
        system.run()
        proc = system.procs["worker"]
        assert proc.task.done and proc.task.result == "early"
        assert system.is_done("worker")
        assert system.result_of("worker") == "early"
        assert proc.log.cursor == 2 and proc.log.replayed_entries_total == 2

    def test_body_raising_mid_replay_fails_and_propagates(self):
        def second(p):
            yield p.aid_init("x")
            raise RuntimeError("replay-time failure")

        system = _two_incarnations(second)
        with pytest.raises(RuntimeError, match="replay-time failure"):
            system.run()
        task = system.procs["worker"].task
        assert task.failed
        assert isinstance(task.error, RuntimeError)
        assert not system.is_done("worker")
        assert system.procs["worker"].log.replayed_entries_total == 1

    def test_clean_replay_goes_live_at_the_tail(self):
        def second(p):
            x = yield p.aid_init("x")
            yield p.send("judge", x)
            yield p.compute(1.0)
            yield p.now()
            return x

        system = _two_incarnations(second)
        system.run()
        proc = system.procs["worker"]
        assert system.result_of("worker") == "finished"
        assert proc.log.replayed_entries_total == 4
        assert proc.log.pending == 0


class TestShadowDivergence:
    def test_diverged_replica_is_invalidated_and_replay_takes_over(self):
        """The replica is the body's second execution; it yields a
        different effect, so the shadow is dropped and the rollback
        replays the log from its base instead."""
        runs = {"n": 0}

        def worker(p):
            runs["n"] += 1
            x = yield p.aid_init("x")
            yield p.send("judge", x)
            if runs["n"] == 2:
                yield p.now()                   # only the replica does this
            else:
                yield p.compute(1.0)
            if (yield p.guess(x)):
                yield p.emit("optimistic")
                yield p.compute(5.0)
            else:
                yield p.emit("pessimistic")
            return "finished"

        system = HopeSystem(fast_rollback=True)
        system.spawn("worker", worker)
        system.spawn("judge", _judge([False]))
        system.run()
        proc = system.procs["worker"]
        stats = system.stats()
        assert runs["n"] == 3                   # live, replica, replay
        assert proc.shadow is not None and not proc.shadow.valid
        assert proc.shadow.gen is None
        assert stats["replay_skipped_entries"] == 0
        assert stats["replayed_effects"] == 3
        assert stats["shadow_feeds"] == 2       # aid_init and send, then divergence
        assert system.committed_outputs("worker") == ["pessimistic"]
        assert system.result_of("worker") == "finished"

    def test_foreign_replica_effect_invalidates(self):
        log = _log("compute", "send")

        def replica():
            yield ComputeEffect(1.0)
            yield Timeout(1.0)
            yield SendEffect("x", 1)

        shadow = ShadowCheckpoint(replica())
        assert not shadow.advance(log, 2)
        assert not shadow.valid


# -------------------------------------------------------------- pinned counts
def _fingerprint(system) -> str:
    committed = {name: system.committed_outputs(name) for name in sorted(system.procs)}
    return hashlib.sha256(repr(committed).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "fast_rollback, replayed, skipped, shadow_feeds",
    [(False, 18840, 0, 0), (True, 0, 18840, 20405)],
)
def test_fanout_counts_are_pinned(fast_rollback, replayed, skipped, shadow_feeds):
    """The replay loop changes cost, not counts: these are the values the
    per-entry ``feed``/``drive`` loop produced on the same run."""
    system = HopeSystem(
        seed=5,
        latency=ConstantLatency(1.0),
        fossil_collect=True,
        fast_rollback=fast_rollback,
    )
    build_fanout(system, pairs=8, rounds=40)
    system.run()
    stats = system.stats()
    assert stats["replayed_effects"] == replayed
    assert stats["replay_skipped_entries"] == skipped
    assert stats["shadow_feeds"] == shadow_feeds
    assert stats["rollbacks"] == 240
    assert stats["sim_events"] == 1016
    assert system.sim.now == 80.0
    assert _fingerprint(system) == "347e5c35d7c7b4d0"
