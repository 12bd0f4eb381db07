"""Replay-based checkpointing: the effect log.

The paper's prototype takes state checkpoints at every guess ("simple and
fairly portable, but not particularly efficient", §7).  Python generators
cannot be snapshotted mid-frame, so we substitute *deterministic replay*:
the engine logs every effect result; a checkpoint is just an index into
that log.  Restoring a checkpoint = restarting the process function and
feeding it the logged results up to the index — the process deterministically
re-reaches the exact pre-guess state without touching the outside world.

The substitution is behaviour-preserving because a HOPE process's state is
a pure function of its effect results (all nondeterminism — time, messages,
randomness — flows through effects).  It is also *measurable*: the CKPT
benchmark charges real wall-clock for replays, matching the paper's remark
that their checkpointing is the inefficiency to optimize.

Checkpointed partial replay (``HopeSystem(fast_rollback=True)``) moves
that cost off the rollback: a :class:`ShadowCheckpoint` is a replica
incarnation of the process parked at the newest guess boundary, advanced
incrementally as checkpoints are taken.  A rollback whose truncation
point is at or after the shadow's position promotes the replica to be
the live incarnation instead of replaying the whole log from the base,
so the restart itself feeds only the delta since the shadow.  Promotion
consumes the replica, though, and the next one is rebuilt from the log
base: in wall time the shadow feeds about as many entries as replay
would.  See docs/PERFORMANCE.md §3 for measurements and the exact
contract (bodies must be effect-pure).
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from typing import Any, NamedTuple

from ..core.errors import HopeError
from .effects import EFFECT_KINDS

#: Pre-bound kind lookup for the replay loop (see EffectLog.fast_forward).
_kind_of = EFFECT_KINDS.get


class ReplayDivergenceError(HopeError):
    """The re-executed process yielded a different effect than the log.

    This means the process body is not deterministic given its effect
    results (e.g. it consulted global mutable state or an unlogged RNG) —
    replay-based rollback is unsound for such a process, so we fail loudly.
    """


class LogEntry(NamedTuple):
    """One performed effect and its result.

    A ``NamedTuple`` rather than a slotted class: one entry is appended
    per effect on the hot path, and tuple allocation is markedly cheaper
    than instance creation + two attribute stores.
    """

    kind: str
    result: Any

    def __repr__(self) -> str:
        return f"LogEntry({self.kind}, {self.result!r})"


#: C-level LogEntry constructor: ``tuple.__new__`` pre-bound to the class
#: via partial, skipping both the generated namedtuple ``__new__`` frame
#: and the ``_make`` classmethod wrapper frame — two entries are appended
#: per message round-trip and the extra frames were measurable.
_make_entry = partial(tuple.__new__, LogEntry)


class Checkpoint:
    """A guess-point checkpoint: a log position plus the virtual time.

    Stored in the interval's ``A.PS`` slot (Eq 1).  ``log_index`` is the
    number of log entries that precede the guess — replay feeds exactly
    that many results, then the process re-executes live from the guess
    statement.
    """

    __slots__ = ("log_index", "time")

    def __init__(self, log_index: int, time: float) -> None:
        self.log_index = log_index
        self.time = time

    def __repr__(self) -> str:
        return f"Checkpoint(log_index={self.log_index}, t={self.time:.4f})"


class RebasePoint:
    """A committed restart state: ``body(resume=state)`` reproduces the
    process as it stood just after log entry ``log_index - 1``.

    Captured by a :class:`~repro.runtime.effects.CommitPointEffect`
    (``log_index`` is the log length *after* the commit entry, so a
    resumed incarnation's first yield lines up with ``entries[log_index]``).
    Once the commit frontier passes ``log_index``, fossil collection
    promotes the point to be the log's base and drops the prefix.
    """

    __slots__ = ("log_index", "state", "time")

    def __init__(self, log_index: int, state: Any, time: float) -> None:
        self.log_index = log_index
        self.state = state
        self.time = time

    def __repr__(self) -> str:
        return f"RebasePoint(log_index={self.log_index}, t={self.time:.4f})"


class EffectLog:
    """The per-process effect journal with a replay cursor.

    Live execution appends entries; after a rollback the engine truncates
    to the checkpoint and the new incarnation consumes entries via
    :meth:`fast_forward` until the cursor reaches the end, at which point
    the process is live again.

    All indices (``cursor``, checkpoint/truncation/replay positions) are
    **absolute** journal positions, stable across fossil collection.
    ``base`` counts entries dropped from the front by :meth:`drop_prefix`
    — physically, ``entries`` holds positions ``[base, base+len(entries))``.
    A fresh incarnation replays from ``base`` (the engine rebuilds the
    pre-base state from the promoted :class:`RebasePoint`), so dropping
    the prefix is only sound once a rebase point at ``base`` exists.
    """

    __slots__ = (
        "entries",
        "base",
        "cursor",
        "pending",
        "replay_count",
        "replayed_entries_total",
        "skipped_entries_total",
        "shadow_feeds_total",
        "fossil_dropped_total",
    )

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []
        #: Absolute position of ``entries[0]`` (entries dropped in front).
        self.base = 0
        self.cursor = 0
        #: Entries still to be re-fed before the process is live again —
        #: always ``base + len(entries) - cursor``, maintained explicitly
        #: because the engine consults it once per live effect (the replay
        #: fast-forward guard) and the three-load arithmetic was
        #: measurable there.
        self.pending = 0
        self.replay_count = 0
        self.replayed_entries_total = 0
        #: Entries a rollback did NOT re-feed because a shadow checkpoint
        #: already covered them (see :class:`ShadowCheckpoint`).
        self.skipped_entries_total = 0
        #: Entries fed into shadow replicas (checkpoint-maintenance work).
        self.shadow_feeds_total = 0
        #: Entries dropped from the front by fossil collection.
        self.fossil_dropped_total = 0

    # ------------------------------------------------------------------
    # live side
    # ------------------------------------------------------------------
    def append(self, kind: str, result: Any) -> None:
        self.entries.append(_make_entry((kind, result)))
        # Live appends keep the cursor at the tail (the live-side
        # invariant ``cursor == base + len(entries)``, so += 1 suffices);
        # only begin_replay rewinds it.
        self.cursor += 1

    def __len__(self) -> int:
        """Absolute journal length (including the dropped prefix)."""
        return self.base + len(self.entries)

    def entry_at(self, index: int) -> LogEntry:
        """The entry at absolute position ``index``."""
        return self.entries[index - self.base]

    # ------------------------------------------------------------------
    # replay side
    # ------------------------------------------------------------------
    @property
    def replaying(self) -> bool:
        return self.pending > 0

    def begin_replay(self) -> None:
        """Reset the cursor for a fresh incarnation.

        The incarnation starts at ``base``: positions below it were
        fossil-collected, and the engine reconstructs that prefix from
        the promoted rebase state instead of re-feeding it.
        """
        self.cursor = self.base
        self.pending = len(self.entries)
        if self.entries:
            self.replay_count += 1

    def begin_replay_at(self, index: int) -> None:
        """Resume an incarnation whose prefix is vouched for externally.

        Used when a :class:`ShadowCheckpoint` is promoted: the replica
        already consumed everything below ``index``, so the cursor starts
        there and only the remainder (normally nothing — the truncation
        point IS the checkpoint) is re-fed.
        """
        if index > len(self) or index < self.base:
            raise HopeError(
                f"replay start index {index} outside log window "
                f"[{self.base}, {len(self)}]"
            )
        self.cursor = index
        self.pending = len(self) - index
        self.skipped_entries_total += index - self.base
        if self.cursor < len(self):
            self.replay_count += 1

    def feed(self, kind: str) -> Any:
        """Return the logged result for the next effect, checking its kind."""
        entry = self.entries[self.cursor - self.base]
        if entry.kind != kind:
            raise self.divergence(kind)
        self.cursor += 1
        self.pending -= 1
        self.replayed_entries_total += 1
        return entry.result

    def divergence(self, kind: str) -> ReplayDivergenceError:
        """The error for an effect of ``kind`` yielded at the cursor."""
        return ReplayDivergenceError(
            f"replay divergence at entry {self.cursor}: process yielded "
            f"{kind!r} but the log recorded {self.entry_at(self.cursor).kind!r} "
            "— the process body is not deterministic in its effect results"
        )

    def fast_forward(self, gen, effect, stop: int, shadow=None):
        """Feed logged results into ``gen`` up to absolute position ``stop``.

        The one replay loop: a restarted incarnation catches up to the log
        tail here, and a :class:`ShadowCheckpoint` replica catches up to a
        checkpoint.  ``gen`` is suspended on ``effect``; feeding starts at
        the cursor, or at ``shadow.pos`` for a replica.  Returns the effect
        ``gen`` is suspended on when the loop stops.

        Each step checks the pending effect's kind against the entry, then
        sends the entry's result.  The loop stops early, without raising,
        at the first effect whose kind differs from its entry's or whose
        exact type is not a HOPE effect; callers tell the two apart and
        decide what each means.  (A replica also accepts any object with
        a matching ``kind``.)  Exceptions from the body propagate.

        The position reached and the feed counters are written back once,
        in ``finally``.  An entry counts as fed once its result is sent,
        including a send the body answers by returning or raising.
        """
        entries = self.entries
        base = self.base
        start = i = (self.cursor if shadow is None else shadow.pos) - base
        kind_of = _kind_of
        kind = kind_of(type(effect))
        if kind is None and shadow is not None:
            kind = getattr(effect, "kind", None)
        send = gen.send
        try:
            for entry_kind, result in islice(entries, start, stop - base):
                if entry_kind != kind:
                    break
                i += 1
                effect = send(result)
                kind = kind_of(type(effect))
                if kind is None and shadow is not None:
                    kind = getattr(effect, "kind", None)
        finally:
            fed = i - start
            if shadow is None:
                self.cursor = base + i
                self.pending -= fed
                self.replayed_entries_total += fed
            else:
                shadow.pos = base + i
                self.shadow_feeds_total += fed
        return effect

    def truncate(self, index: int) -> int:
        """Drop entries from absolute position ``index`` on.

        Returns how many were dropped.  ``index == 0`` is a crash-style
        full reset and also clears the fossil base (the restarted
        incarnation begins at program entry; any rebase state is volatile
        and the engine discards it alongside).  A truncation *into* the
        dropped prefix otherwise is impossible — it would mean a rollback
        crossed the commit frontier, contradicting Theorem 6.1.
        """
        if index == 0:
            dropped = self.base + len(self.entries)
            self.entries.clear()
            self.base = 0
            self.cursor = 0
            self.pending = 0
            return dropped
        if index < self.base:
            raise HopeError(
                f"log truncation at {index} crosses the fossil base "
                f"{self.base} — rollback behind the commit frontier"
            )
        dropped = self.base + len(self.entries) - index
        if dropped < 0:
            raise HopeError(
                f"log truncation index {index} beyond log length {len(self)}"
            )
        del self.entries[index - self.base :]
        if self.cursor > index:
            self.cursor = index
        self.pending = self.base + len(self.entries) - self.cursor
        return dropped

    def drop_prefix(self, index: int) -> int:
        """Fossil-collect entries below absolute position ``index``.

        The caller must hold a :class:`RebasePoint` at exactly ``index``
        and must not drop past the replay cursor (an in-flight replay
        still needs those entries).  Returns the number dropped.
        """
        if index <= self.base:
            return 0
        if index > self.cursor:
            raise HopeError(
                f"drop_prefix({index}) past the replay cursor {self.cursor}"
            )
        dropped = index - self.base
        del self.entries[:dropped]
        self.base = index
        self.fossil_dropped_total += dropped
        return dropped

    def __repr__(self) -> str:
        return (
            f"<EffectLog {self.cursor}/{len(self)} base={self.base} "
            f"replays={self.replay_count}>"
        )


class ShadowCheckpoint:
    """A replica incarnation parked at a guess boundary.

    Python generators cannot be copied, so a checkpoint cannot literally
    snapshot the live frame.  Instead the engine keeps one *replica*
    generator per process: at every checkpoint it is advanced by feeding
    it the logged effect results up to the checkpoint's log index — each
    log entry is fed to the replica at most once between rebuilds, so
    maintenance is incremental, O(new entries since the last checkpoint).
    A rollback that truncates at or after the replica's position promotes
    it to be the live incarnation: the restart replays only the delta
    instead of rewinding to log entry 0.

    Soundness contract: the process body must be *effect-pure* — all of
    its observable behaviour flows through yielded effects (the same
    determinism replay already requires, strengthened to "no out-of-band
    side effects", because the replica re-executes the prefix eagerly).
    A kind mismatch while feeding marks the shadow invalid and the
    engine falls back to full replay; semantics never depend on it.
    """

    __slots__ = ("gen", "pos", "pending_effect", "valid")

    def __init__(self, gen, pos: int = 0) -> None:
        self.gen = gen
        #: Absolute log position the replica has consumed up to.  A
        #: replica built from a rebase point starts at the log's base.
        self.pos = pos
        #: The effect the replica is suspended on (yielded, not yet fed).
        self.pending_effect: Any = None
        self.valid = True

    def advance(self, log: EffectLog, target: int) -> bool:
        """Feed logged results until ``pos`` reaches ``target``.

        Returns False (and invalidates the shadow) on any divergence —
        the replica yielding a different effect kind than the log, or
        finishing early.  Feeds are charged to ``log.shadow_feeds_total``.
        """
        if (
            not self.valid
            or target > len(log)
            or target < self.pos
            or self.pos < log.base
        ):
            # pos < base: fossil collection dropped entries this replica
            # would still need to feed — it can never catch up again.
            self.invalidate()
            return False
        try:
            if self.pending_effect is None:
                self.pending_effect = self.gen.send(None)
            self.pending_effect = log.fast_forward(
                self.gen, self.pending_effect, target, self
            )
        except Exception:
            # The replica finished early or crashed.  It must never take
            # down the live run: the shadow is an optimization, so fall
            # back to full replay.
            self.invalidate()
            return False
        if self.pos < target:   # diverged from the log
            self.invalidate()
            return False
        return True

    def invalidate(self) -> None:
        self.valid = False
        if self.gen is not None:
            self.gen.close()
            self.gen = None

    def __repr__(self) -> str:
        state = "valid" if self.valid else "invalid"
        return f"<ShadowCheckpoint pos={self.pos} {state}>"
