"""Per-layer tracing for the HOPE run ledger.

Timing wrappers are installed from here, onto the classes of each layer,
before a traced system is constructed (several callbacks are bound at
construction or spawn time) and removed afterwards; nothing under
``src/`` records spans itself.  Every wrapped call keeps one span —
span point, parent span, start, end — in memory, and the spans are
aggregated (and written out) only after the run.

A layer's self time is the total duration of its spans minus the part
covered by their child spans, so nested calls into other layers are
charged to those layers.  ``kernel.self_s`` is therefore ``Simulator.run``
minus everything below it.  Time inside ``HopeSystem.run`` that no span
covers is reported as ``trace.unattributed_s`` instead of being folded
into a layer.
"""

from __future__ import annotations

import json
from itertools import count
from time import perf_counter

import numpy as np

from repro.core.history import ProcessRecord
from repro.core.machine import Machine
from repro.durable.recorder import DurableRecorder
from repro.durable.store import DurableStore
from repro.runtime.engine import HopeSystem
from repro.runtime.replay import EffectLog, ShadowCheckpoint
from repro.sim.channel import Mailbox, Network
from repro.sim.kernel import ScheduledEvent, Simulator
from repro.sim.process import Task
from repro.sim.timeline import ProcessTimeline

#: (layer, class, method) for every span point.  Layers are named after
#: the modules they time, with two exceptions that follow where the cost
#: sits: the engine's collection pass is fossil, and an effect dispatch
#: that finds its process's log replaying is replay (see
#: ``REPLAY_POINT``).  Private methods are wrapped where a layer is
#: entered without a public call: event callbacks, the rollback handler
#: and the metrics listener.  Calls that only ever happen inside a span of
#: the same layer (``Task.dispatch`` inside ``Task._step``, say) are not
#: wrapped: they would add cost without moving time between layers.
SPAN_POINTS = (
    ("kernel", Simulator, "run"),
    ("kernel", Simulator, "schedule"),
    ("kernel", ScheduledEvent, "cancel"),
    ("channel", Network, "send"),
    # A coalesced delivery rewrites its scheduled event's callback to the
    # sweep; every path ends in Mailbox.put, wrapped on the class, so each
    # delivered message is timed whichever callback carried it.
    ("channel", Network, "_sweep_deliveries"),
    ("channel", Network, "_deliver_tagged"),
    ("channel", Mailbox, "put"),
    ("channel", Mailbox, "register_waiter"),
    ("channel", Mailbox, "register_receiver"),
    ("channel", Mailbox, "requeue_front"),
    ("engine", Task, "_step"),
    ("engine", Task, "_run_kickoff"),
    ("engine", HopeSystem, "_handle_effect"),
    ("engine", HopeSystem, "_finish_compute"),
    ("engine", HopeSystem, "_deliver"),
    ("engine", HopeSystem, "_apply_rollback"),
    ("machine", Machine, "aid_init"),
    ("machine", Machine, "guess"),
    ("machine", Machine, "guess_many"),
    ("machine", Machine, "affirm"),
    ("machine", Machine, "deny"),
    ("machine", Machine, "free_of"),
    ("machine", Machine, "resolve_tags"),
    ("machine", Machine, "resolve_tag_keys"),
    ("history", ProcessRecord, "truncate_from"),
    ("history", ProcessRecord, "fossilize_before"),
    # Replaced by the wrapper of _handle_effect, never installed itself.
    ("replay", HopeSystem, "_handle_effect"),
    ("replay", EffectLog, "begin_replay"),
    ("replay", EffectLog, "begin_replay_at"),
    ("replay", EffectLog, "truncate"),
    ("replay", EffectLog, "drop_prefix"),
    ("replay", ShadowCheckpoint, "advance"),
    ("timeline", ProcessTimeline, "reclassify_since"),
    ("timeline", ProcessTimeline, "compact_before"),
    ("fossil", HopeSystem, "_run_fossil_collection"),
    ("fossil", Machine, "fossil_collect"),
    ("durable", DurableRecorder, "flush_proc"),
    ("durable", DurableRecorder, "end_pass"),
    ("durable", DurableRecorder, "write_snapshot"),
    ("durable", DurableRecorder, "note_send"),
    ("durable", DurableRecorder, "note_resolution"),
    ("durable", DurableRecorder, "on_rollback"),
    ("durable", DurableRecorder, "note_promotion"),
    ("durable", DurableStore, "open_wal"),
    ("durable", DurableStore, "append_record"),
    ("durable", DurableStore, "write_marker"),
    ("durable", DurableStore, "write_envelope"),
    ("obs", HopeSystem, "_observe_machine_event"),
)

DISPATCH_POINT = SPAN_POINTS.index(("engine", HopeSystem, "_handle_effect"))
#: The engine feeds a restarted incarnation its logged results in a loop
#: inside the dispatch of its first effect (re-running the body from
#: yield to yield), so that whole dispatch is charged to replay.  Its
#: last step, handling the first live effect, is charged there too.
REPLAY_POINT = SPAN_POINTS.index(("replay", HopeSystem, "_handle_effect"))

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SPAN_POINTS))

#: Which end-to-end metric each layer's metrics should move, on which
#: workload: a change that claims a gain in one layer names its line here.
EXPECTED_MOVES = {
    "kernel": "run_s and committed_per_s on pingpong",
    "channel": "run_s on pingpong",
    "engine": "run_s on pingpong",
    "machine": "run_s on pingpong; makespan_vt and wasted_frac everywhere",
    "history": "growth_exp on fanout",
    "replay": "run_s and growth_exp on fanout and counter",
    "timeline": "growth_exp on fanout",
    "fossil": "peak_rss_mib and run_s on fanout and counter",
    "durable": "run_s and setup_s on counter",
    "obs": "run_s on counter",
}

#: Per-layer metrics and units, in print order.
PER_LAYER_UNITS = {
    "kernel.events": "count",
    "kernel.self_s": "s",
    "kernel.ns_per_event": "ns",
    "kernel.compactions": "count",
    "channel.sends": "count",
    "channel.tags": "count",
    "channel.self_s": "s",
    "channel.us_per_send": "us",
    "engine.dispatches": "count",
    "engine.self_s": "s",
    "engine.us_per_dispatch": "us",
    "machine.guesses": "count",
    "machine.resolutions": "count",
    "machine.rollbacks": "count",
    "machine.self_s": "s",
    "machine.useful_frac": "fraction",
    "machine.resolve_cache_hit_frac": "fraction",
    "machine.depset_hit_frac": "fraction",
    "history.truncations": "count",
    "history.truncate_s": "s",
    "replay.entries_refed": "count",
    "replay.entries_per_rollback": "count",
    "replay.shadow_feeds": "count",
    "replay.self_s": "s",
    "timeline.reclassify_calls": "count",
    "timeline.reclassify_s": "s",
    "timeline.us_per_reclassify": "us",
    "fossil.passes": "count",
    "fossil.self_s": "s",
    "fossil.ms_per_pass": "ms",
    "fossil.log_dropped": "count",
    "fossil.aids_retired": "count",
    "durable.wal_records": "count",
    "durable.wal_bytes": "bytes",
    "durable.envelopes": "count",
    "durable.self_s": "s",
    "durable.store_s": "s",
    "obs.events_observed": "count",
    "obs.listener_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}


class SpanRecorder:
    """Spans as ``(index, point, parent index, start, end)`` rows, filled
    by the wrappers.  The index is taken when a span opens, so children
    can link to it; the row is appended when it closes."""

    def __init__(self) -> None:
        self.rows: list = []
        #: Open spans' indices; -1 marks "no parent".
        self.stack = [-1]
        self.next_index = count().__next__

    def clear(self) -> None:
        if len(self.stack) != 1:
            raise RuntimeError("cannot clear the span recorder inside a span")
        self.rows.clear()
        self.next_index = count().__next__

    def __len__(self) -> int:
        return len(self.rows)

    def arrays(self) -> dict:
        """The spans as columns, ordered by index (opening order)."""
        table = np.array(self.rows, dtype=np.float64).reshape(-1, 5)
        table = table[np.argsort(table[:, 0], kind="stable")]
        return {
            "point": table[:, 1].astype(np.int32),
            "parent": table[:, 2].astype(np.int64),
            "start": table[:, 3],
            "end": table[:, 4],
        }

    def point_totals(self) -> tuple:
        """``(calls, self_s)`` per span point, and the summed duration of
        the top-level spans."""
        n_points = len(SPAN_POINTS)
        if not self.rows:
            return np.zeros(n_points, dtype=np.int64), np.zeros(n_points), 0.0
        cols = self.arrays()
        duration = cols["end"] - cols["start"]
        parent = cols["parent"]
        nested = parent >= 0
        # Indices are dense from 0, so after sorting, row i is span i.
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        own = duration - children
        calls = np.bincount(cols["point"], minlength=n_points)
        self_s = np.bincount(cols["point"], weights=own, minlength=n_points)
        return calls, self_s, float(duration[~nested].sum())

    def write(self, path: str) -> None:
        """Write the spans as ``.npz`` columns plus the span-point names."""
        names = [f"{layer}:{cls.__name__}.{meth}" for layer, cls, meth in SPAN_POINTS]
        np.savez(path, names=np.array(json.dumps(names)), **self.arrays())


def _wrap(fn, point: int, rec: SpanRecorder, replay_point: int = -1):
    """A timing wrapper around ``fn``.  With ``replay_point`` set, ``fn``
    is the engine's effect dispatch ``(self, task, effect)`` and a call
    that finds the task's log replaying is recorded under that point."""
    stack = rec.stack
    push, pop, append = stack.append, stack.pop, rec.rows.append

    def span(*args, **kwargs):
        idx = rec.next_index()
        parent = stack[-1]
        here = point
        if replay_point >= 0 and args[1].env.context.log.pending:
            here = replay_point
        push(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            pop()
            append((idx, here, parent, t0, t1))

    span.__name__ = getattr(fn, "__name__", "span")
    span.__wrapped__ = fn
    return span


class Tracer:
    """Installs the span wrappers for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        for point, (_, cls, name) in enumerate(SPAN_POINTS):
            if point == REPLAY_POINT:
                continue
            original = cls.__dict__[name]
            self._saved.append((cls, name, original))
            replay = REPLAY_POINT if point == DISPATCH_POINT else -1
            setattr(cls, name, _wrap(original, point, self.recorder, replay))
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()


def layer_sample(recorder: SpanRecorder, run_s: float) -> dict:
    """Self times and call counts of one traced run."""
    calls, self_s, top = recorder.point_totals()
    by_layer = dict.fromkeys(LAYERS, 0.0)
    by_point = {}
    for point, (layer, cls, name) in enumerate(SPAN_POINTS):
        by_layer[layer] += float(self_s[point])
        by_point[f"{cls.__name__}.{name}"] = (int(calls[point]), float(self_s[point]))
    times = {f"{layer}.self_s": s for layer, s in by_layer.items()}
    times["durable.store_s"] = sum(
        float(self_s[p]) for p, (_, cls, _) in enumerate(SPAN_POINTS) if cls is DurableStore
    )
    times["history.truncate_s"] = by_point["ProcessRecord.truncate_from"][1]
    times["timeline.reclassify_s"] = by_point["ProcessTimeline.reclassify_since"][1]
    times["trace.unattributed_s"] = run_s - top
    counts = {
        "dispatches": int(calls[DISPATCH_POINT] + calls[REPLAY_POINT]),
        "reclassify_calls": by_point["ProcessTimeline.reclassify_since"][0],
        "truncations": by_point["ProcessRecord.truncate_from"][0],
        "events_observed": by_point["HopeSystem._observe_machine_event"][0],
        "spans": len(recorder),
    }
    return {"times": times, "counts": counts}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(times: dict, counts: dict, stats: dict, overhead: float) -> dict:
    """Per-layer metrics from traced self times (medians over the traced
    runs), their call counts, and the run's ``stats()``."""
    durable = stats.get("durable", {})
    resolves = stats["resolve_cache_hits"] + stats["resolve_cache_misses"]
    depsets = stats["depset_hits"] + stats["depset_misses"]
    passes = stats["fossil_collections"]
    return {
        "kernel.events": stats["sim_events"],
        "kernel.self_s": times["kernel.self_s"],
        "kernel.ns_per_event": 1e9 * _ratio(times["kernel.self_s"], stats["sim_events"]),
        "kernel.compactions": stats["heap_compactions"],
        "channel.sends": stats["messages_sent"],
        "channel.tags": stats["tags_attached"],
        "channel.self_s": times["channel.self_s"],
        "channel.us_per_send": 1e6 * _ratio(times["channel.self_s"], stats["messages_sent"]),
        "engine.dispatches": counts["dispatches"],
        "engine.self_s": times["engine.self_s"],
        "engine.us_per_dispatch": 1e6 * _ratio(times["engine.self_s"], counts["dispatches"]),
        "machine.guesses": stats["guesses"] + stats["implicit_guesses"],
        "machine.resolutions": stats["affirms"] + stats["denies"] + stats["free_ofs"],
        "machine.rollbacks": stats["rollbacks"],
        "machine.self_s": times["machine.self_s"],
        "machine.useful_frac": _ratio(
            stats["finalizes"], stats["finalizes"] + stats["intervals_discarded"]
        ),
        "machine.resolve_cache_hit_frac": _ratio(stats["resolve_cache_hits"], resolves),
        "machine.depset_hit_frac": _ratio(stats["depset_hits"], depsets),
        "history.truncations": counts["truncations"],
        "history.truncate_s": times["history.truncate_s"],
        "replay.entries_refed": stats["replayed_effects"],
        "replay.entries_per_rollback": _ratio(stats["replayed_effects"], stats["rollbacks"]),
        "replay.shadow_feeds": stats["shadow_feeds"],
        "replay.self_s": times["replay.self_s"],
        "timeline.reclassify_calls": counts["reclassify_calls"],
        "timeline.reclassify_s": times["timeline.reclassify_s"],
        "timeline.us_per_reclassify": 1e6 * _ratio(
            times["timeline.reclassify_s"], counts["reclassify_calls"]
        ),
        "fossil.passes": passes,
        "fossil.self_s": times["fossil.self_s"],
        "fossil.ms_per_pass": 1e3 * _ratio(times["fossil.self_s"], passes),
        "fossil.log_dropped": stats["fossil_log_dropped"],
        "fossil.aids_retired": stats["fossil_aids_retired"],
        "durable.wal_records": durable.get("wal_records", 0),
        "durable.wal_bytes": durable.get("wal_bytes", 0),
        "durable.envelopes": durable.get("snapshots_written", 0),
        "durable.self_s": times["durable.self_s"],
        "durable.store_s": times["durable.store_s"],
        "obs.events_observed": counts["events_observed"],
        "obs.listener_s": times["obs.self_s"],
        "trace.overhead_ratio": overhead,
        "trace.unattributed_s": times["trace.unattributed_s"],
        "trace.spans": counts["spans"],
    }
