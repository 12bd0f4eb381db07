"""The effect WAL's batch lines, read back the way recovery reads them.

Each fossil pass writes at most one entries line (``"t":"E"``) and one
outputs line (``"t":"O"``) per process, carrying the same rows the
envelope stores.  These tests pin that format, check that the image
recovery rebuilds from disk equals the recorder's live image after every
sealed batch (WAL-only and envelope-plus-WAL recovery, fresh and resumed
runs), that discarded WAL data is counted in rows, and that a record type
recovery does not know stops a resume instead of being skipped.
"""

import json
import os

import pytest

from repro.bench.workloads import build_durable_counter
from repro.durable import DurableError, corrupt_wal_tail, encode_value
from repro.durable.recorder import DurableRecorder
from repro.runtime import HopeSystem
from repro.sim import ConstantLatency, EventLimitExceeded

SEED = 1


def _kwargs(run_dir, snapshot_every):
    return dict(
        seed=SEED,
        latency=ConstantLatency(1.0),
        fossil_collect=True,
        fossil_interval=4,
        durable_dir=str(run_dir),
        durable_opts={"snapshot_every": snapshot_every, "fsync": False},
    )


def _build(system):
    build_durable_counter(system, workers=3, rounds=30)


def _resume(run_dir, snapshot_every):
    kwargs = _kwargs(run_dir, snapshot_every)
    kwargs.pop("durable_dir")
    opts = kwargs.pop("durable_opts")
    return HopeSystem.resume(str(run_dir), _build, durable_opts=opts, **kwargs)


def _kill(run_dir, snapshot_every, events):
    """Record until ``events`` and abandon the run with its WAL closed."""
    system = HopeSystem(**_kwargs(run_dir, snapshot_every))
    _build(system)
    with pytest.raises(EventLimitExceeded):
        system.run(max_events=events)
    system._durable.store.close()


def _wal_lines(path):
    """Every line of one WAL file as a decoded JSON object."""
    with open(path, "rb") as fh:
        return [json.loads(raw.rstrip(b"\n").rsplit(b" ", 1)[0]) for raw in fh]


def _rows(rec):
    return len(rec.get("e", ())) + len(rec.get("o", ()))


def _load_from_disk(run_dir):
    reader = DurableRecorder(None, str(run_dir), seed=SEED,
                             opts={"_resuming": True, "fsync": False})
    try:
        image = reader.load_image()
    finally:
        reader.store.close()
    assert reader.stats["envelopes_rejected"] == 0
    assert reader.stats["wal_records_discarded"] == 0
    return image


def _plain(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def _assert_disk_matches_live(system, run_dir):
    recorder = system._durable
    image = _load_from_disk(run_dir)
    assert image is not None
    for name, img in recorder.procs.items():
        doc = image["procs"].get(
            name, {"base": 0, "entries": [], "outputs": [], "rebase": None}
        )
        # Rebase promotions reach disk with the next envelope only, so
        # between envelopes the disk image may still hold entries the
        # live image has trimmed; the committed log they describe is the
        # same.
        assert doc["base"] <= img.base, name
        assert doc["base"] + len(doc["entries"]) == img.cursor, name
        assert doc["entries"][img.base - doc["base"]:] == _plain(img.entries), name
        if doc["base"] == img.base:
            assert doc["rebase"] == _plain(img.rebase), name
        assert doc["outputs"] == _plain(img.outputs), name
        # Independently of the recorder: exactly the engine's outputs
        # below the flushed frontier, in log order.
        assert doc["outputs"] == _plain([
            [encode_value(r.value), r.log_index, r.time]
            for r in system.procs[name].outputs
            if r.log_index < img.out_floor
        ]), name
    # Recovery restores the clock to at least every persisted output.
    assert image["time"] >= max(
        (tm for doc in image["procs"].values() for _, _, tm in doc["outputs"]),
        default=0.0,
    )
    assert image["aids"] == _plain(recorder.registry)
    assert image["open_sends"] == _plain(recorder.open_sends)
    assert sorted(image["consumed"]) == sorted(recorder.consumed)


def _check_at_every_marker(system, run_dir):
    """Wrap ``end_pass`` so every sealed batch is checked against disk;
    returns the ``(generation, batch_index)`` of each check."""
    recorder = system._durable
    end_pass = recorder.end_pass
    checked = []

    def checking_end_pass(now, force_snapshot=False):
        end_pass(now, force_snapshot)
        _assert_disk_matches_live(system, run_dir)
        checked.append((recorder.generation, recorder.batch_index))

    recorder.end_pass = checking_end_pass
    return checked


class TestBatchLines:
    def test_one_entries_and_one_outputs_line_per_process_per_pass(self, tmp_path):
        system = HopeSystem(**_kwargs(tmp_path, snapshot_every=10_000))
        _build(system)
        with pytest.raises(EventLimitExceeded):
            system.run(max_events=150)
        system._durable.store.close()
        lines = _wal_lines(os.path.join(tmp_path, "wal-00000000.jsonl"))
        batch = []
        rows = 0
        for rec in lines:
            if rec["t"] == "m":
                kinds = [(r["t"], r["p"]) for r in batch]
                assert kinds and len(kinds) == len(set(kinds))
                batch = []
                continue
            assert rec["t"] in ("E", "O")
            rows += _rows(rec)
            batch.append(rec)
        assert batch == []
        assert rows == system._durable.stats["wal_records"] > 0
        # Entries lines carry consecutive absolute positions per process.
        next_pos = {}
        for rec in lines:
            if rec["t"] == "E":
                assert rec["i"] == next_pos.get(rec["p"], 0)
                assert all(len(row) == 3 for row in rec["e"])
                next_pos[rec["p"]] = rec["i"] + len(rec["e"])


class TestDiskImageEqualsLiveImage:
    @pytest.mark.parametrize("snapshot_every", [1, 4])
    def test_at_every_marker(self, tmp_path, snapshot_every):
        system = HopeSystem(**_kwargs(tmp_path, snapshot_every))
        _build(system)
        checked = _check_at_every_marker(system, tmp_path)
        system.run()
        assert len(checked) >= 8
        if snapshot_every > 1:
            # Sealed batches before the first envelope are WAL-only
            # recovery; later ones load an envelope and apply its WAL.
            assert any(gen == 0 and batch for gen, batch in checked)
            assert any(gen >= 1 and batch for gen, batch in checked)

    def test_at_every_marker_after_resume(self, tmp_path):
        _kill(tmp_path, snapshot_every=4, events=120)
        resumed = _resume(tmp_path, snapshot_every=4)
        assert resumed.stats()["durable"]["resumed"] is True
        _assert_disk_matches_live(resumed, tmp_path)
        procs = resumed._durable.procs
        restored = sum(len(img.outputs) for img in procs.values())
        checked = _check_at_every_marker(resumed, tmp_path)
        resumed.run()
        assert len(checked) >= 4
        # The resumed run flushed outputs of its own past the restored ones.
        assert sum(len(img.outputs) for img in procs.values()) > restored


class TestRecovery:
    @pytest.mark.parametrize("record,match", [
        ({"t": "x", "p": "judge"},
         r"unknown WAL record type 'x' in WAL generation {gen}"),
        ({"t": "E", "p": "judge", "i": 10**6, "e": []},
         r"WAL gap for process 'judge'"),
    ])
    def test_sealed_line_recovery_cannot_apply_is_rejected(
        self, tmp_path, record, match
    ):
        system = HopeSystem(**_kwargs(tmp_path, snapshot_every=4))
        _build(system)
        system.run()
        store = system._durable.store
        gen = system._durable.generation
        store.append_record(record)
        store.write_marker(1)
        store.close()
        with pytest.raises(DurableError, match=match.format(gen=gen)):
            _resume(tmp_path, snapshot_every=4)

    def test_torn_tail_discards_the_rows_of_the_lost_batch(self, tmp_path):
        _kill(tmp_path, snapshot_every=10_000, events=150)
        path = os.path.join(tmp_path, "wal-00000000.jsonl")
        # A real crash loses what was written after the last marker (the
        # file is flushed at markers only); keep exactly the sealed part.
        with open(path, "rb") as fh:
            raw = fh.read().splitlines(keepends=True)
        while json.loads(raw[-1].rsplit(b" ", 1)[0])["t"] != "m":
            raw.pop()
        with open(path, "wb") as fh:
            fh.write(b"".join(raw))
        lines = _wal_lines(path)
        markers = [i for i, rec in enumerate(lines) if rec["t"] == "m"]
        assert len(markers) >= 2
        lost = sum(_rows(rec) for rec in lines[markers[-2] + 1:markers[-1]])
        assert lost > len(lines[markers[-2] + 1:markers[-1]])
        assert corrupt_wal_tail(str(tmp_path)) == path
        resumed = _resume(tmp_path, snapshot_every=10_000)
        assert resumed.stats()["durable"]["wal_records_discarded"] == lost >= 1
