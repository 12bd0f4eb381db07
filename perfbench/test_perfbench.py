"""Tests of the run ledger itself, at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER_UNITS, Tracer, layer_sample, per_layer_metrics  # noqa: E402
from repro.durable import corrupt_latest_envelope, corrupt_wal_tail  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    WorkDir,
    count_failures,
    durable_failures,
    expected_count,
)

TINY = {"pingpong": 24, "fanout": 6, "counter": 9}


@pytest.fixture
def work(tmp_path):
    work = WorkDir(str(tmp_path))
    yield work
    work.close()


def _rep(name, seed, work, tracer=None):
    wl = WORKLOADS[name]
    inputs = wl.make_inputs(seed, TINY[name])
    return run.run_rep(wl, seed, inputs, wl.reference(inputs), work, tracer=tracer)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_runs_match_the_reference(name, work):
    rep = _rep(name, 3, work)
    assert rep.failed == 0
    assert rep.expected > 0
    assert rep.signature is not None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    wl = WORKLOADS[name]
    assert wl.make_inputs(5, 30) == wl.make_inputs(5, 30)
    assert wl.make_inputs(5, 30) != wl.make_inputs(6, 30)


def test_fanout_and_counter_deny_a_third():
    for verdicts, _ in WORKLOADS["fanout"].make_inputs(1, 30):
        assert verdicts.count(False) == 10
    for verdicts in WORKLOADS["counter"].make_inputs(1, 30):
        assert verdicts.count(False) == 10


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_flags_a_corrupted_output(name, work):
    wl = WORKLOADS[name]
    inputs = wl.make_inputs(2, TINY[name])
    reference = wl.reference(inputs)
    system = run._setup(wl, 2, inputs, work.fresh() if wl.durable else None)
    system.run()
    committed = {n: system.committed_outputs(n) for n in system.procs}
    run._release(system)
    assert count_failures(reference, committed, wl.unordered) == 0
    victim = sorted(committed)[0]
    committed[victim][1] = ("corrupted",)
    assert count_failures(reference, committed, wl.unordered) == 1
    del committed[victim][-1]
    assert count_failures(reference, committed, wl.unordered) == 2


def test_unordered_processes_compare_as_multisets():
    reference = {"judge": [1, 2, 3]}
    assert count_failures(reference, {"judge": [3, 1, 2]}, {"judge"}) == 0
    assert count_failures(reference, {"judge": [3, 1, 2]}) == 3
    assert count_failures(reference, {"judge": [3, 1, 9]}, {"judge"}) == 1
    assert count_failures(reference, {"judge": [3, 1]}, {"judge"}) == 1
    assert count_failures(reference, {"judge": [1, 2, 3], "x": [0]}) == 1


def test_a_failed_run_counts_every_expected_output(work, monkeypatch):
    wl = WORKLOADS["pingpong"]
    inputs = wl.make_inputs(1, TINY["pingpong"])

    def broken(*args, **kwargs):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr("repro.core.machine.Machine.check_invariants", broken)
    rep = run.run_rep(wl, 1, inputs, wl.reference(inputs), work)
    assert rep.failed == rep.expected == expected_count(wl.reference(inputs))
    assert rep.signature is None


def test_determinism_gate_counts_drift_as_failure():
    tally = run.Tally()
    base = run.Rep(0.1, 1.0, 10, 0, [5.0, 1.0, 0.0, 0, 7, "ab"], None, 0)
    tally.add("full", base)
    tally.add("full", base)
    assert tally.failed == 0
    drifted = run.Rep(0.1, 1.0, 10, 0, [5.0, 1.0, 0.0, 0, 8, "ab"], None, 0)
    tally.add("full", drifted)
    assert (tally.attempted, tally.failed) == (30, 10)


def test_traced_run_matches_the_untraced_run(work):
    for name in sorted(WORKLOADS):
        plain = _rep(name, 4, work)
        tracer = Tracer()
        traced = _rep(name, 4, work, tracer=tracer)
        # kernel.events and the committed-output digest are in the signature.
        assert traced.signature == plain.signature
        assert traced.failed == 0
        sample = layer_sample(tracer.recorder, traced.run_s)
        metrics = per_layer_metrics(sample["times"], sample["counts"], traced.stats, 1.5)
        assert list(metrics) == list(PER_LAYER_UNITS)
        assert metrics["kernel.events"] == plain.stats["sim_events"]
        assert sample["counts"]["spans"] > 0
        # Self times partition the traced run, apart from the reported rest.
        total = sum(v for k, v in sample["times"].items()
                    if k.endswith(".self_s")) + sample["times"]["trace.unattributed_s"]
        assert total == pytest.approx(traced.run_s, rel=1e-6)


def test_tracer_restores_the_classes():
    from repro.sim.kernel import Simulator

    original = Simulator.__dict__["run"]
    with Tracer():
        assert Simulator.__dict__["run"] is not original
    assert Simulator.__dict__["run"] is original


def test_growth_exponent_on_synthetic_timings():
    assert run.growth_exponent(4.0, 1.0) == pytest.approx(1.0)
    assert run.growth_exponent(16.0, 1.0) == pytest.approx(2.0)
    assert run.growth_exponent(8.0, 1.0) == pytest.approx(1.5)
    assert run.growth_exponent(2.0, 2.0) == 0.0
    assert run.growth_exponent(3.0, 1.5) == pytest.approx(math.log(2) / math.log(4))


def test_reference_load_is_fixed():
    assert calibrate.reference_load() == calibrate.CHECKSUM


def test_calibrator_scales_by_the_reference_timings_around_a_section(monkeypatch):
    timings = iter([0.02, 0.04, 0.06])
    cal = calibrate.Calibrator()
    monkeypatch.setattr(cal, "time_reference", lambda: next(timings))
    assert cal.mark() == 1.0
    # A host running the reference load at 0.03 s on average is slower
    # than the reference speed by 0.03 / REFERENCE_S.
    assert cal.mark() == pytest.approx(calibrate.REFERENCE_S / 0.03)
    assert cal.mark() == pytest.approx(calibrate.REFERENCE_S / 0.05)
    assert cal.last == 0.06


@pytest.mark.parametrize("corrupt", [corrupt_latest_envelope, corrupt_wal_tail])
def test_durable_check_flags_corruption(corrupt, work):
    wl = WORKLOADS["counter"]
    inputs = wl.make_inputs(2, TINY["counter"])
    path = work.fresh()
    system = run._setup(wl, 2, inputs, path)
    system.run()
    committed = {n: system.committed_outputs(n) for n in system.procs}
    if corrupt is corrupt_wal_tail:
        # A clean stop seals every record into the final envelope, so put a
        # sealed batch on the replay path for the corruption to hit.
        system._durable.store.append_record({"t": "x"})
        system._durable.store.write_marker(1)
    run._release(system)
    assert durable_failures(path, committed) == 0
    assert corrupt(path) is not None
    assert durable_failures(path, committed) >= 1
