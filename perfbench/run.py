"""The HOPE run ledger: host cost of running HOPE programs to quiescence.

Usage, from the repository root::

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``pingpong``, ``fanout`` and ``counter`` (see
``workloads.py`` and ``BENCHMARK.json`` for why each exists).  The inputs
are generated from ``--seed``; every run checks the committed outputs
against a reference computed from those inputs alone.

``--trace 0`` times untraced runs for ``--seconds`` seconds and reports
the end-to-end metrics: medians of set-up and run time at the full size,
throughput, the growth exponent against a quarter-size run, the peak
resident-set growth of one run in a fresh interpreter, and the simulated
makespan.  ``--trace 1`` alternates traced and untraced runs and reports
the per-layer split (see ``layers.py``) with the tracing overhead.

Set-up and run times of ``--trace 0`` are CPU seconds of this process at
a fixed reference host speed.  CPU time leaves out the time the process
waited for a CPU, on this machine or on a shared host (the kernel keeps
stolen time out of it); each timed section is then scaled by the
reference load timed just before and just after it (``calibrate.py``),
because the host's own speed drifts more between runs than the changes
worth detecting.  Time blocked on the disk — the fsync waits of
``counter`` — is in neither; it shows in the traced ``durable.store_s``.
The raw wall and CPU times are printed and written beside them.

The simulator is deterministic, so for one seed every simulated
statistic — makespan, busy and wasted virtual time, rollbacks, events and
a digest of the committed outputs — must repeat exactly across every run
in this process and in the fresh interpreter; drift counts as failed
outputs.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans and a detailed result document are written under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Optional

from calibrate import REFERENCE_S, Calibrator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")

#: Fewest full-size samples a timed run reports a median of, even when
#: ``--seconds`` runs out first.
MIN_REPS = 5
#: Fewest traced samples per traced run.
MIN_TRACED = 2
#: Set-ups measured without a run after each timed full-size run: set-up
#: is short, so its median needs more samples than the runs provide.
EXTRA_SETUPS = 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "committed_per_s": "1/s",
    "growth_exp": "exponent",
    "peak_rss_mib": "MiB",
    "makespan_vt": "vt",
}


def _import_program() -> None:
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the HOPE package from {src}: {exc}")
    # Measure the checkout's own code, never an installed copy.
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    setup_s: float
    run_s: float
    expected: int
    failed: int
    #: Simulated side of the run; None when it raised.
    signature: Optional[list]
    stats: Optional[dict]
    #: Peak resident set of this process, read right after the run.
    peak_kib: int
    #: CPU seconds of this process over set-up and over the run.
    setup_cpu_s: float = 0.0
    run_cpu_s: float = 0.0


def _release(system) -> None:
    # HopeSystem has no close(): a durable run keeps its WAL open until the
    # recorder is collected, so close it before its directory is removed.
    durable = getattr(system, "_durable", None)
    if durable is not None:
        durable.store.close()


def _setup(wl, seed, inputs, path):
    from repro import HopeSystem

    system = HopeSystem(**wl.options(seed, path))
    wl.build(system, inputs)
    return system


def run_rep(wl, seed, inputs, reference, work, tracer=None) -> Rep:
    """Set up, run to quiescence and check one process tree."""
    from workloads import (MAX_EVENTS, count_failures, durable_failures,
                           expected_count, fingerprint)

    expected = expected_count(reference)
    path = work.fresh() if wl.durable else None
    system = None
    try:
        gc.collect()
        with tracer if tracer is not None else contextlib.nullcontext():
            c0, t0 = process_time(), perf_counter()
            system = _setup(wl, seed, inputs, path)
            c1, t1 = process_time(), perf_counter()
            if tracer is not None:
                tracer.recorder.clear()
                c1, t1 = process_time(), perf_counter()
            makespan = system.run(max_events=MAX_EVENTS)
            c2, t2 = process_time(), perf_counter()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        system.machine.check_invariants()
        committed = {name: system.committed_outputs(name) for name in system.procs}
        failed = count_failures(reference, committed, wl.unordered)
        if path is not None:
            failed += durable_failures(path, committed)
        stats = system.stats()
    except Exception:
        # A run that raises or breaks an invariant fails every output.
        traceback.print_exc(file=sys.stderr)
        return Rep(0.0, 0.0, expected, expected, None, None, 0)
    finally:
        if system is not None:
            _release(system)
        work.remove(path)
    signature = [
        makespan,
        stats["busy_time"],
        stats["wasted_time"],
        stats["rollbacks"],
        stats["sim_events"],
        fingerprint(committed),
    ]
    return Rep(t1 - t0, t2 - t1, expected, failed, signature, stats, peak_kib,
               c1 - c0, c2 - c1)


def setup_only(wl, seed, inputs, work) -> tuple:
    """Wall and CPU seconds of one set-up."""
    path = work.fresh() if wl.durable else None
    try:
        gc.collect()
        c0, t0 = process_time(), perf_counter()
        system = _setup(wl, seed, inputs, path)
        elapsed = (perf_counter() - t0, process_time() - c0)
        _release(system)
    finally:
        work.remove(path)
    return elapsed


class Tally:
    """Outputs attempted and failed, and the determinism gate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference_signature: dict = {}

    def add(self, size_label: str, rep: Rep) -> None:
        failed = rep.failed
        first = self.reference_signature.setdefault(size_label, rep.signature)
        if rep.signature is None or rep.signature != first:
            # The simulator is deterministic: a simulated statistic that
            # moves between runs of one seed is a failure, not noise.
            failed = rep.expected
        self.attempted += rep.expected
        self.failed += min(failed, rep.expected)


def growth_exponent(run_full: float, run_quarter: float) -> float:
    """Log-log slope of run time over a 4x size step: 1.0 is linear."""
    return math.log(run_full / run_quarter) / math.log(4)


def _spread(values: list) -> dict:
    """Median, extremes, count, and the highest of p90/p95/p99 that has
    at least ten samples beyond it."""
    out = {"median": statistics.median(values), "min": min(values),
           "max": max(values), "n": len(values)}
    for pct in (99, 95, 90):
        if len(values) * (100 - pct) >= 1000:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


# ---------------------------------------------------------------------------
# peak RSS in a fresh interpreter
# ---------------------------------------------------------------------------


def _current_rss_bytes() -> int:
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def child_rss(name: str, seed: int) -> None:
    """Entry point of the fresh interpreter: one full-size run, printing
    its resident-set growth and its checked result as JSON."""
    from workloads import WORKLOADS, WorkDir

    wl = WORKLOADS[name]
    inputs = wl.make_inputs(seed, wl.size)
    reference = wl.reference(inputs)
    work = WorkDir(OUT)
    gc.collect()
    base = _current_rss_bytes()
    try:
        rep = run_rep(wl, seed, inputs, reference, work)
    finally:
        work.close()
    print(json.dumps({
        "rss_mib": (rep.peak_kib * 1024 - base) / 2**20,
        "expected": rep.expected,
        "failed": rep.failed,
        "signature": rep.signature,
    }))


def rss_in_fresh_interpreter(name: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child-rss",
           "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh-interpreter run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# timed and traced measurement
# ---------------------------------------------------------------------------


def measure_untraced(wl, seed: int, seconds: float, work, tally: Tally) -> tuple:
    full = wl.make_inputs(seed, wl.size)
    quarter = wl.make_inputs(seed, wl.size // 4)
    ref_full, ref_quarter = wl.reference(full), wl.reference(quarter)

    child = rss_in_fresh_interpreter(wl.name, seed)
    tally.add("full", Rep(0.0, 0.0, child["expected"], child["failed"],
                          child["signature"], None, 0))
    # Warm-up: lazy imports, first-use set-up and allocator growth settle
    # before anything is timed.
    tally.add("full", run_rep(wl, seed, full, ref_full, work))
    tally.add("quarter", run_rep(wl, seed, quarter, ref_quarter, work))

    # CPU seconds scaled to the reference speed (see the module docstring);
    # the raw wall and CPU times go to the result document beside them.
    cal = Calibrator()
    for _ in range(3):
        cal.mark()
    setups, runs, quarter_runs = [], [], []
    raw = {key: [] for key in ("setup_wall_s", "setup_cpu_s", "run_wall_s", "run_cpu_s",
                               "quarter_run_wall_s", "quarter_run_cpu_s", "reference_s")}
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(runs) < MIN_REPS:
        rep = run_rep(wl, seed, quarter, ref_quarter, work)
        tally.add("quarter", rep)
        quarter_runs.append(rep.run_cpu_s * cal.mark())
        raw["quarter_run_wall_s"].append(rep.run_s)
        raw["quarter_run_cpu_s"].append(rep.run_cpu_s)
        rep = run_rep(wl, seed, full, ref_full, work)
        tally.add("full", rep)
        scale = cal.mark()
        runs.append(rep.run_cpu_s * scale)
        setups.append(rep.setup_cpu_s * scale)
        raw["run_wall_s"].append(rep.run_s)
        raw["run_cpu_s"].append(rep.run_cpu_s)
        raw["setup_wall_s"].append(rep.setup_s)
        raw["setup_cpu_s"].append(rep.setup_cpu_s)
        extra = [setup_only(wl, seed, full, work) for _ in range(EXTRA_SETUPS)]
        scale = cal.mark()
        setups.extend(cpu_s * scale for _, cpu_s in extra)
        raw["setup_wall_s"].extend(wall_s for wall_s, _ in extra)
        raw["setup_cpu_s"].extend(cpu_s for _, cpu_s in extra)
        raw["reference_s"].append(cal.last)

    signature = tally.reference_signature["full"]
    run_s = statistics.median(runs)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "committed_per_s": rep.expected / run_s,
        "growth_exp": growth_exponent(run_s, statistics.median(quarter_runs)),
        "peak_rss_mib": child["rss_mib"],
        "makespan_vt": signature[0],
    }
    detail = {
        "size": wl.size,
        "quarter_size": wl.size // 4,
        "reference_speed_s": REFERENCE_S,
        "setup_s": _spread(setups),
        "run_s": _spread(runs),
        "quarter_run_s": _spread(quarter_runs),
        "raw": {key: _spread(values) for key, values in raw.items()},
        "wasted_frac": signature[2] / (signature[1] + signature[2]),
        "signature": signature,
    }
    return metrics, detail


def measure_traced(wl, seed: int, seconds: float, work, tally: Tally) -> tuple:
    from layers import Tracer, layer_sample, per_layer_metrics

    full = wl.make_inputs(seed, wl.size)
    ref_full = wl.reference(full)
    tally.add("full", run_rep(wl, seed, full, ref_full, work))   # warm-up

    tracer = Tracer()
    samples, traced, untraced = [], [], []
    stats = None
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(traced) < MIN_TRACED:
        rep = run_rep(wl, seed, full, ref_full, work, tracer=tracer)
        tally.add("full", rep)
        traced.append(rep.run_s)
        samples.append(layer_sample(tracer.recorder, rep.run_s))
        stats = rep.stats or stats
        rep = run_rep(wl, seed, full, ref_full, work)
        tally.add("full", rep)
        untraced.append(rep.run_s)
    if stats is None:
        raise RuntimeError("every traced run failed")

    os.makedirs(OUT, exist_ok=True)
    tracer.recorder.write(os.path.join(OUT, f"spans-{wl.name}-seed{seed}.npz"))
    times = {k: statistics.median(s["times"][k] for s in samples) for k in samples[0]["times"]}
    overhead = statistics.median(traced) / statistics.median(untraced)
    # Counts repeat exactly across runs (the determinism gate checks the
    # simulated side), so the last traced run's are reported.
    metrics = per_layer_metrics(times, samples[-1]["counts"], stats, overhead)
    detail = {
        "traced_run_s": _spread(traced),
        "untraced_run_s": _spread(untraced),
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-rss", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS, WorkDir
    from repro.bench import machine_context

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.child_rss:
        child_rss(args.workload, args.seed)
        return 0

    wl = WORKLOADS[args.workload]
    tally = Tally()
    work = WorkDir(OUT)
    try:
        if args.trace:
            # Imported only for traced runs: timed runs stay free of the
            # tracer and of numpy, whose objects every full GC would scan.
            from layers import EXPECTED_MOVES, PER_LAYER_UNITS

            metrics, detail = measure_traced(wl, args.seed, args.seconds, work, tally)
            units = PER_LAYER_UNITS
        else:
            metrics, detail = measure_untraced(wl, args.seed, args.seconds, work, tally)
            units = END_TO_END_UNITS
    finally:
        work.close()

    context = machine_context()
    fail_frac = tally.failed / tally.attempted
    print(f"workload {wl.name}  seed {args.seed}  size {wl.size}  trace {args.trace}")
    print(f"context {json.dumps(context, sort_keys=True)}")
    for name, unit in units.items():
        print(f"  {name:32s} {_format(metrics[name]):>14s} {unit}")
    print(f"  {'fail_frac':32s} {_format(fail_frac):>14s} fraction"
          f"  ({tally.failed} of {tally.attempted} expected outputs)")
    if "wasted_frac" in detail:
        print(f"  {'wasted_frac':32s} {_format(detail['wasted_frac']):>14s} fraction (simulated)")
    for key in ("run_s", "quarter_run_s", "setup_s", "raw", "traced_run_s", "untraced_run_s"):
        if key in detail:
            print(f"  {key} samples: {json.dumps(detail[key])}")
    if args.trace:
        for layer, moves in EXPECTED_MOVES.items():
            names = ", ".join(n for n in PER_LAYER_UNITS if n.startswith(layer + "."))
            print(f"  {names} -> {moves}")

    os.makedirs(OUT, exist_ok=True)
    document = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "context": context, "metrics": metrics, "detail": detail,
        "attempted": tally.attempted, "failed": tally.failed,
    }
    with open(os.path.join(OUT, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
