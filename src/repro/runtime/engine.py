"""The HOPE runtime: the paper's prototype system rebuilt on the simulator.

``HopeSystem`` wires together the four substrates:

* the discrete-event simulator (:mod:`repro.sim`) — processes + messages;
* the abstract machine (:mod:`repro.core`) — all IDO/DOM/IHD bookkeeping;
* the effect log (:mod:`repro.runtime.replay`) — replay-based checkpoints;
* the network (:mod:`repro.sim.channel`) — tagged, retractable messages.

Responsibilities mirror §7 of the paper:

* every send is automatically tagged with the sender's current assumption
  dependencies;
* receiving a tagged message automatically applies the implicit guesses
  *before* the message reaches user-accessible state;
* a denial rolls back every causal descendant: histories are truncated
  (task restart + log replay), messages sent from discarded intervals are
  retracted, and messages consumed by discarded intervals are redelivered;
* dependency tracking never blocks a user process — all bookkeeping here
  is synchronous metadata on an otherwise asynchronous message flow (the
  distributed AID-task mode in :mod:`repro.runtime.aid_task` relaxes even
  that, at the cost of latency in rollback propagation).
"""

from __future__ import annotations

import copy
import weakref
from bisect import bisect_left
from operator import attrgetter
from typing import Any, Callable, Generator, Optional

from ..core import (
    AidStatus,
    AssumptionId,
    FinalizeEvent,
    HopeError,
    Machine,
    MachineEvent,
    RollbackEvent,
)
from ..sim import (
    TIMED_OUT,
    ConstantLatency,
    FailureInjector,
    FaultPlan,
    FaultyNetwork,
    LatencyModel,
    Network,
    RandomStreams,
    Simulator,
    Span,
    Task,
    Timeline,
    Tracer,
)
from ..obs import MetricsRegistry, NullRegistry, SpanCollector, SpeculationMetrics
from ..sim.channel import Message, _Waiter
from ..sim.process import Effect
from .api import AidHandle, AidRef, HopeProcess, aid_key
from .effects import (
    AffirmEffect,
    AidInitEffect,
    CommitPointEffect,
    ComputeEffect,
    DenyEffect,
    EmitEffect,
    FreeOfEffect,
    GuessEffect,
    HopeEffect,
    NowEffect,
    RandomEffect,
    RecvEffect,
    SendEffect,
    SpawnEffect,
)
from functools import partial

from .messages import ReceivedMessage

#: C-level ReceivedMessage constructor (see replay._make_entry).
_new_received = partial(tuple.__new__, ReceivedMessage)
from .replay import (
    Checkpoint,
    EffectLog,
    RebasePoint,
    ShadowCheckpoint,
    _make_entry,
)
from .resilience import (
    DETECTOR_PID,
    DetectorConfig,
    HeartbeatDetector,
    ReliableConfig,
    ReliableTransport,
)


class SpeculativeSpawnError(HopeError):
    """Spawning a process from a speculative interval is not supported.

    The paper's model creates processes outside the optimistic machinery;
    spawn before guessing, or send a message to a pre-spawned worker (the
    message's tags carry the dependency instead).
    """


class OutputRecord:
    """One emitted output: the value, where in the log it happened, and the
    speculative interval (if any) whose fate it shares."""

    __slots__ = ("value", "log_index", "interval", "time")

    def __init__(self, value: Any, log_index: int, interval, time: float) -> None:
        self.value = value
        self.log_index = log_index
        self.interval = interval
        self.time = time

    @property
    def committed(self) -> bool:
        """An output is committed once it depends on no live speculation."""
        return self.interval is None or self.interval.definite

    def __repr__(self) -> str:
        state = "committed" if self.committed else "speculative"
        return f"<Output {self.value!r} {state}>"


_log_index = attrgetter("log_index")


class ProcessRuntime:
    """Per-process runtime state: body, effect log, current task incarnation."""

    __slots__ = (
        "name", "fn", "args", "facade", "log", "shadow", "task",
        "incarnation", "restarts", "done", "result", "crashed", "outputs",
        "outputs_kept", "track", "mailbox", "mproc", "bridge", "rebase",
        "rebase_candidates",
    )

    def __init__(self, name: str, fn: Callable[..., Generator], args: tuple) -> None:
        self.name = name
        self.fn = fn
        self.args = args
        self.facade = HopeProcess(name)
        self.log = EffectLog()
        #: Replica incarnation parked at the newest checkpoint (only when
        #: the system runs with fast_rollback=True).
        self.shadow: Optional[ShadowCheckpoint] = None
        self.task: Optional[Task] = None
        self.incarnation = 0
        self.restarts = 0
        self.done = False
        self.result: Any = None
        self.crashed = False
        self.outputs: list[OutputRecord] = []
        #: Leading outputs that outlived a crash: committed, so never
        #: withdrawn, and logged by an earlier incarnation, so their
        #: log_index says nothing about this one's log.
        self.outputs_kept = 0
        #: Cached timeline track and mailbox (assigned at spawn; hot-path
        #: marks and recv registrations skip the per-event name lookups).
        self.track = None
        self.mailbox = None
        #: Cached machine ProcessRecord (assigned at spawn — the machine
        #: never replaces a record, so send/recv/emit skip the dict hop).
        self.mproc = None
        #: Reusable recv bridge for the current incarnation (one recv is
        #: outstanding at a time, so one bridge serves them all; replaced
        #: on rollback because its captured incarnation goes stale).
        self.bridge: Optional["_RecvBridge"] = None
        #: The promoted rebase point — always at ``log.base`` (None means
        #: incarnations start from program entry; see commit_point).
        self.rebase: Optional[RebasePoint] = None
        #: Candidate rebase points not yet behind the commit frontier.
        self.rebase_candidates: list[RebasePoint] = []

    def body(self, env) -> Generator:
        """Adapter: the sim Task calls ``fn(env)``; HOPE bodies take the facade.

        A process with a promoted rebase point restarts *from the commit
        point*: the body is called with ``resume=<fresh deep copy>`` and
        must reconstruct itself from that state (the commit_point
        contract).  Each incarnation gets its own copy — a restarted body
        mutates the state it is handed.
        """
        if self.rebase is not None:
            return self.fn(
                self.facade, *self.args, resume=copy.deepcopy(self.rebase.state)
            )
        return self.fn(self.facade, *self.args)

    def __repr__(self) -> str:
        return f"<ProcessRuntime {self.name!r} inc={self.incarnation} restarts={self.restarts}>"


class _RecvBridge:
    """Stands in the mailbox wait queue on behalf of a HOPE task.

    The mailbox thinks it is resuming a task; the bridge routes the
    message through the engine first, so implicit guesses and dead-message
    filtering happen before the process sees anything (§7: tagged-message
    guesses precede delivery "into the user-accessible state").
    """

    __slots__ = (
        "engine", "proc", "effect", "incarnation", "sync", "on_kill",
        "waiter", "_cleanup",
    )

    def __init__(self, engine: "HopeSystem", proc: ProcessRuntime, effect: RecvEffect) -> None:
        self.engine = engine
        self.proc = proc
        self.effect = effect
        self.incarnation = proc.incarnation
        #: Pre-bound cleanup callback: the bridge is registered as the
        #: task's kill cleanup once per recv, and binding the method each
        #: time was measurable on the recv hot path.
        self.on_kill = self.cancel
        #: True only while the recv handler's registration call is on the
        #: stack — i.e. the task's dispatch trampoline is active, so a
        #: synchronous delivery (message already queued) may complete the
        #: effect via resume_now and drain the whole same-tick backlog in
        #: one flat dispatch loop.
        self.sync = False
        #: Reusable mailbox waiter: one recv is outstanding at a time, so
        #: timer-less recvs re-register this single object instead of
        #: allocating a _Waiter per message (register_waiter fast path).
        self.waiter = _Waiter(self, None, None, proc.mailbox)
        #: The mailbox-unregistration cleanup for the recv in flight.  At
        #: most one is ever registered (one outstanding recv), so a single
        #: slot replaces the list append/clear churn of the Task protocol.
        self._cleanup: Optional[Callable[[], None]] = None

    # Mailbox-facing protocol (duck-typed Task):
    def resume(self, value: Any) -> None:
        self.engine._deliver(self.proc, self.effect, value, self)

    def add_cleanup(self, fn: Callable[[], None]) -> None:
        self._cleanup = fn

    def clear_cleanups(self) -> None:
        self._cleanup = None

    def cancel(self) -> None:
        """Run the mailbox-removal cleanup (invoked when the real task dies)."""
        fn, self._cleanup = self._cleanup, None
        if fn is not None:
            fn()


#: Shared disabled registry: hands out no-op instruments, so one object
#: serves every unmetered system (the NullTracer sharing idiom).
_NULL_REGISTRY = NullRegistry()


class HopeSystem:
    """A complete HOPE world: spawn processes, run, inspect outcomes.

    Parameters
    ----------
    seed:
        Root seed for all randomness (latency, process streams, failures).
    latency:
        Network latency model for user messages (default: 0 — a perfect
        network; benchmarks pass explicit models).
    rollback_overhead:
        Virtual-time cost charged to a process when it restarts after a
        rollback (models checkpoint-restore cost; the paper's prototype
        calls its own mechanism "not particularly efficient").
    trace:
        Optional :class:`Tracer`; pass ``Tracer()`` to record everything.
    strict_aids:
        Forward the machine's strict resolution-conflict mode.  The
        runtime default is lenient because rollback legitimately
        re-executes resolution statements (see Figure 2's WorryWart).
    fast_rollback:
        Keep a :class:`ShadowCheckpoint` replica per process, advanced
        incrementally at guess boundaries, so a rollback restores the
        newest checkpoint at or before its truncation point instead of
        replaying the effect log from entry 0.  Off by default: it
        strengthens the body contract from "deterministic in effect
        results" to "no out-of-band side effects at all", because the
        replica re-executes the pre-checkpoint prefix eagerly (a body
        that appends to a closure list would observe the extra pass).
        All benchmarks and every paper program satisfy the stronger
        contract; see docs/PERFORMANCE.md.
    fossil_collect:
        Reclaim committed state behind the commit frontier (Theorem 6.1:
        finalized intervals never roll back).  Bounds long-run memory to
        O(active speculation window): machine history prefixes, retired
        AIDs, unreachable interned DepSets, effect-log prefixes behind a
        ``commit_point``, stale shadow replicas, and closed timeline
        spans are all dropped.  Semantics-neutral — traces are identical
        with it on or off; see docs/PERFORMANCE.md §4.
    fossil_interval:
        Collect after every N machine finalizes (default 64).  Lower =
        tighter memory, more collection overhead.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`.  When given, the
        engine feeds the standard speculation instrument set
        (:class:`repro.obs.SpeculationMetrics`) and builds per-interval
        lifecycle spans (:attr:`spans`) from machine events — guesses,
        rollback cascades, commit latency, wasted vs. useful time,
        fossil reclaim, cache hit rate.  Export with
        :mod:`repro.obs.export` after :meth:`metrics_snapshot`.  The
        default is a shared :class:`repro.obs.NullRegistry`: no listener
        is subscribed and every metered branch is skipped, so the
        disabled path costs nothing (the ``NullTracer`` contract);
        traces are byte-identical with metrics on or off.
    faults:
        Optional :class:`repro.sim.FaultPlan`.  When given, the network
        is a :class:`repro.sim.FaultyNetwork` applying the plan (drop /
        duplicate / reorder / jitter / timed partitions), with every
        probabilistic fate drawn from the dedicated seeded stream
        ``streams["faults"]`` — faulty runs replay from their seed, and
        enabling faults perturbs no other stream.  ``None`` (default)
        constructs the plain reliable :class:`repro.sim.Network`: the
        exact pre-fault-layer code path, byte-identical traces.
    reliable:
        ``True`` or a :class:`repro.runtime.resilience.ReliableConfig`
        enables reliable delivery for all HOPE sends: per-message acks,
        timeout-driven resend with capped exponential backoff, and
        receiver-side dedup by ``msg_id``.  ``Delivery.retract`` on a
        rolled-back sender kills in-flight copies and retries alike.
    failure_detector:
        ``True`` or a :class:`repro.runtime.resilience.DetectorConfig`
        enables the heartbeat failure detector: a suspected process's
        unresolved AIDs are denied (definite, by the ``__detector__``
        pseudo-process) so dependents roll back instead of hanging; a
        falsely suspected process is unsuspected on its next heartbeat
        and its later ``affirm`` of a detector-denied AID is reconciled
        to a no-op.
    kernel:
        Event-queue kernel for the simulator: ``"wheel"`` (default, the
        hierarchical timer wheel) or ``"heap"`` (the binary-heap oracle).
        Traces are byte-identical either way; see docs/PERFORMANCE.md §6.
    backend:
        Execution backend: ``"sim"`` (default — the deterministic
        single-process simulator, exactly the pre-backend code path) or
        ``"parallel"`` (real OS workers via :mod:`repro.parallel`, each
        hosting a shard of the processes; requires a positive
        :class:`~repro.sim.ConstantLatency` and supports a restricted
        option set — see docs/API.md and docs/LIMITATIONS.md).
    workers:
        Worker count for ``backend="parallel"`` (default 2).  Must be
        left None for the sim backend.
    transport:
        Optional transport factory ``f(sim, latency_model, streams) ->
        Network`` replacing the default :class:`~repro.sim.Network`.
        Mutually exclusive with ``faults`` (which implies the
        ``FaultyNetwork`` transport).  This is the seam the parallel
        backend's per-worker ``ShardTransport`` plugs into.
    parallel_opts:
        Extra options for the parallel backend (placement overrides,
        lookahead, crash injection for tests); see
        :class:`repro.parallel.ParallelBackend`.
    controller:
        Optional schedule controller: an object with
        ``choose(time, events) -> int`` consulted at every simulator pop
        with the batch of live same-time events — externally directed
        interleaving choice (the DPOR explorer in :mod:`repro.verify`).
        Mutually exclusive with ``shuffle_ties``; disables same-tick
        delivery coalescing so each delivery owns a choice point.
    """

    def __init__(
        self,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        rollback_overhead: float = 0.0,
        trace: Optional[Tracer] = None,
        strict_aids: bool = False,
        aid_mode: str = "registry",
        control_latency: float = 1.0,
        speculation: bool = True,
        shuffle_ties: bool = False,
        fast_rollback: bool = False,
        fossil_collect: bool = False,
        fossil_interval: int = 64,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[FaultPlan] = None,
        reliable: Any = False,
        failure_detector: Any = False,
        kernel: str = "wheel",
        backend: str = "sim",
        workers: Optional[int] = None,
        transport: Optional[Callable[..., Network]] = None,
        parallel_opts: Optional[dict] = None,
        controller: Optional[Any] = None,
        durable: bool = False,
        durable_dir: Optional[str] = None,
        durable_opts: Optional[dict] = None,
    ) -> None:
        self.streams = RandomStreams(seed)
        if controller is not None:
            if shuffle_ties:
                raise HopeError(
                    "shuffle_ties and controller are mutually exclusive — "
                    "both decide same-time event order"
                )
            # Externally directed scheduling: at every pop the controller
            # picks which same-time event fires (the DPOR explorer in
            # repro.verify drives this seam; see ScheduleController).
            self.sim = Simulator(kernel=kernel, controller=controller)
        elif shuffle_ties:
            # Permute the order of same-virtual-time events (seeded):
            # genuinely concurrent events may fire in any order, and the
            # model checker sweeps seeds to explore those interleavings.
            tie_stream = self.streams["schedule-ties"]
            self.sim = Simulator(
                tie_breaker=lambda: tie_stream.randint(0, 1 << 30),
                kernel=kernel,
            )
        else:
            self.sim = Simulator(kernel=kernel)
        latency_model = latency if latency is not None else ConstantLatency(0.0)
        if transport is not None:
            if faults is not None:
                raise HopeError(
                    "transport and faults are mutually exclusive — a fault "
                    "plan implies the FaultyNetwork transport"
                )
            self.network: Network = transport(
                self.sim, latency_model, self.streams
            )
        elif faults is not None:
            # The faulty network draws every probabilistic fate from its
            # own named stream, so turning faults on perturbs none of the
            # other streams (latency, workload, ties, ...).
            self.network = FaultyNetwork(
                self.sim, latency_model, plan=faults,
                stream=self.streams["faults"],
            )
        else:
            self.network = Network(self.sim, latency_model)
        self.machine = Machine(strict=strict_aids)
        self.machine.subscribe(self._on_machine_event)
        #: Pre-bound effect-dispatch lookup and interned-empty DepSet —
        #: read once per effect / per definite send (see _handle_effect).
        self._handler_get = self._LIVE_HANDLERS.get
        self._empty_ido = self.machine.depsets.empty
        self.tracer = trace if trace is not None else Tracer(categories=())
        #: Hot-path guard: with a disabled tracer every per-effect record
        #: call is pure overhead, so the handlers skip them wholesale.
        self._tracing = not getattr(self.tracer, "_disabled", False)
        self.timeline = Timeline()
        self.failures = FailureInjector(self.sim)
        self.failures.attach(
            kill_fn=self.crash_process, restart_fn=self.restart_process
        )
        self.rollback_overhead = rollback_overhead
        #: speculation=False turns every guess into a *blocking wait* for
        #: the AID's resolution: the same program runs pessimistically —
        #: the universal ablation (see _do_guess).  Programs whose AIDs
        #: are resolved only by the guessing process itself would
        #: deadlock in this mode; that is inherent, not a bug.
        self.speculation = speculation
        self.fast_rollback = fast_rollback
        self.fossil_collect = fossil_collect
        if fossil_interval < 1:
            raise HopeError(f"fossil_interval must be >= 1, got {fossil_interval}")
        self.fossil_interval = fossil_interval
        #: Deferred-collection flag: finalize events fire mid-primitive
        #: (the machine is not quiescent), so listeners only raise this
        #: flag and the collection runs at the next effect-dispatch or
        #: delivery boundary.
        self._fossil_pending = False
        self._finalizes_since_collect = 0
        #: True while a rollback's message requeue is handing messages to
        #: waiting receivers: the machine is mid-primitive there, so
        #: deliveries fall back to scheduled resumes instead of stepping
        #: user code inline (which could re-enter the machine).
        self._defer_delivery = False
        self._aid_waiters: dict[str, list] = {}
        self.procs: dict[str, ProcessRuntime] = {}
        #: User-space AID handles by key.  Weak values: a handle that user
        #: code (or a log entry, message payload, or rebase state) still
        #: references pins its AID against retirement; one nothing holds
        #: lets the AID go once the machine is done with it.
        self._handles: "weakref.WeakValueDictionary[str, AidHandle]" = (
            weakref.WeakValueDictionary()
        )
        from .aid_task import AidTaskControlPlane, RegistryControlPlane

        if aid_mode == "registry":
            self.control = RegistryControlPlane(self)
        elif aid_mode == "aid_task":
            self.control = AidTaskControlPlane(self, control_latency)
        else:
            raise HopeError(f"unknown aid_mode {aid_mode!r}")
        # Observability: with a real registry, subscribe the metrics and
        # span collectors as extra machine listeners; with the default
        # NullRegistry subscribe nothing at all, so the disabled path is
        # exactly the pre-metrics hot path (the NullTracer pattern).
        self.metrics = metrics if metrics is not None else _NULL_REGISTRY
        self._metered = self.metrics.enabled
        if self._metered:
            self.spec_metrics: Optional[SpeculationMetrics] = SpeculationMetrics(
                self.metrics
            )
            self.spans: Optional[SpanCollector] = SpanCollector()
            self.machine.subscribe(self._observe_machine_event)
        else:
            self.spec_metrics = None
            self.spans = None
        # Resilience layers (opt-in; both None keeps the engine's hot
        # path and trace stream exactly as before).
        if reliable is True:
            reliable = ReliableConfig()
        self.reliable: Optional[ReliableTransport] = (
            ReliableTransport(self, reliable) if reliable else None
        )
        if failure_detector is True:
            failure_detector = DetectorConfig()
        #: AID key -> owning process name, tracked only when the detector
        #: is on (it needs to know whose AIDs to deny on suspicion).
        self._aid_owner: Optional[dict[str, str]] = (
            {} if failure_detector else None
        )
        #: AID keys the detector denied — a falsely suspected process's
        #: later affirm of one of these is reconciled to a no-op.
        self._detector_denied: set[str] = set()
        self.detector: Optional[HeartbeatDetector] = (
            HeartbeatDetector(self, failure_detector) if failure_detector else None
        )
        #: Remote-shard bridge, set only on a worker engine inside the
        #: parallel backend: observes aid_init (ownership reporting) and
        #: resolves unknown AID keys by adopting mirrors of remote AIDs.
        #: None on every standalone system — all remote branches skip.
        self.remote = None
        from .backend import SimBackend

        if backend == "sim":
            if workers is not None:
                raise HopeError(
                    "workers is a parallel-backend option; the sim backend "
                    "runs everything on one simulator"
                )
            self.backend: Any = SimBackend(self)
        elif backend == "parallel":
            from ..parallel import ParallelBackend

            self.backend = ParallelBackend(
                self,
                workers=2 if workers is None else workers,
                config={
                    "seed": seed,
                    "latency": latency,
                    "rollback_overhead": rollback_overhead,
                    "strict_aids": strict_aids,
                    "speculation": speculation,
                    "fast_rollback": fast_rollback,
                    "kernel": kernel,
                    "metered": self._metered,
                    # options rejected by the parallel backend (validated
                    # there so the error names every offender at once)
                    "trace": trace,
                    "aid_mode": aid_mode,
                    "shuffle_ties": shuffle_ties,
                    "controller": controller,
                    "fossil_collect": fossil_collect,
                    "faults": faults,
                    "reliable": reliable,
                    "failure_detector": failure_detector,
                    "transport": transport,
                },
                opts=parallel_opts,
            )
        else:
            raise HopeError(
                f"unknown backend {backend!r} (choose 'sim' or 'parallel')"
            )
        #: Resume support: True while HopeSystem.resume() rebuilds the
        #: process tree — spawns register everything but leave the initial
        #: tasks unscheduled so restored logs replay instead.
        self._defer_start = False
        #: Durable persistence (repro.durable) — None keeps every hot-path
        #: hook a single attribute test, and durable=False traces stay
        #: byte-identical to pre-durable builds.
        self._durable = None
        if durable or durable_dir is not None:
            if durable_dir is None:
                raise HopeError("durable=True needs durable_dir= (the run directory)")
            if backend != "sim":
                raise HopeError("durable runs require the sim backend")
            if self.reliable is not None or self.detector is not None:
                raise HopeError(
                    "durable runs do not compose with reliable delivery or "
                    "the failure detector yet (their transport state is not "
                    "persisted); see docs/DURABILITY.md"
                )
            if transport is not None or controller is not None:
                raise HopeError(
                    "durable runs do not compose with a custom transport or "
                    "schedule controller"
                )
            if aid_mode != "registry":
                raise HopeError("durable runs require aid_mode='registry'")
            # The WAL is flushed from fossil-collection passes; durable
            # without the commit frontier would persist nothing.
            self.fossil_collect = True
            from ..durable.recorder import DurableRecorder

            self._durable = DurableRecorder(
                self, durable_dir, seed=seed, opts=durable_opts
            )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def spawn(self, name: str, fn: Callable[..., Generator], *args: Any) -> ProcessRuntime:
        """Create and start a HOPE process running ``fn(p, *args)``."""
        return self.backend.spawn(name, fn, *args)

    def _spawn_sim(self, name: str, fn: Callable[..., Generator], *args: Any) -> ProcessRuntime:
        """Spawn on the local simulator (the SimBackend path; also used by
        each parallel worker for its own shard)."""
        if name in self.procs:
            raise HopeError(f"process {name!r} already exists")
        proc = ProcessRuntime(name, fn, args)
        proc.track = self.timeline.process(name)
        self.procs[name] = proc
        self.network.register(name)
        proc.mailbox = self.network.mailbox(name)
        proc.mproc = self.machine.create_process(name)
        if self.detector is not None:
            self.detector.on_spawn(name)
        if not self._defer_start:
            self._start_task(proc, delay=0.0)
        self.tracer.record(self.sim.now, "spawn", name)
        return proc

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the system to quiescence; returns the final virtual time."""
        return self.backend.run(until, max_events)

    def _run_sim(self, until: Optional[float], max_events: Optional[int]) -> float:
        final = self.sim.run(until=until, max_events=max_events)
        self.timeline.close_all(final)
        # Clean stop: flush the committed frontier and seal a consolidation
        # envelope.  A crash (exception, os._exit, EventLimitExceeded)
        # skips this on purpose — recovery then works from the last sealed
        # batch, which is the contract under test in the kill/resume mode.
        if self._durable is not None:
            self._durable_sync()
        return final

    @classmethod
    def resume(cls, durable_dir: str, build: Callable[["HopeSystem"], Any],
               *, durable_opts: Optional[dict] = None, **kwargs) -> "HopeSystem":
        """Reload a durable run from ``durable_dir`` and continue it.

        ``build(system)`` must recreate the same process tree (same
        ``spawn`` names, bodies, and arguments) the original run started
        with; the restored effect logs then replay each process's
        committed prefix — replay invokes no handlers, so committed
        effects happen exactly once across incarnations — and execution
        continues live from the frontier.  Construction kwargs
        (``seed``, ``latency``, ``kernel``, ``fossil_interval``, ...)
        must match the original run; the seed is verified against the
        envelope.  Recovery picks the newest envelope whose CRC, seal,
        and generation chain verify, applies the WAL suffix up to its
        last valid batch marker, and falls back one generation on a
        torn or corrupt tail — rejections are counted in
        ``stats()["durable"]``, never silently ignored.
        """
        opts = dict(durable_opts or {})
        opts["_resuming"] = True
        kwargs.pop("durable", None)
        kwargs.pop("durable_dir", None)
        system = cls(durable=True, durable_dir=durable_dir,
                     durable_opts=opts, **kwargs)
        recorder = system._durable
        image = recorder.load_image()
        if image is None:
            # Nothing restorable (fresh directory or a crash before the
            # first sealed batch): run from program entry, recording.
            recorder.begin_fresh()
            build(system)
            return system
        # Restore the clock first: the queue is empty, so this only
        # advances virtual time to where the image was sealed.
        system.sim.run(until=image["time"])
        system._defer_start = True
        try:
            build(system)
        finally:
            system._defer_start = False
        recorder.restore(image)
        return system

    def _durable_sync(self) -> None:
        """Flush every process's committed frontier and seal an envelope
        (the same frontier computation as a fossil pass, minus the
        collection)."""
        machine = self.machine
        for name, proc in self.procs.items():
            record = machine.processes.get(name)
            frontier_log = len(proc.log)
            if record is not None:
                for iv in record.speculative:
                    cp = iv.ps
                    if isinstance(cp, Checkpoint):
                        frontier_log = min(frontier_log, cp.log_index)
            self._durable.flush_proc(proc, min(frontier_log, proc.log.cursor))
        self._durable.end_pass(self.sim.now, force_snapshot=True)

    def aid(self, ref: AidRef) -> AssumptionId:
        """Resolve a handle/key to the underlying machine AID."""
        return self.machine.aid(aid_key(ref))

    def aid_status(self, ref: AidRef) -> AidStatus:
        status = self.backend.aid_status(aid_key(ref))
        if status is not None:
            return status
        return self.aid(ref).status

    def result_of(self, name: str) -> Any:
        proc = self.procs[name]
        if not proc.done:
            raise HopeError(f"process {name!r} has not finished (state: {proc.task.state if proc.task else '?'})")
        return proc.result

    def is_done(self, name: str) -> bool:
        return self.procs[name].done

    def crash_process(self, name: str) -> None:
        """Crash a process: kill its task and drop its volatile effect log.

        Used by failure injection (the optimistic-recovery application);
        the process's machine record survives (it models the global
        dependency state, which in the paper lives in AID bookkeeping,
        not in the crashed node's volatile memory).
        """
        if self._durable is not None:
            raise HopeError(
                "in-simulation crash_process() is not supported on a durable "
                "run: a volatile log reset would desynchronize the persisted "
                "committed prefix (use the kill/resume chaos mode for "
                "host-crash semantics instead; see docs/DURABILITY.md)"
            )
        proc = self.procs[name]
        if proc.task is not None and proc.task.alive:
            proc.task.kill("crash")
        proc.crashed = True
        proc.incarnation += 1
        forgotten = self.machine.forget_process(name)
        if self._metered:
            # A crash discards speculation without a RollbackEvent; keep
            # the open-guess table and span tree honest about it.
            self.spec_metrics.forget_intervals(forgotten)
            self.spans.discard(forgotten, self.sim.now)
        self.network.mailbox(name).purge()
        if self.reliable is not None:
            self.reliable.on_crash(name)
        # Rebase state is volatile memory: a crashed node restarts from
        # program entry, so the log resets fully (base included) and every
        # captured commit-point state dies with the incarnation.
        proc.rebase = None
        proc.rebase_candidates.clear()
        proc.log.truncate(0)
        # The shadow replica models volatile memory too: a crash loses it.
        if proc.shadow is not None:
            proc.shadow.invalidate()
            proc.shadow = None
        # Outputs from forgotten intervals are permanently uncommitted
        # (their intervals are now rolled back); drop them from the buffer.
        proc.outputs = [r for r in proc.outputs if r.committed]
        proc.outputs_kept = len(proc.outputs)
        self.tracer.record(self.sim.now, "crash", name)

    def restart_process(self, name: str) -> None:
        """Restart a crashed process from scratch (volatile state lost)."""
        proc = self.procs[name]
        if not proc.crashed:
            raise HopeError(f"process {name!r} is not crashed")
        proc.crashed = False
        proc.done = False
        # Anything that landed while the node was down is lost too.
        self.network.mailbox(name).purge()
        self._start_task(proc, delay=0.0)
        self.tracer.record(self.sim.now, "restart_after_crash", name)

    def stats(self) -> dict:
        """Aggregate runtime statistics for benchmarks and tests."""
        override = self.backend.stats()
        if override is not None:
            return override
        machine = dict(self.machine.stats)
        statuses = {"pending": 0, "affirmed": 0, "denied": 0}
        for aid in self.machine.aids.values():
            statuses[aid.status.value] += 1
        return {
            **machine,
            # Retired AIDs left the table but still count toward the run's
            # totals (orphaned pending ones included), so collected and
            # uncollected runs agree.
            "aids_pending": statuses["pending"] + machine["aids_retired_pending"],
            "aids_affirmed": statuses["affirmed"] + machine["aids_retired_affirmed"],
            "aids_denied": statuses["denied"] + machine["aids_retired_denied"],
            "aid_mode": self.control.name,
            "control_messages": self.control.control_messages,
            "messages_sent": self.network.messages_sent,
            "tags_attached": self.network.tag_count_total,
            "sim_events": self.sim.events_processed,
            "restarts": sum(p.restarts for p in self.procs.values()),
            "replayed_effects": sum(p.log.replayed_entries_total for p in self.procs.values()),
            "replay_skipped_entries": sum(
                p.log.skipped_entries_total for p in self.procs.values()
            ),
            "shadow_feeds": sum(
                p.log.shadow_feeds_total for p in self.procs.values()
            ),
            "fossil_log_dropped": sum(
                p.log.fossil_dropped_total for p in self.procs.values()
            ),
            "heap_compactions": self.sim.heap_compactions,
            "wasted_time": self.timeline.aggregate(Span.WASTED),
            "busy_time": self.timeline.aggregate(Span.BUSY),
            # Transport-specific blocks (fault counters, parallel wire
            # stats, ...) are contributed polymorphically — the engine
            # never type-checks its network.
            **self.network.stats_entries(),
            **(
                {"reliable": self.reliable.stats.as_dict()}
                if self.reliable is not None
                else {}
            ),
            **(
                {"detector": self.detector.stats.as_dict()}
                if self.detector is not None
                else {}
            ),
            **(
                {"durable": self._durable.stats_entries()}
                if self._durable is not None
                else {}
            ),
        }

    def pending_aids(self) -> list[AssumptionId]:
        """AIDs never affirmed or denied — a smell for stuck programs."""
        return [a for a in self.machine.aids.values() if a.pending]

    # ------------------------------------------------------------------
    # failure-detector support
    # ------------------------------------------------------------------
    def _deny_owned_aids(self, name: str) -> int:
        """Issue a definite deny for every unresolved AID ``name`` owns
        (the detector's suspicion action).  Returns how many were denied.

        Denies are authored by the ``__detector__`` machine pseudo-process
        — never speculative, so they are definite and cascade (Eq 15/24),
        rolling dependents back instead of leaving them stranded.
        """
        if self._aid_owner is None:
            return 0
        denied = 0
        for key, owner in list(self._aid_owner.items()):
            if owner != name:
                continue
            aid = self.machine.aids.get(key)
            if aid is None:
                # Retired by fossil collection — prune the owner entry.
                del self._aid_owner[key]
                continue
            if not aid.pending:
                continue
            self._detector_denied.add(key)
            self.machine.deny(DETECTOR_PID, aid)
            denied += 1
            if self._tracing:
                self.tracer.record(
                    self.sim.now, "detector_deny", name, aid=key
                )
        return denied

    def _owner_has_pending_aids(self, name: str) -> bool:
        if self._aid_owner is None:
            return False
        for key, owner in self._aid_owner.items():
            if owner != name:
                continue
            aid = self.machine.aids.get(key)
            if aid is not None and aid.pending:
                return True
        return False

    # ------------------------------------------------------------------
    # observability (repro.obs)
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> MetricsRegistry:
        """Refresh the point-in-time gauges and return the registry.

        The event-fed counters and histograms are always current; this
        fills in the quantities only known by sampling — timeline busy /
        blocked totals, cache hit counts, message and event counts — so
        an export taken right after reflects the whole run.  Raises on an
        unmetered system (there is nothing to snapshot into).
        """
        if not self._metered:
            raise HopeError(
                "metrics are disabled — construct HopeSystem(metrics=MetricsRegistry())"
            )
        if self.backend.owns_metrics():
            return self.metrics
        spec = self.spec_metrics
        spec.busy_time.set(self.timeline.aggregate(Span.BUSY))
        spec.blocked_time.set(self.timeline.aggregate(Span.BLOCKED))
        machine_stats = self.machine.stats
        spec.resolve_cache_hits.set(machine_stats["resolve_cache_hits"])
        spec.resolve_cache_misses.set(machine_stats["resolve_cache_misses"])
        spec.messages_sent.set(self.network.messages_sent)
        spec.sim_events.set(self.sim.events_processed)
        self.network.observe_gauges(spec)
        if self.reliable is not None:
            rel = self.reliable.stats
            spec.retries.set(rel.retries)
            spec.acks_sent.set(rel.acks_sent)
            spec.dup_suppressed.set(rel.dup_suppressed)
            spec.retry_exhausted.set(rel.exhausted)
        if self.detector is not None:
            det = self.detector.stats
            spec.suspects.set(det.suspects)
            spec.false_suspicions.set(det.false_suspicions)
            spec.detector_denies.set(det.detector_denies)
            spec.reconciled_affirms.set(det.reconciled_affirms)
        if self._durable is not None:
            self._durable.observe_gauges(self.metrics)
        return self.metrics

    def export_metrics(self, fmt: str = "summary") -> str:
        """Snapshot and render the metrics in one of
        :data:`repro.obs.export.FORMATS` (what the CLI's
        ``--metrics-out`` writes)."""
        from ..obs.export import render

        self.metrics_snapshot()
        return render(fmt, self.metrics, spans=self.spans, spec=self.spec_metrics)

    def dependency_dot(self) -> str:
        """Graphviz source of the live dependency graph — delegates to
        :func:`repro.core.inspect.to_dot`, the same bipartite view the
        span tree's IDO links project onto."""
        from ..core.inspect import to_dot

        return to_dot(self.machine)

    # ------------------------------------------------------------------
    # shadow checkpoints (fast rollback)
    # ------------------------------------------------------------------
    def _note_checkpoint(self, proc: ProcessRuntime, checkpoint: Checkpoint) -> None:
        """Advance the process's shadow replica to the new guess boundary.

        Incremental: only the log delta since the previous checkpoint is
        fed.  A shadow that has diverged (effect-impure body) stays
        invalid as a tombstone so we never pay for it again; one that was
        consumed by a promotion is rebuilt from scratch here.
        """
        if not self.fast_rollback:
            return
        shadow = proc.shadow
        if shadow is None:
            # A rebuilt replica starts where fresh incarnations do: at the
            # log base, from the rebase state if one was promoted.
            shadow = proc.shadow = ShadowCheckpoint(proc.body(None), pos=proc.log.base)
        if shadow.valid:
            shadow.advance(proc.log, checkpoint.log_index)

    def _try_promote_shadow(self, proc: ProcessRuntime, log_index: int, delay: float) -> bool:
        """Restore a rollback checkpoint by promoting the shadow replica.

        Returns False (leaving a full replay to the caller) when there is
        no shadow, it diverged, or it sits past the truncation point —
        the shadow tracks the *newest* checkpoint, so a rollback to an
        older one falls back to replay from entry 0.
        """
        shadow = proc.shadow
        if shadow is None or not shadow.valid or shadow.pos > log_index:
            if shadow is not None and shadow.pos > log_index:
                shadow.invalidate()
                proc.shadow = None
            return False
        if not shadow.advance(proc.log, log_index):   # catch up the delta
            proc.shadow = None
            return False
        proc.shadow = None
        effect = shadow.pending_effect
        proc.log.begin_replay_at(log_index)
        task = Task(
            self.sim,
            proc.name,
            proc.body,
            handler=self._handle_effect,
            on_exit=self._on_task_exit,
            context=proc,
        )
        proc.task = task
        task.start_adopted(
            shadow.gen,
            delay,
            lambda t, e=effect: t.dispatch(e),
        )
        return True

    # ------------------------------------------------------------------
    # fossil collection (commit frontier)
    # ------------------------------------------------------------------
    def _run_fossil_collection(self) -> None:
        """One deferred collection pass (see the ``fossil_collect`` doc).

        Runs only at effect-dispatch and delivery boundaries: the machine
        is between primitives and the simulator between callbacks, so no
        half-applied transition can be observed.  Purely a memory
        operation — it schedules nothing, draws no randomness, and leaves
        the trace untouched, which is what keeps collected and
        uncollected runs byte-identical.
        """
        self._fossil_pending = False
        self._finalizes_since_collect = 0
        machine = self.machine
        for name, proc in self.procs.items():
            record = machine.processes.get(name)
            if record is None:
                continue
            # Per-process frontier: the oldest still-speculative guess's
            # checkpoint (log position + virtual time); with no live
            # speculation everything up to now is committed.
            frontier_log = len(proc.log)
            frontier_time = self.sim.now
            for iv in record.speculative:
                cp = iv.ps
                if isinstance(cp, Checkpoint):
                    frontier_log = min(frontier_log, cp.log_index)
                    frontier_time = min(frontier_time, cp.time)
            # Effect-log prefix: promote the newest rebase candidate at or
            # behind the frontier (and behind any in-flight replay cursor)
            # and drop the entries it makes unreachable.
            target = min(frontier_log, proc.log.cursor)
            # Durable flush first, while the entries below the frontier are
            # still in the log: everything the prefix-drop below may
            # reclaim has then already reached the WAL.
            if self._durable is not None:
                self._durable.flush_proc(proc, target)
            best: Optional[RebasePoint] = None
            for cand in proc.rebase_candidates:
                if cand.log_index <= target and (
                    best is None or cand.log_index > best.log_index
                ):
                    best = cand
            if best is not None and best.log_index > proc.log.base:
                proc.rebase = best
                proc.rebase_candidates = [
                    c for c in proc.rebase_candidates if c.log_index > best.log_index
                ]
                proc.log.drop_prefix(best.log_index)
                # A shadow replica parked before the new base can never
                # catch up (its feed entries are gone); the next guess
                # rebuilds one from the rebase state instead.
                if proc.shadow is not None and proc.shadow.pos < proc.log.base:
                    proc.shadow.invalidate()
                    proc.shadow = None
                if self._durable is not None:
                    self._durable.note_promotion(proc)
            proc.track.compact_before(frontier_time)
        fossil_stats = machine.fossil_collect(self._pinned_aid_keys())
        if self._durable is not None:
            # Durability point: the pass's WAL records become recoverable
            # here (sealed batch marker + fsync), and every Nth pass
            # consolidates into a fresh envelope, rotating the WAL.
            self._durable.end_pass(self.sim.now)
        if self._metered:
            spec = self.spec_metrics
            spec.fossil_collections.inc()
            spec.fossil_history_dropped.inc(fossil_stats.history_dropped)
            spec.fossil_intervals_dropped.inc(fossil_stats.intervals_dropped)
            spec.fossil_aids_retired.inc(fossil_stats.aids_retired)
            spec.fossil_depsets_dropped.inc(fossil_stats.depsets_dropped)

    def _pinned_aid_keys(self) -> frozenset:
        """AID keys that must survive retirement even if the machine is
        done with them: tags of messages still in flight or queued (their
        delivery resolves tags by key), tags of messages held by live
        speculative intervals (a rollback requeues them), and every
        handle user code still reaches (a late ``guess`` looks it up)."""
        pinned: set = set(self._handles.keys())
        pinned.update(self.network.pinned_tag_keys())
        if self.reliable is not None:
            pinned.update(self.reliable.pinned_tag_keys())
        for name, proc in self.procs.items():
            record = self.machine.processes.get(name)
            if record is None:
                continue
            for iv in record.speculative:
                for message in iv.meta.get("received", ()):
                    if not message.dead:
                        pinned.update(message.tags)
        return frozenset(pinned)

    # ------------------------------------------------------------------
    # task lifecycle
    # ------------------------------------------------------------------
    def _start_task(self, proc: ProcessRuntime, delay: float) -> None:
        proc.log.begin_replay()
        task = Task(
            self.sim,
            proc.name,
            proc.body,
            handler=self._handle_effect,
            on_exit=self._on_task_exit,
            context=proc,
        )
        proc.task = task
        task.start(delay=delay)

    def _on_task_exit(self, task: Task) -> None:
        proc: ProcessRuntime = task.env.context
        if task is not proc.task:
            return  # an old incarnation being killed
        if task.done:
            proc.done = True
            proc.result = task.result
            self.tracer.record(self.sim.now, "exit", proc.name)

    # ------------------------------------------------------------------
    # effect dispatch
    # ------------------------------------------------------------------
    def _handle_effect(self, task: Task, effect: Effect) -> None:
        if self._fossil_pending:
            # Deferred from a finalize listener: here the machine is
            # between primitives and the simulator between events, so
            # reclamation cannot observe a half-applied transition.
            self._run_fossil_collection()
        proc: ProcessRuntime = task.env.context
        # Handler lookup doubles as the type check: only HOPE effects are
        # registered, so a miss means a foreign (or subclassed) effect.
        # (_handler_get is _LIVE_HANDLERS.get pre-bound at __init__ — this
        # runs once per live effect, and the class-attribute walk plus
        # method bind were measurable.)
        handler = self._handler_get(type(effect))
        if handler is None:
            raise HopeError(
                f"HOPE process {proc.name!r} yielded non-HOPE effect {effect!r}; "
                "use the HopeProcess facade (p.compute / p.recv / ...) so the "
                "effect log stays replayable"
            )
        # A restarted incarnation first replays its logged prefix.
        # (log.pending is `log.replaying` as a maintained counter: this
        # guard runs once per live effect and the index arithmetic, let
        # alone the property call, was measurable.)
        if proc.log.pending:
            effect = self._fast_forward(proc, task, effect)
            if effect is None:
                return  # the incarnation finished (or died) mid-replay
            handler = self._handler_get(type(effect))
        handler(self, proc, task, effect)

    def _fast_forward(self, proc: ProcessRuntime, task: Task, effect: Effect):
        """Replay fast-forward: feed a restarted incarnation its whole
        logged prefix in one loop, then return the first live effect.

        One simulator event covers the whole replay instead of a resume
        event per entry.  No virtual time passes during replay either
        way, and the replaying task interacts with nothing live, so
        collapsing the per-entry events is behaviour-preserving.  The
        loop (:meth:`EffectLog.fast_forward`) sends straight into the
        generator; the task's state is settled here, as ``Task._drive``
        would: done with its result when the body returns, killed, or
        failed with the error re-raised.  Returns None when the body
        ended mid-replay.
        """
        log = proc.log
        task._state = Task._RUNNING
        try:
            effect = log.fast_forward(task._gen, effect, log.cursor + log.pending)
        except Exception as exc:
            if task._exited(exc):
                raise
            return None
        task._state = Task._WAITING
        if self._handler_get(type(effect)) is None:
            raise HopeError(
                f"HOPE process {proc.name!r} yielded non-HOPE effect "
                f"{effect!r} during replay"
            )
        if log.pending:
            raise log.divergence(effect.kind)
        return effect

    # ---- live handlers -------------------------------------------------
    def _do_aid_init(self, proc, task, effect: AidInitEffect) -> None:
        aid = self.machine.aid_init(effect.name)
        handle = AidHandle(aid.key, effect.name)
        self._handles[aid.key] = handle
        if self._aid_owner is not None:
            self._aid_owner[aid.key] = proc.name
        if self.remote is not None:
            # Shard-local AID: the coordinator learns ownership so a dead
            # worker's unresolved assumptions can be detector-denied.
            self.remote.note_aid_init(aid.key, proc.name)
        proc.log.append("aid_init", handle)
        if self._tracing:
            self.tracer.record(self.sim.now, "aid_init", proc.name, aid=aid.key)
        task.resume_now(handle)

    def _do_guess(self, proc, task, effect: GuessEffect) -> None:
        aid = self._lookup_aid(effect.aid_key)
        if not self.speculation and aid.pending:
            # Pessimistic mode: wait for the resolution instead of
            # speculating.  The process stays definite throughout.
            proc.track.mark(Span.BLOCKED, self.sim.now)
            self._aid_waiters.setdefault(aid.key, []).append(
                (proc, task, proc.incarnation)
            )
            if self._tracing:
                self.tracer.record(
                    self.sim.now, "guess_wait", proc.name, aid=aid.key
                )
            return
        checkpoint = Checkpoint(len(proc.log), self.sim.now)
        value = self.machine.guess(proc.name, aid, ps=checkpoint)
        if value and aid.pending:
            # A real speculative interval was opened: this checkpoint is
            # now a possible rollback target, so park the shadow on it.
            self._note_checkpoint(proc, checkpoint)
            self.control.note_guess(proc.name, 1)
        proc.log.append("guess", value)
        if self._tracing:
            self.tracer.record(
                self.sim.now, "guess", proc.name, aid=aid.key, value=value
            )
        task.resume_now(value)

    def _do_resolution(self, proc, task, effect) -> None:
        """affirm / deny / free_of share the may-roll-back-self pattern."""
        if self._detector_denied and effect.aid_key in self._detector_denied:
            if isinstance(effect, AffirmEffect):
                # False-suspicion reconciliation: the detector already
                # issued a definite deny for this AID, and definite
                # resolutions are immutable (§5) — the process was fenced
                # out.  Its affirm becomes a traced no-op rather than a
                # resolution conflict; it re-reached this statement via
                # the deny's own rollback, on the pessimistic branch.
                if self.detector is not None:
                    self.detector.stats.reconciled_affirms += 1
                if self._tracing:
                    self.tracer.record(
                        self.sim.now, "reconcile_affirm", proc.name,
                        aid=effect.aid_key,
                    )
                proc.log.append(effect.kind, None)
                task.resume_now(None)
                return
            if isinstance(effect, DenyEffect):
                # Same direction as the detector's deny: duplicate
                # resolutions are no-ops in lenient mode, and harmless to
                # short-circuit in strict mode too.
                proc.log.append(effect.kind, None)
                if self._tracing:
                    self.tracer.record(
                        self.sim.now, effect.kind, proc.name,
                        aid=effect.aid_key, status="denied",
                    )
                task.resume_now(None)
                return
        aid = self._lookup_aid(effect.aid_key)
        before = proc.incarnation
        if isinstance(effect, AffirmEffect):
            self.control.issue("affirm", proc.name, aid)
        elif isinstance(effect, DenyEffect):
            self.control.issue("deny", proc.name, aid)
        else:
            self.control.issue("free_of", proc.name, aid)
        if self._tracing:
            self.tracer.record(
                self.sim.now, effect.kind, proc.name, aid=aid.key, status=aid.status.value
            )
        if proc.incarnation != before:
            # The primitive rolled back its own executor (e.g. a free_of
            # violation).  A restart is already scheduled; the statement's
            # log entry died in the truncation, so neither log nor resume.
            return
        proc.log.append(effect.kind, None)
        if self._durable is not None:
            self._durable.note_resolution(proc.name, proc.log.cursor - 1, aid.key)
        task.resume_now(None)

    def _do_send(self, proc, task, effect: SendEffect) -> None:
        current = proc.mproc.current
        ido = current.ido if current is not None else self._empty_ido
        tags = ido.tag_keys           # interned: O(1) after the first send
        if self.reliable is not None:
            msg_id, delivery = self.reliable.send(
                proc.name, effect.dst, effect.payload, tags
            )
        else:
            delivery = self.network.send(
                proc.name, effect.dst, effect.payload, tags=tags
            )
            msg_id = delivery.message.msg_id
        if current is not None:
            current.meta.setdefault("sent", []).append(delivery)
        # log.append inlined (hot path: one entry per send): the live-side
        # invariant is cursor == base + len(entries), so += 1 suffices.
        log = proc.log
        log.entries.append(_make_entry(("send", msg_id)))
        log.cursor += 1
        if self._durable is not None:
            self._durable.note_send(
                proc.name, log.cursor - 1, msg_id, effect.dst, effect.payload, tags
            )
        if self._tracing:
            self.tracer.record(
                self.sim.now, "send", proc.name, dst=effect.dst, tags=len(tags)
            )
        task.resume_now(msg_id)

    def _do_recv(self, proc, task, effect: RecvEffect) -> None:
        bridge = proc.bridge
        if bridge is None or bridge.incarnation != proc.incarnation:
            proc.bridge = bridge = _RecvBridge(self, proc, effect)
        else:
            # One recv is outstanding at a time, so the incarnation's
            # bridge is reusable — only the effect (predicate/timeout)
            # changes between recvs.
            bridge.effect = effect
        task._cleanups.append(bridge.on_kill)
        track = proc.track
        open_span = track._open
        if open_span is None or open_span.kind != Span.BLOCKED:
            # Inlined mark() early-return: in steady-state message loops
            # the track is already BLOCKED and the call was pure overhead.
            track.mark(Span.BLOCKED, self.sim._now)
        # Inside the dispatch trampoline: a synchronous delivery (message
        # already queued) completes the effect via resume_now, so a
        # process draining a same-tick backlog re-enters the trampoline,
        # DepSet propagation, and obs hooks once per (process, tick)
        # instead of once per message.
        bridge.sync = True
        try:
            if effect.timeout is None:
                # Timer-less recv (the hot path): re-register the bridge's
                # reusable waiter instead of allocating one per message.
                waiter = bridge.waiter
                waiter.predicate = effect.predicate
                proc.mailbox.register_waiter(waiter)
            else:
                proc.mailbox.register_receiver(
                    bridge, effect.timeout, effect.predicate
                )
        finally:
            bridge.sync = False

    def _register_bridge(self, bridge: _RecvBridge) -> None:
        effect = bridge.effect
        if effect.timeout is None:
            waiter = bridge.waiter
            waiter.predicate = effect.predicate
            bridge.proc.mailbox.register_waiter(waiter)
        else:
            bridge.proc.mailbox.register_receiver(
                bridge, effect.timeout, effect.predicate
            )

    def _do_compute(self, proc, task, effect: ComputeEffect) -> None:
        proc.track.mark(Span.BUSY, self.sim.now)
        task._pending = self.sim.schedule(
            effect.duration,
            self._finish_compute,
            proc,
            task,
            label=f"compute:{proc.name}",
        )

    def _finish_compute(self, proc: ProcessRuntime, task: Task) -> None:
        proc.track.mark(Span.BLOCKED, self.sim.now)
        proc.log.append("compute", None)
        task.resume_inline(None)

    def _do_now(self, proc, task, effect: NowEffect) -> None:
        value = self.sim.now
        proc.log.append("now", value)
        task.resume_now(value)

    def _do_random(self, proc, task, effect: RandomEffect) -> None:
        value = self.streams[f"proc:{proc.name}"].random()
        proc.log.append("random", value)
        task.resume_now(value)

    def _do_emit(self, proc, task, effect: EmitEffect) -> None:
        current = proc.mproc.current
        record = OutputRecord(effect.value, len(proc.log), current, self.sim.now)
        proc.outputs.append(record)
        proc.log.append("emit", None)
        if self._tracing:
            self.tracer.record(
                self.sim.now,
                "emit",
                proc.name,
                value=repr(effect.value),
                speculative=current is not None,
            )
        task.resume_now(None)

    #: Rebase candidates per process are thinned once they exceed this
    #: (every other one dropped, oldest and newest kept) so a stalled
    #: frontier cannot make the candidate list itself unbounded.
    _MAX_REBASE_CANDIDATES = 32

    def _do_commit_point(self, proc, task, effect: CommitPointEffect) -> None:
        proc.log.append("commit", None)
        if self.fossil_collect:
            # Candidate position = log length *after* the commit entry: a
            # body resumed from this state next yields the effect that
            # follows the commit_point, i.e. the entry at that position.
            state = copy.deepcopy(effect.state)
            proc.rebase_candidates.append(
                RebasePoint(len(proc.log), state, self.sim.now)
            )
            if len(proc.rebase_candidates) > self._MAX_REBASE_CANDIDATES:
                del proc.rebase_candidates[1::2]
        if self._tracing:
            self.tracer.record(self.sim.now, "commit_point", proc.name)
        task.resume_now(None)

    def _do_spawn(self, proc, task, effect: SpawnEffect) -> None:
        if proc.mproc.current is not None:
            raise SpeculativeSpawnError(
                f"{proc.name!r} tried to spawn {effect.name!r} while speculative"
            )
        if self._durable is not None:
            # Replay never re-invokes handlers, so a committed spawn entry
            # could not recreate its child at resume; durable runs must
            # build their whole tree up front.
            raise HopeError(
                "dynamic p.spawn is not supported on a durable run — spawn "
                "every process from build() (see docs/DURABILITY.md)"
            )
        self.spawn(effect.name, effect.fn, *effect.args)
        proc.log.append("spawn", effect.name)
        task.resume_now(effect.name)

    def _lookup_aid(self, key: str) -> AssumptionId:
        """Resolve an AID key for a primitive.

        Standalone systems hit the machine directly (unknown keys raise,
        as ever).  A parallel worker falls back to the remote bridge: a
        key minted on another shard — whose handle arrived inside a
        message payload — is adopted as a pending mirror, to be resolved
        by relayed definite affirms/denies from its owner.
        """
        if self.remote is not None:
            return self.remote.lookup_aid(key)
        return self.machine.aid(key)

    _LIVE_HANDLERS = {
        AidInitEffect: _do_aid_init,
        GuessEffect: _do_guess,
        AffirmEffect: _do_resolution,
        DenyEffect: _do_resolution,
        FreeOfEffect: _do_resolution,
        SendEffect: _do_send,
        RecvEffect: _do_recv,
        ComputeEffect: _do_compute,
        NowEffect: _do_now,
        RandomEffect: _do_random,
        EmitEffect: _do_emit,
        CommitPointEffect: _do_commit_point,
        SpawnEffect: _do_spawn,
    }

    # ------------------------------------------------------------------
    # outputs (output-commit discipline)
    # ------------------------------------------------------------------
    def outputs(self, name: str) -> list[Any]:
        """All currently standing outputs of ``name`` (speculative included)."""
        return [record.value for record in self.procs[name].outputs]

    def committed_outputs(self, name: str) -> list[Any]:
        """Outputs that no live speculation can withdraw anymore."""
        return [r.value for r in self.procs[name].outputs if r.committed]

    # ------------------------------------------------------------------
    # message delivery (via bridges)
    # ------------------------------------------------------------------
    def _deliver(
        self,
        proc: ProcessRuntime,
        effect: RecvEffect,
        value: Any,
        bridge: _RecvBridge,
    ) -> None:
        if self._fossil_pending:
            self._run_fossil_collection()
        if proc.incarnation != bridge.incarnation:
            return  # stale delivery aimed at a rolled-back incarnation
        task = proc.task
        if value is TIMED_OUT:
            proc.log.append("recv", TIMED_OUT)
            if self._tracing:
                self.tracer.record(self.sim.now, "recv_timeout", proc.name)
            task.clear_cleanups()
            task.resume_inline(TIMED_OUT)
            return
        message: Message = value
        if message.dead:
            self._register_bridge(bridge)
            return
        if message.tags:
            live, deps = self._resolve_message_tags(message)
            if not live:
                if self._tracing:
                    self.tracer.record(
                        self.sim.now, "drop_dead_message", proc.name, msg=message.msg_id
                    )
                self._register_bridge(bridge)
                return
            if deps:
                checkpoint = Checkpoint(len(proc.log), self.sim.now)
                interval = self.machine.guess_many(proc.name, deps, ps=checkpoint)
                if interval is not None:
                    self._note_checkpoint(proc, checkpoint)
                    self.control.note_guess(proc.name, len(deps))
                    if self._tracing:
                        self.tracer.record(
                            self.sim.now,
                            "implicit_guess",
                            proc.name,
                            aids=tuple(sorted(a.key for a in deps)),
                        )
        # tuple.__new__ pre-bound to the class — skips the generated
        # namedtuple __new__ frame (one allocation per delivered message).
        received = _new_received((message.payload, message.src, message.msg_id))
        current = proc.mproc.current
        if current is not None:
            current.meta.setdefault("received", []).append(message)
        # log.append inlined, as in _do_send (one entry per delivery).
        log = proc.log
        log.entries.append(_make_entry(("recv", received)))
        log.cursor += 1
        if self._tracing:
            self.tracer.record(
                self.sim.now, "recv", proc.name, src=message.src, msg=message.msg_id
            )
        task._cleanups.clear()
        if bridge.sync:
            # Registration found the message already queued: the dispatch
            # trampoline is on the stack, so complete the recv flat.
            task.resume_now(received)
        elif self._defer_delivery:
            # Mid-rollback requeue: the machine is not quiescent, so keep
            # the pre-batching scheduled resume for this delivery.
            task.resume(received)
        else:
            # Delivery/timer event context: step the generator directly
            # instead of burning a resume event per message
            # (resume_inline, flattened — this runs once per delivery).
            task._pending = None
            follow = task._drive(received, False)
            if follow is not None:
                task.dispatch(follow)

    def _resolve_message_tags(self, message: Message):
        return self.machine.resolve_tag_keys(message.tags)

    # ------------------------------------------------------------------
    # rollback propagation
    # ------------------------------------------------------------------
    def _on_machine_event(self, event: MachineEvent) -> None:
        if isinstance(event, RollbackEvent):
            self._apply_rollback(event)
        elif isinstance(event, FinalizeEvent):
            if self._tracing:
                interval = event.interval
                self.tracer.record(
                    self.sim.now,
                    "finalize",
                    event.pid,
                    interval=interval.label,
                    aid=interval.aid.key if interval.aid is not None else None,
                )
            if self.fossil_collect:
                # Finalize is what advances the commit frontier (Eq 21), so
                # it is the natural collection trigger — but the machine is
                # mid-primitive here, so only raise the deferred flag.
                self._finalizes_since_collect += 1
                if self._finalizes_since_collect >= self.fossil_interval:
                    self._fossil_pending = True
        if self._aid_waiters:
            self._wake_aid_waiters()

    def _observe_machine_event(self, event: MachineEvent) -> None:
        """Second machine listener, subscribed only when metered: folds
        every event into the instrument set and the span collector.
        Purely reads — it must never schedule, trace, or mutate machine
        state, so metered and unmetered runs stay byte-identical."""
        now = self.sim.now
        self.spec_metrics.observe_event(event, now)
        self.spans.observe(event, now)

    def _wake_aid_waiters(self) -> None:
        """Resume pessimistic-mode guessers whose AIDs have resolved."""
        for key in list(self._aid_waiters):
            aid = self.machine.aids.get(key)
            if aid is None or aid.pending:
                continue
            waiters = self._aid_waiters.pop(key)
            for proc, task, incarnation in waiters:
                if proc.incarnation != incarnation or not task.alive:
                    continue
                value = self.machine.guess(proc.name, aid)  # guess_skip path
                proc.log.append("guess", value)
                if self._tracing:
                    self.tracer.record(
                        self.sim.now, "guess", proc.name, aid=aid.key, value=value
                    )
                task.resume(value)

    def _apply_rollback(self, event: RollbackEvent) -> None:
        proc = self.procs.get(event.pid)
        if proc is None:
            # A process known to the machine but not the runtime (pure
            # machine users, e.g. the oracle) — bookkeeping only.
            return
        checkpoint: Checkpoint = event.resume_interval.ps
        redeliver: list[Message] = []
        for dead in event.discarded:
            for delivery in dead.meta.get("sent", ()):
                delivery.retract()
            for message in dead.meta.get("received", ()):
                if not message.dead:
                    redeliver.append(message)
        self.tracer.record(
            self.sim.now,
            "rollback",
            proc.name,
            to_log_index=checkpoint.log_index,
            discarded=len(event.discarded),
            cause=event.cause.key if event.cause is not None else None,
        )
        # Kill the current incarnation first so redelivered messages do not
        # reach its (now invalid) receive bridge.
        proc.incarnation += 1
        if proc.task is not None and proc.task.alive:
            proc.task.kill("rollback")
        proc.done = False
        proc.log.truncate(checkpoint.log_index)
        if self._durable is not None:
            self._durable.on_rollback(proc.name, checkpoint.log_index)
        if proc.rebase_candidates:
            # Candidates past the truncation point captured state from the
            # discarded execution; one exactly at it is still valid (its
            # state reflects only the surviving prefix).
            proc.rebase_candidates = [
                c for c in proc.rebase_candidates if c.log_index <= checkpoint.log_index
            ]
        # Withdraw speculative outputs produced after the checkpoint
        # (the output-commit discipline: uncommitted outputs die with the
        # speculation that produced them).  Past the outputs kept from
        # before a crash the list is ordered by log_index — emits append
        # in log order and a rollback keeps a prefix — so the withdrawn
        # outputs are a suffix.
        outputs = proc.outputs
        del outputs[
            bisect_left(
                outputs, checkpoint.log_index, proc.outputs_kept, key=_log_index
            ):
        ]
        wasted = proc.track.reclassify_since(
            checkpoint.time, Span.WASTED, self.sim.now
        )
        if redeliver:
            redeliver.sort(key=lambda m: (m.deliver_time, m.msg_id))
            prev = self._defer_delivery
            self._defer_delivery = True
            try:
                self.network.mailbox(proc.name).requeue_front(redeliver)
            finally:
                self._defer_delivery = prev
        proc.restarts += 1
        delay = self.rollback_overhead + self.control.notify_delay()
        promoted = self._try_promote_shadow(proc, checkpoint.log_index, delay)
        if not promoted:
            self._start_task(proc, delay)
        if self._metered:
            spec = self.spec_metrics
            spec.restarts.inc()
            spec.wasted_time.inc(wasted)
            spec.replay_entries.inc(0 if promoted else len(proc.log))
        self.tracer.record(
            self.sim.now,
            "restart",
            proc.name,
            replay=0 if promoted else len(proc.log),
            wasted=round(wasted, 6),
        )
