"""Simulated processes: generator coroutines driven by a trampoline.

A *task* is a Python generator that ``yield``\\ s :class:`Effect` objects;
the trampoline performs each effect against the simulator and resumes the
generator with the effect's result.  This is the classic effects-as-data
pattern: because the process never touches the event loop directly, an
outer layer (the HOPE runtime) can interpose on every effect — which is
exactly how replay-based rollback is implemented in
:mod:`repro.runtime.replay`.

Example::

    def ping(env: TaskEnv):
        yield Timeout(1.0)
        print("at t=1", env.now)

    sim = Simulator()
    Task(sim, "ping", ping).start()
    sim.run()
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from .kernel import ScheduledEvent, SimulationError, Simulator


class Effect:
    """Base class for everything a task may ``yield``."""

    __slots__ = ()


class Timeout(Effect):
    """Suspend the task for ``delay`` virtual time units.

    Tasks use this both for modelled *compute* (the paper's local work
    between RPCs) and for modelled *waiting*.
    """

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"Timeout delay must be >= 0, got {delay}")
        self.delay = delay

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class Recv(Effect):
    """Block until a message is available in ``mailbox``.

    Resumes with the message, or with :data:`TIMED_OUT` if ``timeout``
    elapses first.  ``predicate`` restricts receipt to matching messages
    (used for RPC reply matching); non-matching messages stay queued.
    """

    __slots__ = ("mailbox", "timeout", "predicate")

    def __init__(
        self,
        mailbox: Any,
        timeout: Optional[float] = None,
        predicate: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self.mailbox = mailbox
        self.timeout = timeout
        self.predicate = predicate

    def __repr__(self) -> str:
        return f"Recv({self.mailbox!r}, timeout={self.timeout!r})"


class GetTime(Effect):
    """Resume immediately with the current virtual time."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "GetTime()"


class Fork(Effect):
    """Spawn a child task; resumes with the new :class:`Task`."""

    __slots__ = ("name", "fn", "args")

    def __init__(self, name: str, fn: Callable[..., Generator], *args: Any) -> None:
        self.name = name
        self.fn = fn
        self.args = args

    def __repr__(self) -> str:
        return f"Fork({self.name!r})"


class Halt(Effect):
    """Terminate the task immediately (like returning from the generator)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Halt()"


class _TimedOut:
    """Singleton sentinel returned by a :class:`Recv` whose timeout fired."""

    _instance: Optional["_TimedOut"] = None

    def __new__(cls) -> "_TimedOut":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TIMED_OUT"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):
        # Pickle resolves the string to this module's attribute, so a
        # round-tripped sentinel (e.g. a durable log entry) keeps its
        # ``is TIMED_OUT`` identity instead of minting a second instance.
        return "TIMED_OUT"


TIMED_OUT = _TimedOut()


class TaskKilled(Exception):
    """Thrown into a generator when its task is killed (crash or rollback)."""


class UnknownEffectError(SimulationError):
    """The effect handler does not know how to perform a yielded effect."""


class TaskEnv:
    """The view of the world handed to a task function.

    Carries the task's identity, the simulator clock, and an arbitrary
    ``context`` slot that higher layers (the HOPE runtime, the baselines)
    use to expose their own API to the process body.
    """

    __slots__ = ("task", "context")

    def __init__(self, task: "Task", context: Any = None) -> None:
        self.task = task
        self.context = context

    @property
    def now(self) -> float:
        return self.task.sim.now

    @property
    def name(self) -> str:
        return self.task.name


class Task:
    """A generator coroutine scheduled on a :class:`Simulator`.

    ``handler(task, effect)`` performs one yielded effect and must arrange
    for ``task.resume(value)`` (or ``task.throw(exc)``) to be called
    exactly once.  When ``handler`` is None the default sim-level handler
    is used.  The HOPE runtime passes its own handler to interpose logging
    and tagging on every effect.
    """

    __slots__ = (
        "sim", "name", "fn", "args", "env", "handler", "on_exit", "result",
        "error", "_gen", "_state", "_pending", "_cleanups", "_has_inline",
        "_inline_value", "_resume_label", "_throw_label",
    )

    _FRESH = "fresh"
    _RUNNING = "running"
    _WAITING = "waiting"
    _DONE = "done"
    _KILLED = "killed"
    _FAILED = "failed"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        fn: Callable[..., Generator],
        *args: Any,
        handler: Optional[Callable[["Task", Effect], None]] = None,
        on_exit: Optional[Callable[["Task"], None]] = None,
        context: Any = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.fn = fn
        self.args = args
        self.env = TaskEnv(self, context)
        self.handler = handler or default_effect_handler
        self.on_exit = on_exit
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._gen: Optional[Generator] = None
        self._state = Task._FRESH
        self._pending: Optional[ScheduledEvent] = None
        self._cleanups: list[Callable[[], None]] = []
        self._has_inline = False
        self._inline_value: Any = None
        #: Debug labels for the per-resume events, formatted once — an
        #: f-string per resume/throw was measurable on the resume path.
        self._resume_label = "resume:" + name
        self._throw_label = "throw:" + name

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, delay: float = 0.0) -> "Task":
        """Schedule the first step of the task ``delay`` from now."""
        if self._state != Task._FRESH:
            raise SimulationError(f"task {self.name!r} already started")
        self._gen = self.fn(self.env, *self.args)
        self._state = Task._WAITING
        self._pending = self.sim.schedule(delay, self._step, None, False, label=f"start:{self.name}")
        return self

    def start_adopted(
        self,
        gen: Generator,
        delay: float,
        kickoff: Callable[["Task"], None],
    ) -> "Task":
        """Start from an already-advanced generator instead of a fresh one.

        Used to promote a replay shadow (see
        :class:`repro.runtime.replay.ShadowCheckpoint`): ``gen`` is
        suspended at a yield whose effect the caller already holds, so no
        first ``send(None)`` happens — ``kickoff(task)`` runs after
        ``delay`` and must dispatch that held effect (after which the
        task behaves exactly like one that replayed its way here).
        """
        if self._state != Task._FRESH:
            raise SimulationError(f"task {self.name!r} already started")
        self._gen = gen
        self._state = Task._WAITING
        self._pending = self.sim.schedule(
            delay, self._run_kickoff, kickoff, label=f"adopt:{self.name}"
        )
        return self

    def _run_kickoff(self, kickoff: Callable[["Task"], None]) -> None:
        self._pending = None
        kickoff(self)

    @property
    def state(self) -> str:
        return self._state

    @property
    def alive(self) -> bool:
        return self._state in (Task._FRESH, Task._RUNNING, Task._WAITING)

    @property
    def done(self) -> bool:
        return self._state == Task._DONE

    @property
    def failed(self) -> bool:
        return self._state == Task._FAILED

    def resume(self, value: Any = None) -> None:
        """Resume the generator with ``value`` as the result of its yield.

        Scheduled at the current time rather than run inline, so effect
        handlers never re-enter the generator from within its own yield.
        """
        self._expect_waiting("resume")
        self._pending = self.sim.call_soon(self._step, value, False, label=self._resume_label)

    def throw(self, exc: BaseException) -> None:
        """Resume the generator by raising ``exc`` at its yield point."""
        self._expect_waiting("throw")
        self._pending = self.sim.call_soon(self._step, exc, True, label=self._throw_label)

    def resume_inline(self, value: Any = None) -> None:
        """Resume immediately, from within this task's own pending callback.

        For effect handlers that scheduled their completion via
        ``sim.schedule(..., cb)`` and registered that event as the task's
        pending resume: the callback calls ``resume_inline`` instead of
        :meth:`resume` (which would see a stale pending event and refuse).
        """
        self._pending = None
        # _step inlined: this runs once per batched delivery.
        effect = self._drive(value, False)
        if effect is not None:
            self.dispatch(effect)

    def resume_now(self, value: Any = None) -> None:
        """Complete the current effect synchronously, from *inside* its
        handler call: the :meth:`_step` trampoline continues the generator
        in the same stack frame instead of scheduling a zero-delay event.

        This is for effects whose result is available immediately (a send
        returning its message id, a clock read, ...) — the per-effect
        simulator event was pure heap churn.  Only valid while the
        handler invoked by ``_step`` is on the stack; handlers whose
        completion arrives later (timeouts, message delivery) must keep
        using :meth:`resume`.
        """
        # Inlined _expect_waiting (this runs once per synchronous effect;
        # the extra frame was measurable): the slow path only re-runs the
        # checks to raise the standard error.
        if self._state != Task._WAITING or self._pending is not None:
            self._expect_waiting("resume_now")
        self._has_inline = True
        self._inline_value = value

    def kill(self, reason: str = "") -> None:
        """Terminate the task: cancel pending resumes and close the generator.

        Used for crash injection and for discarding a rolled-back
        incarnation of a HOPE process.  Registered cleanups run (e.g. the
        task is removed from mailbox wait lists).
        """
        if not self.alive:
            return
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._run_cleanups()
        self._state = Task._KILLED
        if self._gen is not None:
            try:
                self._gen.throw(TaskKilled(reason or f"task {self.name!r} killed"))
            except (TaskKilled, StopIteration):
                pass
            except Exception:
                # A task that swallows TaskKilled and raises during unwind
                # is already dead; its cleanup error must not cascade.
                pass
            finally:
                self._gen.close()
        if self.on_exit is not None:
            self.on_exit(self)

    def add_cleanup(self, fn: Callable[[], None]) -> None:
        """Register a callback to run when the task is killed while waiting."""
        self._cleanups.append(fn)

    def clear_cleanups(self) -> None:
        self._cleanups.clear()

    # ------------------------------------------------------------------
    # trampoline
    # ------------------------------------------------------------------
    def _step(self, value: Any, is_throw: bool) -> None:
        effect = self._drive(value, is_throw)
        if effect is not None:
            self.dispatch(effect)

    def dispatch(self, effect: Effect) -> None:
        """Hand an effect to the handler, running the resume_now trampoline.

        When the handler completes the effect synchronously via
        :meth:`resume_now`, the generator is driven again in this same
        frame — unbounded same-time effect chains (e.g. a loop of sends)
        stay flat instead of recursing or burning one simulator event
        each.
        """
        handler = self.handler  # loop-invariant for the life of the task
        while True:
            handler(self, effect)
            if not self._has_inline:
                return
            self._has_inline = False
            value, self._inline_value = self._inline_value, None
            if self._state != Task._WAITING:
                return  # killed/finished from within the handler
            effect = self._drive(value, False)
            if effect is None:
                return

    def _drive(self, value: Any, is_throw: bool) -> Optional[Effect]:
        self._pending = None
        if self._cleanups:
            self._run_cleanups()
        self._state = Task._RUNNING
        try:
            if is_throw:
                effect = self._gen.throw(value)
            else:
                effect = self._gen.send(value)
        except Exception as exc:
            if self._exited(exc):
                raise
            return None
        self._state = Task._WAITING
        return effect

    def _exited(self, exc: Exception) -> bool:
        """Settle the task after its generator raised ``exc`` instead of
        yielding: StopIteration finishes it with the return value,
        TaskKilled kills it, anything else fails it (``error`` keeps the
        exception).  Runs ``on_exit``; returns True for a failure, which
        the caller re-raises.  Also used by the HOPE engine's replay loop,
        which drives the generator without going through :meth:`_drive`.
        """
        failed = False
        if isinstance(exc, StopIteration):
            self._state = Task._DONE
            self.result = exc.value
        elif isinstance(exc, TaskKilled):
            self._state = Task._KILLED
        else:
            self._state = Task._FAILED
            self.error = exc
            failed = True
        if self.on_exit is not None:
            self.on_exit(self)
        return failed

    def _run_cleanups(self) -> None:
        cleanups, self._cleanups = self._cleanups, []
        for fn in cleanups:
            fn()

    def _expect_waiting(self, op: str) -> None:
        if self._state != Task._WAITING:
            raise SimulationError(f"cannot {op} task {self.name!r} in state {self._state!r}")
        if self._pending is not None:
            raise SimulationError(f"task {self.name!r} already has a pending resume")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.name!r} {self._state}>"


def default_effect_handler(task: Task, effect: Effect) -> None:
    """Perform one sim-level effect.  See module docstring for the contract."""
    if isinstance(effect, Timeout):
        task._pending = task.sim.schedule(
            effect.delay, task._step, None, False, label=f"timeout:{task.name}"
        )
    elif isinstance(effect, Recv):
        effect.mailbox.register_receiver(task, effect.timeout, effect.predicate)
    elif isinstance(effect, GetTime):
        task.resume(task.sim.now)
    elif isinstance(effect, Fork):
        child = Task(task.sim, effect.name, effect.fn, *effect.args, handler=task.handler)
        child.start()
        task.resume(child)
    elif isinstance(effect, Halt):
        task._state = Task._DONE
        if task._gen is not None:
            task._gen.close()
        if task.on_exit is not None:
            task.on_exit(task)
    else:
        raise UnknownEffectError(f"task {task.name!r} yielded unknown effect {effect!r}")
