"""The user-facing HOPE API: the process facade and AID handles.

A HOPE process body is a generator function ``def body(p, *args)`` whose
``p`` is a :class:`HopeProcess`.  Every interaction with the world is a
``yield`` of one of ``p``'s effect constructors::

    def worker(p):
        x = yield p.aid_init("page-not-full")
        yield p.send("worrywart", ("check", x))
        if (yield p.guess(x)):
            yield p.compute(2.0)        # optimistic path
        else:
            yield p.compute(8.0)        # pessimistic path (after rollback)

Idiomatically — exactly as §3 prescribes — ``guess`` sits in an ``if``:
the True branch is the optimistic algorithm, the False branch the
pessimistic one, and the runtime re-executes from the ``guess`` with
False when the assumption is denied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from .effects import (
    AffirmEffect,
    AidInitEffect,
    CommitPointEffect,
    ComputeEffect,
    DenyEffect,
    EmitEffect,
    FreeOfEffect,
    GuessEffect,
    NowEffect,
    RandomEffect,
    RecvEffect,
    SendEffect,
    SpawnEffect,
)
from .messages import ReceivedMessage, RpcReply, RpcRequest


@dataclass(frozen=True)
class AidHandle:
    """A user-space reference to an assumption identifier.

    Handles are plain immutable values: they can be stored, compared, and
    sent inside message payloads to other processes (which is how Figure 2
    hands ``PartPage`` and ``Order`` to the WorryWart).
    """

    key: str
    name: str

    # Handles are immutable values, so copying them as identity is
    # semantically free — and load-bearing for fossil collection: the
    # engine pins an AID against retirement while *this object* is
    # reachable (weak-value handle table), and commit-point states are
    # deep-copied.  A copy that produced a fresh object would silently
    # drop the pin when the original died.
    def __copy__(self) -> "AidHandle":
        return self

    def __deepcopy__(self, memo) -> "AidHandle":
        return self

    def __repr__(self) -> str:
        return f"AID<{self.key}>"


AidRef = Union[AidHandle, str]


def aid_key(ref: AidRef) -> str:
    """Accept an :class:`AidHandle` or a raw key string."""
    if isinstance(ref, AidHandle):
        return ref.key
    return ref


class HopeProcess:
    """Effect-constructor facade handed to every HOPE process body.

    Thin by design: each method builds an effect for the engine; no state
    lives here except identity, so user code cannot accidentally bypass
    the effect log.

    The hot constructors build their effect via ``object.__new__`` plus
    slot stores rather than the effect class's constructor: a body
    allocates one effect per yield, again on every replayed yield, and
    skipping the ``__init__`` frame is measurable there.  The stores and
    checks must match the classes' ``__init__`` (``compute`` keeps its
    negative-duration check).
    """

    def __init__(self, name: str) -> None:
        self.name = name

    # ------------------------------------------------------------------
    # the five HOPE primitives (§3)
    # ------------------------------------------------------------------
    def aid_init(self, name: str = "aid") -> AidInitEffect:
        """Create an assumption identifier; resumes with an :class:`AidHandle`."""
        effect = _new_effect(AidInitEffect)
        effect.name = name
        return effect

    def guess(self, aid: AidRef) -> GuessEffect:
        """Make the optimistic assumption ``aid``; resumes with True, or
        False when re-executed after the assumption is denied."""
        effect = _new_effect(GuessEffect)
        effect.aid_key = aid.key if type(aid) is AidHandle else aid_key(aid)
        return effect

    def affirm(self, aid: AidRef) -> AffirmEffect:
        """Assert the assumption identified by ``aid`` is true."""
        effect = _new_effect(AffirmEffect)
        effect.aid_key = aid.key if type(aid) is AidHandle else aid_key(aid)
        return effect

    def deny(self, aid: AidRef) -> DenyEffect:
        """Assert the assumption identified by ``aid`` is false."""
        effect = _new_effect(DenyEffect)
        effect.aid_key = aid.key if type(aid) is AidHandle else aid_key(aid)
        return effect

    def free_of(self, aid: AidRef) -> FreeOfEffect:
        """Assert this computation is (and will stay) causally free of ``aid``."""
        return FreeOfEffect(aid_key(aid))

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    def send(self, dst: str, payload: Any) -> SendEffect:
        """Asynchronously send ``payload``; automatically tagged with the
        sender's current assumption dependencies (§7)."""
        effect = _new_effect(SendEffect)
        effect.dst = dst
        effect.payload = payload
        return effect

    def recv(
        self,
        timeout: Optional[float] = None,
        predicate: Optional[Callable[[Any], bool]] = None,
    ) -> RecvEffect:
        """Receive the next message; resumes with a :class:`ReceivedMessage`
        (or :data:`repro.sim.TIMED_OUT`).  Tagged messages first apply the
        implicit guesses of §3."""
        if timeout is None and predicate is None:
            return _RECV_ANY  # immutable: the common case shares one object
        return RecvEffect(timeout, predicate)

    def reply(self, request: ReceivedMessage, body: Any) -> SendEffect:
        """Answer an :class:`RpcRequest` carried by ``request``."""
        payload = request.payload
        if not isinstance(payload, RpcRequest):
            raise TypeError(f"reply() needs an RpcRequest payload, got {payload!r}")
        return SendEffect(payload.reply_to, RpcReply(body, payload.corr))

    # ------------------------------------------------------------------
    # local computation & environment
    # ------------------------------------------------------------------
    def compute(self, duration: float) -> ComputeEffect:
        """Model ``duration`` time units of local CPU work."""
        if duration < 0:
            raise ValueError(f"compute duration must be >= 0, got {duration}")
        effect = _new_effect(ComputeEffect)
        effect.duration = duration
        return effect

    def now(self) -> NowEffect:
        """Read the virtual clock (replay-safe)."""
        return _NOW

    def random(self) -> RandomEffect:
        """Uniform float in [0,1) from this process's stream (replay-safe)."""
        return _RANDOM

    def emit(self, value: Any) -> EmitEffect:
        """Produce an output value under the output-commit discipline:
        withdrawn on rollback, committed once all assumptions resolve.
        Read results with :meth:`HopeSystem.outputs` /
        :meth:`HopeSystem.committed_outputs`."""
        effect = _new_effect(EmitEffect)
        effect.value = value
        return effect

    def spawn(self, name: str, fn: Callable, *args: Any) -> SpawnEffect:
        """Start another HOPE process; resumes with its name."""
        return SpawnEffect(name, fn, *args)

    def commit_point(self, state: Any) -> CommitPointEffect:
        """Declare that ``state`` fully captures this process here.

        The engine deep-copies ``state`` and, once the commit frontier
        passes this point (all guesses taken before it are finalized),
        fossil-collects the effect-log prefix behind it: future restarts
        call the body with ``resume=<copy of state>`` instead of
        replaying from program entry, so long-running processes stop
        accumulating journal entries.

        Contract — the body must support resumption::

            def worker(p, resume=None):
                state = resume if resume is not None else make_initial_state()
                if resume is None:
                    ... one-time setup effects ...
                while True:
                    ... one round of work mutating state ...
                    yield p.commit_point(state)

        Everything the body carries across the commit point must live in
        ``state`` (locals not derivable from it are lost on a rebased
        restart), and ``state`` must be deep-copyable.  A no-op when the
        system runs without ``fossil_collect=True`` (the effect is still
        logged, so traces match between modes).  Resumes with ``None``.
        """
        return CommitPointEffect(state)

    def __repr__(self) -> str:
        return f"HopeProcess({self.name!r})"


#: Shared instances for the stateless effects (they are immutable and
#: handlers only read them, so one object serves every yield — the
#: allocation per message round-trip was measurable in TRACK).
_RECV_ANY = RecvEffect(None, None)
_new_effect = object.__new__
_NOW = NowEffect()
_RANDOM = RandomEffect()


def call(p: HopeProcess, dst: str, body: Any, corr: int):
    """Sub-generator implementing a synchronous RPC (Figure 1's semantics).

    Usage::

        reply = yield from call(p, "printer", ("print", text), corr)

    ``corr`` must be unique per outstanding request within the caller —
    the :class:`CorrelationCounter` below provides replay-safe ids.
    """
    yield p.send(dst, RpcRequest(body, p.name, corr))
    message = yield p.recv(
        predicate=lambda m: isinstance(m.payload, RpcReply) and m.payload.corr == corr
    )
    return message.payload.body


class CorrelationCounter:
    """Replay-safe correlation ids.

    Because process bodies re-execute deterministically during replay, a
    plain local counter inside the body reproduces the same ids — this
    helper just makes the idiom explicit.
    """

    def __init__(self) -> None:
        self._next = 0

    def next(self) -> int:
        value = self._next
        self._next += 1
        return value
