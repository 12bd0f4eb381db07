"""The ``HopeProcess`` facade builds the same effects as the effect classes.

Several facade methods skip the effect class's ``__init__`` (object.__new__
plus slot stores) because one effect is allocated per yield, and again on
every replayed yield.  Each must still hand the engine an effect of the
same type, kind, fields and repr as the class's own constructor.
"""

import pytest

from repro.runtime.api import AidHandle, HopeProcess
from repro.runtime.effects import (
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
from repro.runtime.messages import ReceivedMessage, RpcRequest

HANDLE = AidHandle("x#1", "x")


def _body(p):
    yield p.now()


def _fields(effect):
    slots = [name for cls in type(effect).__mro__ for name in getattr(cls, "__slots__", ())]
    return {name: getattr(effect, name) for name in slots}


CASES = [
    ("aid_init", ("page",), AidInitEffect("page")),
    ("aid_init", (), AidInitEffect("aid")),
    ("guess", (HANDLE,), GuessEffect("x#1")),
    ("affirm", (HANDLE,), AffirmEffect("x#1")),
    ("deny", (HANDLE,), DenyEffect("x#1")),
    ("free_of", (HANDLE,), FreeOfEffect("x#1")),
    ("send", ("dst", ("m", 1)), SendEffect("dst", ("m", 1))),
    ("recv", (), RecvEffect(None, None)),
    ("recv", (3.0,), RecvEffect(3.0, None)),
    ("compute", (2.5,), ComputeEffect(2.5)),
    ("compute", (0,), ComputeEffect(0)),
    ("now", (), NowEffect()),
    ("random", (), RandomEffect()),
    ("emit", (("out", 7),), EmitEffect(("out", 7))),
    ("spawn", ("child", _body, 1, 2), SpawnEffect("child", _body, 1, 2)),
    ("commit_point", ({"round": 3},), CommitPointEffect({"round": 3})),
]


@pytest.mark.parametrize(
    "method, args, expected", CASES, ids=[f"{m}{len(a)}" for m, a, _ in CASES]
)
def test_facade_builds_the_constructor_effect(method, args, expected):
    effect = getattr(HopeProcess("w"), method)(*args)
    assert type(effect) is type(expected)
    assert effect.kind == expected.kind
    assert _fields(effect) == _fields(expected)
    assert repr(effect) == repr(expected)


def test_reply_builds_a_send():
    request = ReceivedMessage(RpcRequest("body", "client", 4), "client", 1)
    effect = HopeProcess("server").reply(request, "answer")
    assert type(effect) is SendEffect
    assert effect.dst == "client"
    assert effect.payload.body == "answer" and effect.payload.corr == 4


def test_negative_compute_still_raises():
    with pytest.raises(ValueError, match="compute duration must be >= 0, got -1"):
        HopeProcess("w").compute(-1)


@pytest.mark.parametrize("method", ["guess", "affirm", "deny", "free_of"])
def test_raw_string_keys_are_accepted(method):
    effect = getattr(HopeProcess("w"), method)("raw-key")
    assert effect.aid_key == "raw-key"


@pytest.mark.parametrize("method", ["guess", "affirm", "deny"])
def test_handle_subclasses_go_through_aid_key(method):
    class Named(AidHandle):
        pass

    effect = getattr(HopeProcess("w"), method)(Named("y#2", "y"))
    assert effect.aid_key == "y#2"
