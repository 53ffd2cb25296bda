"""Records against their dataclass twins: every value class of drasim behaves as a
plain frozen dataclass on the same fields, and importing drasim has dataclasses
generate no method for any of them."""

import copy
import importlib
import math
import os
import pickle
import pkgutil
import subprocess
import sys
from dataclasses import FrozenInstanceError, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import pytest

import drasim
from drasim.channels import (
    CollateralNotice,
    CommitMsg,
    EndCommit,
    EndReveal,
    Event,
    OutcomeNotice,
    RevealMsg,
    Transcript,
    View,
)
from drasim.commitments import Commitment, Opening
from drasim.distributions import (
    BoundCheck,
    EqualRevenue,
    Exponential,
    GeneralizedPareto,
    RegularityReport,
    TwoPoint,
    Uniform,
    ValueDistribution,
    reserve_price,
)
from drasim.estimate import Estimate
from drasim.estimators import AttackRow, CredibilityReport, CredibilityRow
from drasim.protocol import AuctionConfig, LedgerEntry, Outcome
from drasim.records import record
from drasim.strategies import (
    AdaptiveReserve,
    FixedBid,
    Lifted,
    NoReveal,
    RevealPolicy,
    ShillBroadcast,
    Truthful,
    ViewSummary,
)
from drasim.verification import AuditResult, VerifyCheck

GPA = GeneralizedPareto(0.5)
CONFIG = AuctionConfig(n=2, dist=GPA, reserve=reserve_price(GPA), collateral=2.0)
COMMITMENT = Commitment("ideal", 7)
OPENING = Opening(2.5, bytes(16))
NOTICE = OutcomeNotice(1, 2.0)
EVENT = Event(0, 1, None, CommitMsg(1, COMMITMENT))
VIEW = View(1, (EVENT,))
ESTIMATE = Estimate(1.25, 0.01, 1000)
ROW = CredibilityRow("honest", ESTIMATE, 1.28, 0.03, True)
LEDGER = (LedgerEntry(1, 1, 2.0), LedgerEntry(2, -1, 2.0))
OUTCOME = Outcome(1, 2.0, frozenset({1, 2}), LEDGER, 2.0)
SHILL = ShillBroadcast((3.0, 4.0), RevealPolicy.WITHHOLD_IF_WINNING)

# each value class: the arguments of one instance, and a change of one field to a
# value that its class accepts too
EXAMPLES = {
    CommitMsg: ((1, COMMITMENT), {"bidder": 2}),
    EndCommit: ((), {}),
    RevealMsg: ((1, OPENING), {"opening": Opening(3.5, bytes(16))}),
    EndReveal: ((), {}),
    OutcomeNotice: ((1, 2.0), {"winner": None}),
    CollateralNotice: ((2, 1.5, "refund"), {"counterparty": 1}),
    Event: ((0, 1, None, NOTICE), {"recipient": 2}),
    View: ((1, (EVENT,)), {"events": ()}),
    Transcript: (("broadcast", 2, (EVENT,), "ideal", {1: VIEW}), {"n_buyers": 3}),
    Commitment: (("ideal", 7), {"token": b"\x01" * 32}),
    Opening: ((2.5, bytes(16)), {"message": -0.0}),
    Exponential: ((2.0,), {"rate": 0.5}),
    GeneralizedPareto: ((0.25,), {"shape": 0.5}),
    Uniform: ((1.0, 5.0), {"high": 6.0}),
    EqualRevenue: ((), {}),
    TwoPoint: ((), {}),
    RegularityReport: ((0.5, True, False), {"is_mhr": True}),
    BoundCheck: ((1.0, 2.0, True, 1e-12), {"lhs": 3.0}),
    Estimate: ((1.25, 0.01, 1000), {"samples": 2000}),
    CredibilityRow: (("honest", ESTIMATE, 1.28, 0.03, True), {"passed": False}),
    CredibilityReport: ((2.0, 1.25, (ROW,), 0.03, True, ()), {"violations": ("honest",)}),
    AttackRow: ((5.0, ESTIMATE, 1.24, True, None), {"oracle_rel_err": 0.01}),
    AuctionConfig: ((2, GPA, CONFIG.reserve, 2.0), {"seed": 5}),
    LedgerEntry: ((1, -1, 2.0), {"recipient": 2}),
    Outcome: ((1, 2.0, frozenset({1, 2}), LEDGER, 2.0), {"winner": None}),
    Truthful: ((5.0,), {"value": 6.0}),
    FixedBid: ((5.0, 4.0), {"bid_amount": 3.0}),
    NoReveal: ((5.0,), {"value": 1.0}),
    ShillBroadcast: (((3.0,), RevealPolicy.ALWAYS_REVEAL), {"false_bids": (3.0, 4.0)}),
    Lifted: ((SHILL,), {"inner": ShillBroadcast()}),
    AdaptiveReserve: ((5.0,), {"threshold": math.inf}),
    ViewSummary: ((1, NOTICE, {1: COMMITMENT}, {1: OPENING}, (), -math.inf, True),
                  {"rival": 2.5}),
    VerifyCheck: (("separation", True, "ok"), {"detail": "fine"}),
    AuditResult: ((OUTCOME, ()), {"violations": ("single-candidate",)}),
}


def value_classes() -> list:
    """Every dataclass that a drasim module defines."""
    found = []
    for info in pkgutil.iter_modules(drasim.__path__):
        module = importlib.import_module(f"drasim.{info.name}")
        found += [obj for obj in vars(module).values() if isinstance(obj, type)
                  and obj.__module__ == module.__name__ and is_dataclass(obj)]
    return found


def twin(cls: type) -> type:
    """A plain frozen dataclass on cls's fields and bases, named as cls, with the
    __repr__ of a base where cls keeps one (the distribution families)."""
    namespace = {"__annotations__": {}, "__module__": cls.__module__,
                 "__qualname__": cls.__qualname__}
    for f in fields(cls):
        namespace["__annotations__"][f.name] = f.type
        namespace[f.name] = field(default=f.default, repr=f.repr, hash=f.hash,
                                  compare=f.compare)
    inherits_repr = any("__repr__" in vars(base) for base in cls.__mro__[1:-1])
    return dataclass(frozen=True, repr=not inherits_repr)(
        type(cls.__name__, cls.__bases__, namespace))


def outcome(action):
    """What action returns, or the type and message of what it raises."""
    try:
        return ("value", action())
    except Exception as exc:  # noqa: BLE001 (compared between the twins)
        return (type(exc), str(exc))


def behaviour(cls: type, args: tuple, changes: dict) -> dict:
    """Everything the twin test compares, observed on instances of cls."""
    a, b, changed = cls(*args), cls(*args), replace(cls(*args), **changes)
    first = fields(cls)[0].name if fields(cls) else None
    nan = float("nan")
    with_nan = replace(a, **{first: nan}) if first and cls.__name__ not in VALIDATING else None
    facts = {
        "equal": [x == y for x in (a, b, changed, with_nan) for y in (a, b, changed, with_nan)],
        "hash": outcome(lambda: (hash(a), hash(a) == hash(b))),
        "repr": [repr(a), repr(changed), repr(with_nan)],
        "replace": repr(replace(a, **changes)),
        "fields": [(f.name, f.type, f.default, f.init, f.repr, f.hash, f.compare, f.kw_only)
                   for f in fields(a)],
        "match_args": cls.__match_args__,
        "params": [getattr(cls.__dataclass_params__, name)
                   for name in ("init", "eq", "order", "unsafe_hash", "frozen")],
        "pickled": outcome(lambda: (lambda c: (type(c) is cls, repr(c), c == a))(
            pickle.loads(pickle.dumps(a)))),
        "deepcopy": outcome(lambda: repr(copy.deepcopy(a)) == repr(a)),
        "others": [a == x for x in (None, args, object())],
    }
    for name in [f.name for f in fields(cls)] + ["not_a_field"]:
        facts[f"set {name}"] = outcome(lambda: setattr(a, name, 0))
        facts[f"del {name}"] = outcome(lambda: delattr(a, name))
    return facts


# the classes whose _validate refuses a NaN in their first field
VALIDATING = {"Exponential", "GeneralizedPareto", "Uniform", "AuctionConfig", "Lifted"}


def test_examples_cover_every_value_class():
    classes = value_classes()
    assert len(classes) == 34
    assert set(classes) == set(EXAMPLES)


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_each_value_class_behaves_as_its_dataclass_twin(cls, monkeypatch):
    args, changes = EXAMPLES[cls]
    ours = behaviour(cls, args, changes)
    double = twin(cls)
    monkeypatch.setattr(sys.modules[cls.__module__], cls.__name__, double)  # pickle finds it
    theirs = behaviour(double, args, changes)
    assert ours == theirs
    assert ours["pickled"][0] == "value" and ours["equal"][0]


def test_transcript_equality_ignores_its_views():
    args, _ = EXAMPLES[Transcript]
    other_views = args[:4] + ({},)
    for cls in (Transcript, twin(Transcript)):
        assert cls(*args) == cls(*other_views)
        assert hash(cls(*args)) == hash(cls(*other_views))
        assert repr(cls(*args)) != repr(cls(*other_views))


class Tag(float):
    """A float whose str and repr differ, as a numpy float64's do."""

    def __repr__(self):
        return "tagged"

    def __str__(self):
        return f"{float(self)}!"


def test_families_keep_their_own_repr():
    # the family's params with str, as ValueDistribution prints them, not repr
    assert repr(GeneralizedPareto(shape=0.5)) == "GeneralizedPareto(shape=0.5)"
    assert repr(Uniform()) == "Uniform(low=0.0, high=1.0)"
    assert repr(EqualRevenue()) == "EqualRevenue()"
    assert repr(Exponential(Tag(2.0))) == "Exponential(rate=2.0!)"


@pytest.mark.parametrize("instance, changes, message", [
    (CONFIG, {"n": 0}, "need at least one buyer"),
    (CONFIG, {"mode": "smoke"}, "unknown mode"),
    (CONFIG, {"scheme": "hash"}, "unknown commitment scheme"),
    (CONFIG, {"collateral": math.inf}, "collateral must be finite"),
    (CONFIG, {"reserve": 1.0}, "inconsistent with distribution"),
    (Exponential(), {"rate": 0.0}, "rate must be positive"),
    (GeneralizedPareto(0.5), {"shape": 1.0}, r"shape must lie in \(0, 1\)"),
    (Uniform(), {"high": 0.0}, "need high > low"),
    (Lifted(SHILL), {"inner": AdaptiveReserve(5.0)}, "is not a broadcast strategy"),
    (Lifted(SHILL), {"inner": Lifted(SHILL)}, "is not a broadcast strategy"),
    (CONFIG, {"n": 1.5}, "n must be an integer, got 1.5"),
])
def test_replace_runs_the_validating_classes_checks(instance, changes, message):
    with pytest.raises(ValueError, match=message):
        replace(instance, **changes)
    with pytest.raises(ValueError, match=message):
        type(instance)(**{**{f.name: getattr(instance, f.name) for f in fields(instance)},
                          **changes})


def test_a_subclass_may_add_attributes_but_not_assign_fields():
    class Tagged(ShillBroadcast):
        pass

    shill = Tagged((3.0,))
    shill.note = "extra"
    assert shill.note == "extra"
    with pytest.raises(FrozenInstanceError):
        shill.false_bids = ()
    with pytest.raises(FrozenInstanceError):
        del shill.reveal_policy
    assert shill == Tagged((3.0,)) and shill != ShillBroadcast((3.0,))


def test_a_record_method_reaches_its_base_by_super():
    class Base:
        def describe(self):
            return "base"

    @record
    class Named(Base):
        """A record whose method calls its base's."""

        name: str

        def describe(self):
            return f"{self.name} of {super().describe()}"

    assert Named("x").describe() == "x of base"
    assert AdaptiveReserve(5.0).check_config(replace(CONFIG, mode="centralized")) is None


# counts the methods dataclasses compiles, one _create_fn call each up to Python 3.12
GUARD = """
import dataclasses
made = []
create_fn = dataclasses._create_fn
def counting(*args, **kwargs):
    made.append(args[0])
    return create_fn(*args, **kwargs)
dataclasses._create_fn = counting
import drasim, drasim.verification, drasim.cli
print(len(made))
"""


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="dataclasses._create_fn is gone")
def test_import_generates_no_dataclass_method():
    src = str(Path(drasim.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", GUARD], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["0"]


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_every_method_but_init_comes_from_records(cls):
    """Where each method comes from: all but __init__ are written in records.py, where
    dataclasses would compile each from source, and the class has a docstring of its
    own, where dataclasses would write one from its signature."""
    written_once = ("__eq__", "__hash__", "__setattr__", "__delattr__", "__repr__",
                    "__getstate__", "__setstate__")
    elsewhere = [name for name in written_once
                 if getattr(cls, name).__module__ != "drasim.records"]
    assert elsewhere == (["__repr__"] if issubclass(cls, ValueDistribution) else [])
    assert cls.__doc__ != twin(cls).__doc__
