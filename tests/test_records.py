"""The package's frozen records behave as frozen dataclasses.

Every record is declared with ``markov._record``, which installs methods
written in the package instead of the ones ``dataclasses`` generates; these
tests pin what a ``@dataclass(frozen=True)`` class would give.
"""

import dataclasses
import importlib
import inspect
import math
import pathlib
import pickle

import numpy as np
import pytest

from ddispatch.cli import Scenario
from ddispatch.design import FamilyStructure, LoadStateSpace
from ddispatch.linearize import FrequencyResponse, LinearModel
from ddispatch.loads import (LoadModel, NatureKernel, PoolModelSpec, TclModelSpec,
                             TclTrajectory)
from ddispatch.markov import Pmf, Schedule, StateFunction, StochasticMatrix, _schedule
from ddispatch.sim import FleetState, SignalSet, TrackingConfig

PACKAGE = pathlib.Path(importlib.import_module("ddispatch").__file__).parent
LAYERS = ("errors", "fileio", "markov", "design", "linearize", "loads", "sim", "cli")


def _examples():
    """One hand-built instance of every record."""
    two = StochasticMatrix([[0.5, 0.5], [0.25, 0.75]])
    space = LoadStateSpace(2, 1, StateFunction([0.0, 1.0], "kW"))
    plan = _schedule(np.ones((2, 2), dtype=bool))
    arrays = [np.arange(3.0) + k for k in range(6)]
    return [
        two,
        Pmf([0.25, 0.75]),
        StateFunction([1.0, 2.0], "kW"),
        Schedule(plan.slots, plan.size, plan.order, plan.work),
        space,
        FamilyStructure("composed", 0.5),
        LinearModel(np.full((2, 2), 0.5), np.array([0.1, -0.1]), np.array([1.0, -1.0]),
                    1.0, 0.0, Pmf([0.5, 0.5])),
        FrequencyResponse(np.array([0.0, math.pi]), np.ones(2), np.ones(2), 0.0, 1.0, 0.0,
                          0.0, "nominal"),
        PoolModelSpec(4, 12.0, 0.5, 5.0, 1.0, 2.0),
        NatureKernel(two, {"method": "fit"}),
        LoadModel("pool", {"rungs": 1}, space, two, 0.5, {"note": 1}),
        TclModelSpec(*(f.default for f in dataclasses.fields(TclModelSpec))),
        TclTrajectory(*arrays),
        SignalSet(2.0, {"y": [1.0, 2.5]}),
        FleetState([3, 0, 2]),
        TrackingConfig("proportional", 0.5, None, 0.9, False),
        Scenario("constant", None, 10, 0, 0, 100, 0.0, 1.0, "meanfield", np.zeros(3),
                 TrackingConfig(), TclModelSpec()),
    ]


EXAMPLES = _examples()
VALUE_RECORDS = {PoolModelSpec, TclModelSpec, TrackingConfig}


def _package_records():
    found = set()
    for layer in LAYERS:
        module = importlib.import_module(f"ddispatch.{layer}")
        found.update(obj for obj in vars(module).values()
                     if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                     and obj.__module__ == module.__name__)
    return found


def _values(record):
    return [getattr(record, f.name) for f in dataclasses.fields(record)]


def _ids(obj):
    return type(obj).__name__


def test_every_record_has_an_example():
    assert _package_records() == {type(obj) for obj in EXAMPLES}


def test_records_carry_no_generated_code():
    # dataclasses compiles the methods it writes from strings at import time
    for cls in sorted(_package_records(), key=lambda c: c.__name__):
        methods = ["__init__", "__repr__", "__setattr__", "__delattr__"]
        methods += [name for name in ("__eq__", "__hash__") if name in vars(cls)]
        for name in methods:
            assert name in vars(cls), f"{cls.__name__}.{name}"
            filename = pathlib.Path(vars(cls)[name].__code__.co_filename)
            assert filename.parent == PACKAGE, f"{cls.__name__}.{name}: {filename}"


@pytest.mark.parametrize("obj", EXAMPLES, ids=_ids)
def test_constructor_by_position_and_keyword(obj):
    cls, values = type(obj), _values(obj)
    names = [f.name for f in dataclasses.fields(cls)]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
    assert repr(by_position) == repr(by_keyword) == repr(mixed) == repr(obj)


@pytest.mark.parametrize("obj", EXAMPLES, ids=_ids)
def test_constructor_refuses_bad_arguments(obj):
    cls, values = type(obj), _values(obj)
    first = dataclasses.fields(cls)[0].name
    with pytest.raises(TypeError, match="positional"):
        cls(*values, values[0])
    with pytest.raises(TypeError, match="unexpected keyword"):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{first: values[0]})
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    if required:
        with pytest.raises(TypeError, match=repr(required[0])):
            cls()


@pytest.mark.parametrize("obj", [o for o in EXAMPLES if any(
    f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
    for f in dataclasses.fields(o))], ids=_ids)
def test_constructor_fills_defaults(obj):
    cls = type(obj)
    fields = dataclasses.fields(cls)
    required = [getattr(obj, f.name) for f in fields
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    first, second = cls(*required), cls(*required)
    for f in fields[len(required):]:
        if f.default_factory is dataclasses.MISSING:
            assert getattr(first, f.name) == f.default
        else:
            # a fresh value per instance, never one shared dict
            assert getattr(first, f.name) == f.default_factory()
            assert getattr(first, f.name) is not getattr(second, f.name)


def test_factory_defaults():
    two = StochasticMatrix([[0.5, 0.5], [0.25, 0.75]])
    a, b = NatureKernel(two), NatureKernel(two)
    assert a.provenance == {"method": "analytic"}
    a.provenance["method"] = "changed"
    assert b.provenance == {"method": "analytic"}
    space = LoadStateSpace(2, 1, StateFunction([0.0, 1.0]))
    model = LoadModel("pool", {}, space, two, 0.5)
    assert model.diagnostics == {}
    assert model.diagnostics is not LoadModel("pool", {}, space, two, 0.5).diagnostics


@pytest.mark.parametrize("obj", EXAMPLES, ids=_ids)
def test_frozen(obj):
    name = dataclasses.fields(obj)[0].name
    before = repr(obj)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
        setattr(obj, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.not_a_field = 1
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
        delattr(obj, name)
    assert repr(obj) == before


@pytest.mark.parametrize("obj", EXAMPLES, ids=_ids)
def test_equality_and_hash(obj):
    cls, twin = type(obj), type(obj)(*_values(obj))
    assert obj == obj
    if cls in VALUE_RECORDS:
        assert obj == twin and hash(obj) == hash(twin)
        assert obj.__eq__(object()) is NotImplemented
    else:
        assert obj != twin
        assert hash(obj) == object.__hash__(obj)


def test_value_records_hash_by_value():
    assert len({PoolModelSpec(), PoolModelSpec(), TclModelSpec(), TclModelSpec(),
                TrackingConfig(), TrackingConfig(kp=1.0)}) == 4
    assert PoolModelSpec() == PoolModelSpec(rungs=48)
    assert PoolModelSpec() != PoolModelSpec(rungs=47)


@pytest.mark.parametrize("obj", EXAMPLES, ids=_ids)
def test_dataclass_functions(obj):
    names = [f.name for f in dataclasses.fields(obj)]
    assert dataclasses.is_dataclass(obj) and dataclasses.is_dataclass(type(obj))
    assert repr(dataclasses.replace(obj)) == repr(obj)
    assert list(dataclasses.asdict(obj)) == names
    assert repr(pickle.loads(pickle.dumps(obj))) == repr(obj)


@pytest.mark.parametrize("obj", EXAMPLES, ids=_ids)
def test_signature_lists_the_fields(obj):
    cls = type(obj)
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == [f.name for f in dataclasses.fields(cls)]
    for p, f in zip(params, dataclasses.fields(cls)):
        assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        if f.default_factory is not dataclasses.MISSING:
            assert repr(p.default) == "<factory>"
        elif f.default is dataclasses.MISSING:
            assert p.default is inspect.Parameter.empty
        else:
            assert p.default == f.default


def test_signature_text():
    assert (str(inspect.signature(NatureKernel))
            == "(kernel: 'StochasticMatrix', provenance: 'dict' = <factory>) -> None")
    assert (str(inspect.signature(FamilyStructure))
            == "(sampling: 'str' = 'direct', gamma: 'float | None' = None) -> None")


def test_repr_text():
    two = StochasticMatrix([[1.0]])
    cases = [
        (StateFunction(np.array([1.0, 2.0]), "kW"),
         "StateFunction(values=array([1., 2.]), units='kW')"),
        (FamilyStructure("composed", 0.5), "FamilyStructure(sampling='composed', gamma=0.5)"),
        (TrackingConfig(kp=0.5),
         "TrackingConfig(kind='pi', kp=0.5, ki=None, zeta_limit=None, anti_windup=True)"),
        (PoolModelSpec(rungs=4),
         "PoolModelSpec(rungs=4, cycle_hours=12.0, gamma=0.16666666666666666, "
         "slot_minutes=5.0, power_kw=1.0, hazard_shape=2.0)"),
        (NatureKernel(two), "NatureKernel(kernel=StochasticMatrix(entries=array([[1.]])), "
                            "provenance={'method': 'analytic'})"),
        (FleetState([3, 0, 2]), "FleetState(counts=array([3, 0, 2]))"),
        (SignalSet(2.0, {"y": [1.0, 2.5]}),
         "SignalSet(period_s=2.0, samples={'y': array([1. , 2.5])})"),
        (Pmf([0.25, 0.75]), "Pmf(weights=array([0.25, 0.75]))"),
    ]
    for obj, text in cases:
        assert repr(obj) == text


def test_post_init_runs_after_the_fields():
    with pytest.raises(Exception, match="negative weight"):
        Pmf([1.5, -0.5])
    with pytest.raises(Exception, match="negative weight"):
        Pmf(weights=[1.5, -0.5])
    assert Pmf([0.5, 0.5]).weights.flags.writeable is False


def test_cached_properties_are_kept():
    m = StochasticMatrix([[0.5, 0.5], [0.25, 0.75]])
    for name in ("support", "nonzeros", "structure"):
        assert name not in vars(m)
        first = getattr(m, name)
        assert vars(m)[name] is first and getattr(m, name) is first
    plan = _schedule(np.ones((3, 3), dtype=bool))
    assert "pivots" not in vars(plan)
    assert plan.pivots is plan.pivots
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.pivots = ()
