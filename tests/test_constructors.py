"""The hand-written constructors of CycleConfig and SweepRecord.

Both classes validate and store their fields in one pass.  These tests pin
what a dataclass-generated constructor gave: the accepted values and their
types, the rejected inputs with their exception type, message and check
order, and the dataclass contract (replace, fields, equality, hashing,
repr, pickle, copy, immutability, signature).
"""

import copy
import dataclasses
import inspect
import itertools
import math
import pickle

import numpy as np
import pytest

from ifmsim import operators
from ifmsim.evolution import CycleConfig, ParticleModel
from ifmsim.sweep import SweepRecord


def _reference_config(model, a, n, theta=None):
    """The checks of the generated ``__init__`` plus ``__post_init__`` that CycleConfig replaced."""
    model = ParticleModel(model)
    n = operators._check_count(n, 1, "cycle count n must be a positive integer")
    a = operators._check_probability(a)
    a = 0.0 if model is ParticleModel.ABSENT else a
    if theta is not None:
        t = float(theta)
        if not math.isfinite(t):
            raise ValueError("theta must be finite")
        theta = t
    return model, a, n, theta


def _outcome(build, *args):
    """('ok', repr and type of each field) or ('raise', exception type, message)."""
    try:
        values = build(*args)
    except Exception as exc:  # the parity is in which exception, so every one counts
        return ("raise", type(exc), str(exc))
    return ("ok", tuple((repr(v), type(v)) for v in values))


def _built(model, a, n, theta):
    cfg = CycleConfig(model=model, a=a, n=n, theta=theta)
    return cfg.model, cfg.a, cfg.n, cfg.theta


MODELS = [
    *ParticleModel,
    "coherent",
    "collapse",
    "absent",
    "COHERENT",
    "unknown",
    None,
    ["coherent"],
]
COUNTS = [3, 1, True, False, 2.0, 2.5, np.int64(4), 10**30, 0, -1, math.nan, "3", None]
ABSORPTIONS = [
    0.3,
    0,
    1,
    -0.0,
    math.nan,
    math.inf,
    np.float64(0.25),
    "0.5",
    "x",
    1.5,
    None,
]
THETAS = [None, 0.1, 1, np.float64(0.2), "0.2", "x", math.nan, math.inf, -math.inf]


def test_constructor_matches_the_reference_checks():
    # A case with several bad arguments shows which check runs first.
    mismatches, accepted, messages = [], 0, set()
    for case in itertools.product(MODELS, ABSORPTIONS, COUNTS, THETAS):
        expected = _outcome(_reference_config, *case)
        got = _outcome(_built, *case)
        if got != expected:
            mismatches.append((case, expected, got))
        if got[0] == "ok":
            accepted += 1
        else:
            messages.add(got[2])
    assert mismatches == []
    # the grid reaches both sides of every check
    assert accepted
    for check in (
        "is not a valid ParticleModel",
        "cycle count n must be a positive integer",
        "absorption probability must be in [0, 1]",
        "theta must be finite",
    ):
        assert any(check in m for m in messages), check


_CONFIG = CycleConfig(model="collapse", a=0.3, n=5, theta=0.1)
_RECORD = SweepRecord(model="coherent", a=0.5, n=3, theta=0.25, p_h=0.25, p_v=0.5, p_b=0.25)

# (instance, its repr, its signature as str(inspect.signature) gave for the generated __init__)
CONTRACT = {
    "CycleConfig": (
        _CONFIG,
        "CycleConfig(model=<ParticleModel.COLLAPSE: 'collapse'>, a=0.3, n=5, theta=0.1)",
        "(model: 'ParticleModel', a: 'float', n: 'int', theta: 'float | None' = None) -> None",
    ),
    "SweepRecord": (
        _RECORD,
        "SweepRecord(model='coherent', a=0.5, n=3, theta=0.25, p_h=0.25, p_v=0.5, p_b=0.25)",
        "(model: 'str', a: 'float', n: 'int', theta: 'float', p_h: 'float', p_v: 'float',"
        " p_b: 'float') -> None",
    ),
}


@pytest.fixture(params=sorted(CONTRACT))
def contract(request):
    return CONTRACT[request.param]


def test_repr(contract):
    obj, text, _ = contract
    assert repr(obj) == text


def test_signature_is_unchanged(contract):
    obj, _, signature = contract
    assert str(inspect.signature(type(obj))) == signature
    resolved = inspect.signature(type(obj), eval_str=True)
    assert resolved.return_annotation is None
    assert [p.name for p in resolved.parameters.values()] == [
        f.name for f in dataclasses.fields(obj)
    ]


def test_fields(contract):
    obj, _, _ = contract
    fields = dataclasses.fields(obj)
    assert all(f.init for f in fields)
    values = {f.name: getattr(obj, f.name) for f in fields}
    assert dataclasses.asdict(obj) == values
    assert type(obj)(**values) == obj


def test_equality_and_hash(contract):
    obj, _, _ = contract
    twin = dataclasses.replace(obj)
    assert twin == obj and twin is not obj
    assert hash(twin) == hash(obj)
    assert dataclasses.replace(obj, n=obj.n + 1) != obj
    assert len({obj, twin}) == 1


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(contract, protocol):
    obj, text, _ = contract
    back = pickle.loads(pickle.dumps(obj, protocol=protocol))
    assert back == obj and repr(back) == text


def test_copy_round_trips(contract):
    obj, text, _ = contract
    for back in (copy.copy(obj), copy.deepcopy(obj)):
        assert back == obj and repr(back) == text


def test_frozen(contract):
    obj, text, _ = contract
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)
    assert repr(obj) == text


def test_replace_validates_again():
    assert dataclasses.replace(_CONFIG, n=7) == CycleConfig(model="collapse", a=0.3, n=7, theta=0.1)
    assert dataclasses.replace(_CONFIG, model="absent").a == 0.0
    with pytest.raises(ValueError, match="cycle count n must be a positive integer"):
        dataclasses.replace(_CONFIG, n=0)
    with pytest.raises(ValueError, match="probabilities must sum to 1"):
        dataclasses.replace(_RECORD, p_h=0.9)


def test_cycle_config_keeps_its_slots_and_match_args():
    assert CycleConfig.__slots__ == ("model", "a", "n", "theta")
    assert CycleConfig.__match_args__ == ("model", "a", "n", "theta")
    assert not hasattr(_CONFIG, "__dict__")
    match _CONFIG:
        case CycleConfig(ParticleModel.COLLAPSE, a, n, theta):
            assert (a, n, theta) == (0.3, 5, 0.1)
        case _:
            pytest.fail("positional pattern did not match")
