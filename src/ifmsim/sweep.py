"""Parameter sweeps over the channel evolution, emitted as CSV tables.

Three sweep shapes cover the standard plots: probability versus cycle count
at fixed absorption, probability versus absorption at fixed cycle count, and
the full (absorption x cycles) grid for heatmaps.  Records are emitted in
deterministic (a, n) order.  Parameters are checked once, one CycleConfig
per absorption, and one call of the evolution engine's stacked driver
evolves every (a, n) row at once; a row is bit for bit the record
``run_single`` gives for its own configuration through the float driver.

CSV contract: header ``model,a,n,theta,p_h,p_v,p_b``; every real is rendered
with 17 significant digits (positional notation for magnitudes in
[1e-4, 1e17), scientific otherwise, zero always positional) so values
round-trip losslessly and output is byte-stable; lines end with a single
line feed, including the last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators
from .evolution import CycleConfig, ParticleModel, _clamped, _evolve_one, _evolve_stack
from .operators import _check_count

__all__ = [
    "SweepRecord",
    "run_single",
    "sweep_cycles",
    "sweep_absorption",
    "sweep_grid",
    "format_real",
    "to_csv",
    "write_csv",
    "CSV_HEADER",
]

CSV_HEADER = "model,a,n,theta,p_h,p_v,p_b"

_SUM_TOL = 1e-10

_MODEL_VALUES = tuple(m.value for m in ParticleModel)
_INF = math.inf

_setattr = object.__setattr__


@dataclass(frozen=True, init=False)
class SweepRecord:
    """One CSV row: an experiment's parameters and outcome probabilities."""

    model: str
    a: float
    n: int
    theta: float
    p_h: float
    p_v: float
    p_b: float

    def __init__(
        self, model: str, a: float, n: int, theta: float, p_h: float, p_v: float, p_b: float
    ) -> None:
        # Plain comparisons, each written so that NaN fails it.  With every p
        # at least 0, the sum check also caps each p at 1 + _SUM_TOL.
        if model not in _MODEL_VALUES:
            raise ValueError(f"model must be one of {_MODEL_VALUES}, got {model!r}")
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"a must be in [0, 1], got {a!r}")
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be an integer >= 1, got {n!r}")
        if not -_INF < theta < _INF:
            raise ValueError(f"theta must be finite, got {theta!r}")
        if not p_h >= 0.0:
            raise ValueError(f"p_h must be >= 0, got {p_h!r}")
        if not p_v >= 0.0:
            raise ValueError(f"p_v must be >= 0, got {p_v!r}")
        if not p_b >= 0.0:
            raise ValueError(f"p_b must be >= 0, got {p_b!r}")
        total = p_h + p_v + p_b
        if not abs(total - 1.0) <= _SUM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        # Seven stores, as a generated __init__ makes: they keep the fields in
        # the instance's inline values, where a __dict__ update would build a
        # dict per record (~190 more bytes each).
        _setattr(self, "model", model)
        _setattr(self, "a", a)
        _setattr(self, "n", n)
        _setattr(self, "theta", theta)
        _setattr(self, "p_h", p_h)
        _setattr(self, "p_v", p_v)
        _setattr(self, "p_b", p_b)

    # as in a generated __init__: the object None, not the string PEP 563 makes
    __init__.__annotations__["return"] = None


def run_single(config: CycleConfig) -> SweepRecord:
    """Evaluate one configuration into a record."""
    theta = config.resolved_theta()
    h, _, v, b = _evolve_one(config.model, theta, config.a, config.n)
    return SweepRecord(config.model.value, config.a, config.n, theta, *_clamped((h, v, b)))


def _records(a_values, n_values, model, theta) -> list[SweepRecord]:
    """One record per (a, n), absorption outer and cycles inner.

    One CycleConfig per absorption checks the parameters, raising what the
    first failing row's own CycleConfig would; then one stacked engine call
    evolves every (n, a) pair at once.
    """
    configs = [CycleConfig(model=model, a=a, n=n_values[0], theta=theta) for a in a_values]
    first = configs[0]
    a_eff = [c.a for c in configs]
    # CycleConfig returned n_values[0] as an int; _cycle_counts made the rest
    ns = [first.n, *n_values[1:]]
    angle = operators.switching_angle  # looked up per call, as resolved_theta does
    thetas = [angle(n) if theta is None else first.theta for n in ns]
    # (h, v, b) x absorption x cycles: one list per column rather than one per row
    h, v, b = _evolve_stack(first.model, thetas, a_eff, ns)[(0, 2, 3),].swapaxes(1, 2).tolist()
    return [
        SweepRecord(first.model.value, a, n, t, *_clamped((p_h, p_v, p_b)))
        for a, hs, vs, bs in zip(a_eff, h, v, b)
        for n, t, p_h, p_v, p_b in zip(ns, thetas, hs, vs, bs)
    ]


def _cycle_counts(n_max) -> range:
    return range(1, _check_count(n_max, 1, "n_max must be >= 1") + 1)


def _absorption_grid(steps) -> list[float]:
    steps = _check_count(steps, 2, "steps must be >= 2")
    return [i / (steps - 1) for i in range(steps)]


def sweep_cycles(a, n_max, model, theta=None) -> list[SweepRecord]:
    """Records for N = 1..n_max at fixed absorption.

    With theta=None each row uses its own switching angle pi/(2N).
    """
    return _records([a], _cycle_counts(n_max), model, theta)


def sweep_absorption(n, steps, model, theta=None) -> list[SweepRecord]:
    """Records for absorption 0..1 in `steps` equal steps at fixed N.

    Endpoints 0 and 1 are always included exactly.
    """
    return _records(_absorption_grid(steps), [n], model, theta)


def sweep_grid(n_max, a_steps, model, theta=None) -> list[SweepRecord]:
    """The full Cartesian product: absorption outer, cycles inner, both ascending."""
    return _records(_absorption_grid(a_steps), _cycle_counts(n_max), model, theta)


def format_real(x: float) -> str:
    """Render a float deterministically and round-trip exact.

    Up to 17 significant digits, zero padded, so float() recovers the exact
    value.  Positional notation for 0 and for magnitudes in [1e-4, 1e17);
    scientific notation otherwise.
    """
    v = float(x)
    if v != 0.0 and (abs(v) < 1e-4 or abs(v) >= 1e17):
        return np.format_float_scientific(v, precision=16, unique=False)
    return np.format_float_positional(
        v, precision=17, unique=False, fractional=False, trim="k"
    )


def to_csv(records) -> str:
    """The full CSV text: header plus one line per record, LF terminated."""
    # A sweep repeats each a and theta over many rows, so each value is
    # formatted once; the key keeps the sign so that 0.0 and -0.0 stay apart.
    formatted = {}

    def repeated(x) -> str:
        key = (x, math.copysign(1.0, x))
        text = formatted.get(key)
        if text is None:
            text = formatted[key] = format_real(x)
        return text

    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                (
                    r.model,
                    repeated(r.a),
                    str(r.n),
                    repeated(r.theta),
                    format_real(r.p_h),
                    format_real(r.p_v),
                    format_real(r.p_b),
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_csv(records, path) -> None:
    """Write to_csv(records) to `path` with LF line endings on any platform."""
    with open(path, "w", newline="") as f:
        f.write(to_csv(records))
