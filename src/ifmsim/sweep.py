"""Parameter sweeps over the channel evolution, emitted as CSV tables.

Three sweep shapes cover the standard plots: probability versus cycle count
at fixed absorption, probability versus absorption at fixed cycle count, and
the full (absorption x cycles) grid for heatmaps.  Records are emitted in
deterministic (a, n) order.  Parameters are checked once, one CycleConfig
per absorption, and one call of the evolution engine raises the transfer
matrices of every (a, n) row as one batched power; a row is bit for bit the
record ``run_single`` gives for its own configuration.

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

from .evolution import CycleConfig, ParticleModel, _clamped, _reduced
from .operators import _check_count, switching_angle

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
        total = p_h + p_v + p_b
        # written so that a NaN sum (an inf among the terms, say) fails too
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
    h, _, v, b = _reduced(config.model, (theta,), (config.a,), (config.n,))[0, 0].tolist()
    return SweepRecord(config.model.value, config.a, config.n, theta, *_clamped((h, v, b)))


def _records(a_values, n_values, model, theta) -> list[SweepRecord]:
    """One record per (a, n), absorption outer and cycles inner.

    One CycleConfig per absorption checks the parameters, raising what the
    first failing row's own CycleConfig would; then one engine call raises
    the transfer matrices of every (n, a) pair at once.
    """
    configs = [CycleConfig(model=model, a=a, n=n_values[0], theta=theta) for a in a_values]
    first = configs[0]
    a_eff = [c.a for c in configs]
    # CycleConfig returned n_values[0] as an int; _cycle_counts made the rest
    ns = [first.n, *n_values[1:]]
    thetas = [switching_angle(n) if theta is None else first.theta for n in ns]
    # (h, v, b) x absorption x cycles: one list per column rather than one per row
    h, v, b = _reduced(first.model, thetas, a_eff, ns)[:, :, (0, 2, 3)].T.tolist()
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
