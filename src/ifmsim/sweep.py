"""Parameter sweeps over the channel evolution, emitted as CSV tables.

Three sweep shapes cover the standard plots: probability versus cycle count
at fixed absorption, probability versus absorption at fixed cycle count, and
the full (absorption x cycles) grid for heatmaps.  Rows come in
deterministic (a, n) order, absorption outer and cycles inner.  One path
evaluates every sweep: parameters are checked once, one CycleConfig per
absorption; the evolution engine's stacked driver then evolves the rows in
blocks of about 4,096, one call a block, into (p_h, p_v, p_b) columns of
24 bytes a row, and each block is checked with SweepRecord's own checks as
it lands.  A row is bit for bit the record ``run_single`` gives for its own
configuration through the float driver, whatever block it is in.  The
public ``sweep_*`` functions build a SweepRecord per row from the columns;
the CLI's sweep commands skip the records and format the columns straight
into CSV text, one chunk a block, once every row has passed.  Evaluation,
row checks, records and CSV text all walk the same blocks, each with its
counts and angles computed in one place.  Both writers share one line
layout and one number rule, ``format_real``'s, written a block at a time by
``_format_reals``, so the CLI's bytes are those of ``to_csv`` over the
records.  They fill it through two line templates, kept apart on purpose:
``to_csv`` makes one per record, ``_Sweep.csv`` one per block with each
absorption's and count's fields formatted once, and one template per row
for both was measured slower.  A sweep has at most ``sys.maxsize`` counts
and absorptions, the most a Python sequence can hold.

CSV contract: header ``model,a,n,theta,p_h,p_v,p_b``; lines end with a
single line feed, including the last.  Every real is written with 17
significant digits, correctly rounded with ties to even, so values
round-trip losslessly and output is byte-stable.  Notation is positional
for zero and for magnitudes in [1e-4, 1e17), scientific (``d.<16
digits>e±XX``) otherwise, chosen from the unrounded value.  Where the
digits run short, numpy's rule holds: an exact expansion of fewer digits
(0.5), or a rounding carry that leaves fewer (0.25506902573942169532...),
is padded with zeros to 17 digits in all, counting a leading 0 and the
zeros after the point: ``0.5000000000000000``, ``3.0000000000000000``,
``0.0001220703125000``, ``0.2550690257394217``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import operators
from .evolution import (
    _CLAMP_TOL,
    CycleConfig,
    ParticleModel,
    _clamped,
    _evolve_one,
    _evolve_stack,
)
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


# Rows per stacked engine call, and per chunk of CSV text.
_BLOCK_ROWS = 4096


class _Sweep:
    """One sweep's (a, n) rows, absorption outer and cycles inner, as columns.

    Construction checks the parameters, one CycleConfig per absorption,
    raising what the first failing row's own CycleConfig would.  It then
    evolves the rows in blocks of about ``_BLOCK_ROWS``, one stacked engine
    call a block, into one (3, K, G) array of clamped (p_h, p_v, p_b): 24
    bytes a row.  Each block is checked as it lands, with SweepRecord's
    probability checks, and the first failing row raises its SweepRecord's
    own message.  So a constructed sweep holds only rows that ``records``
    and ``csv`` can emit.  All three walk the rows through ``_blocks``.
    """

    def __init__(self, a_values, n_values, model, theta) -> None:
        first = CycleConfig(model=model, a=a_values[0], n=n_values[0], theta=theta)
        self.model, self.theta = first.model, first.theta
        self.n_values = n_values
        self.n_first = first.n  # CycleConfig returned n_values[0] as an int
        self.a_values = [
            CycleConfig(model=first.model, a=a, n=first.n, theta=first.theta).a for a in a_values
        ]
        self.p = np.empty((3, len(self.a_values), len(n_values)))
        for a_part, ns, thetas, rows in self._blocks():
            p = _evolve_stack(self.model, thetas, a_part, ns)[(0, 2, 3),]
            p[(-_CLAMP_TOL <= p) & (p < 0.0)] = 0.0  # _clamped's dust clamp
            rows[...] = p.swapaxes(1, 2)
            self._check(a_part, ns, thetas, rows)

    def _blocks(self) -> Iterator[tuple[list, list, list, np.ndarray]]:
        """Each block's absorptions, counts, angles and (3, k, g) view of ``self.p``, in row order.

        A block is a slice of one absorption's counts when there are at least
        ``_BLOCK_ROWS`` counts, else every count for as many absorptions as fit.
        Consecutive blocks that share a count slice share its counts and angles,
        the same two lists, computed once.
        """
        k, g = len(self.a_values), len(self.n_values)
        a_step, n_step = (1, _BLOCK_ROWS) if g >= _BLOCK_ROWS else (_BLOCK_ROWS // g, g)
        last = None
        for j in range(0, k, a_step):
            for i in range(0, g, n_step):
                if i != last:
                    last = i
                    ns = list(self.n_values[i : i + n_step])
                    if i == 0:
                        ns[0] = self.n_first
                    angle = operators.switching_angle  # looked up per call, as resolved_theta does
                    theta = self.theta
                    thetas = [angle(n) for n in ns] if theta is None else [theta] * len(ns)
                rows = self.p[:, j : j + a_step, i : i + n_step]
                yield self.a_values[j : j + a_step], ns, thetas, rows

    def _check(self, a_part, ns, thetas, rows) -> None:
        """SweepRecord's probability checks, in its order of summing, on one block."""
        p_h, p_v, p_b = rows
        with np.errstate(invalid="ignore"):  # inf - inf makes a failing row, not a warning
            total = p_h + p_v + p_b
            ok = (p_h >= 0.0) & (p_v >= 0.0) & (p_b >= 0.0) & (abs(total - 1.0) <= _SUM_TOL)
        if not ok.all():
            j, i = divmod(int(ok.argmin()), ok.shape[1])  # the first failing row
            SweepRecord(self.model.value, a_part[j], ns[i], thetas[i], *rows[:, j, i].tolist())

    def records(self) -> list[SweepRecord]:
        """One SweepRecord per row, in row order."""
        model = self.model.value
        return [
            SweepRecord(model, a, n, t, p_h, p_v, p_b)
            for a_part, ns, thetas, rows in self._blocks()
            for a, hs, vs, bs in zip(a_part, *rows.tolist())
            for n, t, p_h, p_v, p_b in zip(ns, thetas, hs, vs, bs)
        ]

    def csv(self) -> Iterator[str]:
        """The text of ``to_csv(self.records())``: the header, then one chunk a block.

        A block's chunk is one ``%`` over a line template: each absorption's
        ``model,a,`` prefix is formatted once a block, and each count's
        ``n,theta,`` piece once for as long as consecutive blocks share its
        angles; the template's ``%s`` fields take the block's probabilities,
        formatted in one ``_format_reals`` call.
        """
        yield CSV_HEADER + "\n"
        model = self.model.value
        last = None
        for a_part, ns, thetas, rows in self._blocks():
            if thetas is not last:
                last = thetas
                if self.theta is None:
                    texts = _format_reals(thetas)
                else:  # one angle for every row, formatted once
                    texts = _format_reals(thetas[:1]) * len(ns)
                pieces = [f"{n},{t},%s,%s,%s" for n, t in zip(ns, texts)]
            prefixes = [f"{model},{a}," for a in _format_reals(a_part)]
            lines = [prefix + ("\n" + prefix).join(pieces) for prefix in prefixes]
            # the block's (p_h, p_v, p_b) in row order, absorption outer
            p = rows.transpose(1, 2, 0).ravel().tolist()
            yield ("\n".join(lines) + "\n") % tuple(_format_reals(p))


def _sweep_count(value, lo: int, name: str) -> int:
    """`_check_count` for a sweep's count of rows along one axis, at most sys.maxsize."""
    v = _check_count(value, lo, f"{name} must be >= {lo}")
    if v > sys.maxsize:  # len() of a longer range overflows
        raise ValueError(f"{name} must be no larger than {sys.maxsize}")
    return v


def _cycle_counts(n_max) -> range:
    return range(1, _sweep_count(n_max, 1, "n_max") + 1)


def _absorption_grid(steps) -> list[float]:
    steps = _sweep_count(steps, 2, "steps")
    return [i / (steps - 1) for i in range(steps)]


def sweep_cycles(a, n_max, model, theta=None) -> list[SweepRecord]:
    """Records for N = 1..n_max at fixed absorption.

    With theta=None each row uses its own switching angle pi/(2N).
    """
    return _Sweep([a], _cycle_counts(n_max), model, theta).records()


def sweep_absorption(n, steps, model, theta=None) -> list[SweepRecord]:
    """Records for absorption 0..1 in `steps` equal steps at fixed N.

    Endpoints 0 and 1 are always included exactly.
    """
    return _Sweep(_absorption_grid(steps), [n], model, theta).records()


def sweep_grid(n_max, a_steps, model, theta=None) -> list[SweepRecord]:
    """The full Cartesian product: absorption outer, cycles inner, both ascending."""
    return _Sweep(_absorption_grid(a_steps), _cycle_counts(n_max), model, theta).records()


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


def _format_reals(values) -> list[str]:
    """``[format_real(v) for v in values]``, most of it in one C-level pass.

    ``%#.17g`` formats the whole list at once: 17 correctly rounded
    significant digits, ties to even, trailing zeros kept, as numpy's
    Dragon4 gives them.  Its scientific texts (below 1e-4 and from 1e17 up),
    its whole numbers from 1e16 up (``10000000000000000.``), ``nan`` and
    ``inf`` are numpy's as they stand.  A positional text differs only where
    numpy's padding rule applies: a short exact expansion (``0.5``) or a
    rounding carry (0.25506902573942169532...) that numpy pads to 17 digits
    counting a leading 0, not to 17 significant digits.  Such a text ends in
    ``0``, so only a text that ends in ``0`` and holds no ``e`` goes to
    ``format_real``, once a value within the call (a zero keyed by its text,
    so 0.0 and -0.0 stay apart).
    """
    texts = ("%#.17g\n" * len(values) % tuple(values)).split("\n")
    del texts[-1]
    formatted = {}
    for i, text in enumerate(texts):
        if text[-1] == "0" and "e" not in text:
            v = values[i]
            key = v or str(v)
            text = formatted.get(key)
            if text is None:
                text = formatted[key] = format_real(v)
            texts[i] = text
    return texts


def to_csv(records) -> str:
    """The full CSV text: header plus one line per record, LF terminated."""
    records = iter(records)
    chunks = [CSV_HEADER + "\n"]
    # a block of records at a time, one line template and one _format_reals call each
    while block := list(islice(records, _BLOCK_ROWS)):
        template = "".join([f"{r.model},%s,{r.n},%s,%s,%s,%s\n" for r in block])
        reals = [x for r in block for x in (r.a, r.theta, r.p_h, r.p_v, r.p_b)]
        chunks.append(template % tuple(_format_reals(reals)))
    return "".join(chunks)


def write_csv(records, path) -> None:
    """Write to_csv(records) to `path` with LF line endings on any platform."""
    with open(path, "w", newline="") as f:
        f.write(to_csv(records))
