"""Parameter sweeps over the channel evolution, emitted as CSV tables.

Three sweep shapes cover the standard plots: probability versus cycle count
at fixed absorption, probability versus absorption at fixed cycle count, and
the full (absorption x cycles) grid for heatmaps.  Rows come in
deterministic (a, n) order, absorption outer and cycles inner.  One path
evaluates every sweep: parameters are checked once, the first row by a
CycleConfig and each absorption by CycleConfig's own check of it; the
evolution engine's stacked driver then evolves the rows in blocks of about
4,096, one call a block, into (p_h, p_v, p_b) columns of 24 bytes a row,
and each block is checked with SweepRecord's own checks as it lands.  A
row is bit for bit the record ``run_single`` gives for its own
configuration through the float driver, whatever block it is in.  The
public ``sweep_*`` functions build a SweepRecord per row from the columns;
the CLI's sweep commands skip the records and format the columns straight
into CSV text, one chunk a block, once every row has passed.  Evaluation,
row checks, records and CSV text all walk the same blocks, each with its
counts and angles computed in one place.  Both writers share one line
layout and one number rule, written a block at a time by ``_format_reals``
(``format_real`` is its one-value call), so the CLI's bytes are those of
``to_csv`` over the records.  They fill it through two line templates,
kept apart on purpose: ``to_csv`` makes one per record, ``_Sweep.csv`` one
per block with each absorption's and count's fields formatted once, and
one template per row for both was measured slower.  A sweep has at most
``sys.maxsize`` counts and absorptions, the most a Python sequence can
hold.  The counts are a range, or a list of one, and each block's angles
are one ``switching_angle`` call on its counts; the absorption grid is one
float64 array, which numpy refuses with a MemoryError or ValueError when
it is too large to allocate.

CSV contract: header ``model,a,n,theta,p_h,p_v,p_b``; lines end with a
single line feed, including the last.  Every real is written with 17
significant digits, correctly rounded with ties to even, so values
round-trip losslessly and output is byte-stable.  Notation is positional
for zero and for magnitudes in [1e-4, 1e17), scientific (``d.<16
digits>e±XX``) otherwise, chosen from the unrounded value.  One rule,
numpy's, changes a positional text below 1 that ends in ``0``: where its
17-digit decimal D is at least |v|, the expansion being exact (0.5) or the
rounding having carried (0.25506902573942169532...), the text drops its
trailing zeros and is padded back to 16 decimals: ``0.5000000000000000``,
``0.0001220703125000``, ``0.2550690257394217``.  Where D < |v| the text
stands: ``0.00010000000000000000`` for 1e-4.

The rule is computed two ways, which write the same bytes.
``_dtoa_texts`` formats a list in one ``%#.17g`` pass, CPython's
correctly rounded conversion, then tests the padding rule in integers.
``_digit_kernel`` makes the 17 digits in numpy arrays for the values that
fill probability columns, +0.0 and [1e-4, 1), and leaves every other
value to ``_dtoa_texts``.  A list of at least ``_KERNEL_MIN`` (150) values,
such as a CSV block, goes through the kernel; a shorter one, such as
``format_real``'s, does not, as below that size the kernel's fixed cost
outweighs what it saves.
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

# each model's string, read without the Enum's slow ``value`` property
_MODEL_VALUE = {m: m.value for m in ParticleModel}
_MODEL_VALUES = tuple(_MODEL_VALUE.values())
_MAX = sys.float_info.max

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
        if not -_MAX <= theta <= _MAX:  # an int beyond the float range too
            raise ValueError(f"theta must be finite, got {theta!r}")
        if not p_h >= 0.0:
            raise ValueError(f"p_h must be >= 0, got {p_h!r}")
        if not p_v >= 0.0:
            raise ValueError(f"p_v must be >= 0, got {p_v!r}")
        if not p_b >= 0.0:
            raise ValueError(f"p_b must be >= 0, got {p_b!r}")
        try:
            total = p_h + p_v + p_b
            off = abs(total - 1.0)
        except OverflowError:  # ints beyond the float range, taken as the inf they round to
            total = off = math.inf
        if not off <= _SUM_TOL:
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
    n, a = config.n, config.a
    theta = operators.switching_angle(n) if config.theta is None else config.theta
    h, _, v, b = _evolve_one(config.model, theta, a, n)
    # the dust clamp of ``probabilities``, inline: through a helper and its tuple
    # it took ~1 us a record
    return SweepRecord(
        _MODEL_VALUE[config.model], a, n, theta,
        0.0 if -_CLAMP_TOL <= h < 0.0 else h,
        0.0 if -_CLAMP_TOL <= v < 0.0 else v,
        0.0 if -_CLAMP_TOL <= b < 0.0 else b,
    )  # fmt: skip


# Rows per stacked engine call, and per chunk of CSV text.
_BLOCK_ROWS = 4096


class _Sweep:
    """One sweep's (a, n) rows, absorption outer and cycles inner, as columns.

    Construction checks the parameters, the first row with a CycleConfig
    and each later absorption with the same check, raising what the first
    failing row's own CycleConfig would.  It then evolves the rows in
    blocks of about ``_BLOCK_ROWS``, one stacked engine call a block, into
    one (3, K, G) array of clamped (p_h, p_v, p_b): 24 bytes a row; columns
    that cannot be allocated raise a ValueError naming the rows and bytes.
    Each block is checked as it lands, with SweepRecord's probability
    checks, and the first failing row raises its SweepRecord's own message.
    So a constructed sweep holds only rows that ``records`` and ``csv`` can
    emit.  All three walk the rows through ``_blocks``.  ``n_values`` is a
    range of int counts (``_cycle_counts``) or a list of one count.
    """

    def __init__(self, a_values, n_values, model, theta) -> None:
        first = CycleConfig(model=model, a=a_values[0], n=n_values[0], theta=theta)
        self.model, self.theta = first.model, first.theta
        # a lone count is replaced by the int CycleConfig made of it
        self.n_values = n_values if len(n_values) > 1 else [first.n]
        # the first row checked the model, n and theta, so a later row can fail
        # only CycleConfig's check of `a`, after which absent sets a to 0
        self.a_values = operators._check_probabilities(a_values)
        if first.model is ParticleModel.ABSENT:
            self.a_values = np.zeros_like(self.a_values)
        k, g = len(a_values), len(n_values)
        try:
            self.p = np.empty((3, k, g))
        except MemoryError:
            raise ValueError(
                f"a sweep of {k * g} rows needs {24 * k * g} bytes of columns, "
                "more than can be allocated"
            ) from None
        for _, a_part, ns, thetas, rows in self._blocks():
            p = _evolve_stack(self.model, thetas, a_part, ns)[(0, 2, 3),]
            p[(-_CLAMP_TOL <= p) & (p < 0.0)] = 0.0  # the dust clamp of ``probabilities``
            rows[...] = p.swapaxes(1, 2)
            self._check(a_part, ns, thetas, rows)

    def _blocks(self) -> Iterator[tuple[int, list, list, list, np.ndarray]]:
        """Each block's first count's index, absorptions, counts, angles and view of ``self.p``.

        Blocks come in row order, each with its (3, k, g) view.  A block is a
        slice of one absorption's counts when there are at least
        ``_BLOCK_ROWS`` counts, else every count for as many absorptions as
        fit.  With the switching angle, a block's angles come from one
        ``switching_angle`` call on its counts, as an array.
        """
        k, g = len(self.a_values), len(self.n_values)
        a_step, n_step = (1, _BLOCK_ROWS) if g >= _BLOCK_ROWS else (_BLOCK_ROWS // g, g)
        for j in range(0, k, a_step):
            for i in range(0, g, n_step):
                ns = list(self.n_values[i : i + n_step])
                if self.theta is None:  # switching_angle looked up per call, as run_single does
                    thetas = operators.switching_angle(np.array(ns)).tolist()
                else:
                    thetas = [self.theta] * len(ns)
                rows = self.p[:, j : j + a_step, i : i + n_step]
                yield i, self.a_values[j : j + a_step].tolist(), ns, thetas, rows

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
            for _, a_part, ns, thetas, rows in self._blocks()
            for a, hs, vs, bs in zip(a_part, *rows.tolist())
            for n, t, p_h, p_v, p_b in zip(ns, thetas, hs, vs, bs)
        ]

    def csv(self) -> Iterator[str]:
        """The text of ``to_csv(self.records())``: the header, then one chunk a block.

        A block's chunk is one ``%`` over a line template: each absorption's
        ``model,a,`` prefix is formatted once a block, and each count's
        ``n,theta,`` piece once for as long as consecutive blocks share its
        count slice; the template's ``%s`` fields take the block's
        probabilities, formatted in one ``_format_reals`` call.
        """
        yield CSV_HEADER + "\n"
        model = self.model.value
        last = None
        for start, a_part, ns, thetas, rows in self._blocks():
            if start != last:
                last = start
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


def _absorption_grid(steps) -> np.ndarray:
    steps = _sweep_count(steps, 2, "steps")
    grid = np.arange(steps) / (steps - 1)  # i / (steps - 1), each operand exact
    if len(grid) != steps:  # numpy's arange comes back empty near sys.maxsize
        raise ValueError(f"an absorption grid of {steps} steps cannot be allocated")
    return grid


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
    """Render a float by the CSV contract's rule: 17 digits, round-trip exact.

    Positional notation for 0 and for magnitudes in [1e-4, 1e17);
    scientific notation otherwise.
    """
    return _format_reals([float(x)])[0]


# Lists of at least this many reals take the texts of +0.0 and of [1e-4, 1)
# from _digit_kernel; a shorter list, the empty one included, is formatted by
# _dtoa_texts alone, as the kernel's fixed cost of ~40 numpy calls there
# outweighs what it saves (measured break-even: ~150 values).
_KERNEL_MIN = 150


def _split(x):
    """Veltkamp's split of float64 ``x`` into a 26-bit high part and the exact rest."""
    t = 134217729.0 * x  # 2**27 + 1
    high = t - (t - x)
    return high, x - high


# A value's kind is its place among the bit patterns of _EDGES, which order
# as the non-negative doubles do, with every negative double below them: 0
# negative (-0.0 too), 1 +0.0, 2 below 1e-4, 3 to 6 the decades [1e-4, 1e-3)
# to [0.1, 1), and 7 for 1 and above, inf and nan.  Each edge literal is the
# smallest double >= its power of ten, so the classes are exact decades.
_EDGES = np.array([0.0, 5e-324, 1e-4, 1e-3, 1e-2, 1e-1, 1.0]).view(np.int64)
_IN_DECADE = np.array([False, False, False, True, True, True, True, False])
_ELSEWHERE = np.array([True, False, True, False, False, False, False, True])
_TEMPLATES = np.array(
    [None, "0.0000000000000000", None, "0.000%d", "0.00%d", "0.0%d", "0.%d", None], object
)
# 10**(23 - kind), exact as every power of ten up to 10**22 is, and its split
_SCALES = np.array([1.0, 1.0, 1.0, 1e20, 1e19, 1e18, 1e17, 1.0])
_SCALES_HIGH, _SCALES_LOW = _split(_SCALES)
# 10**j for the j <= 4 trailing zeros numpy's rule may drop
_TENS = np.array([1, 10, 100, 1000, 10000])


def _format_reals(values) -> list[str]:
    """The CSV contract's text of each real, worked out one of two exact ways.

    A list of at least ``_KERNEL_MIN`` values takes the texts of +0.0 and
    of values in [1e-4, 1) from ``_digit_kernel``, and every other text
    from ``_dtoa_texts``; a shorter list takes all of them from
    ``_dtoa_texts``.  Both write the same bytes.
    """
    if len(values) < _KERNEL_MIN:
        return _dtoa_texts(values)
    return _digit_kernel(values)


def _digit_kernel(values) -> list[str]:
    """The texts of ``values``, with the 17 digits of +0.0 and [1e-4, 1) made in numpy.

    For v in [1e-4, 1), with z zeros after the point, v * 10**(17 + z) is
    hi + lo exactly (Dekker's product).  hi is at least 10**16 > 2**53, so
    it is an even integer, and D = hi + rint(lo) is the 17-digit decimal,
    rounded half to even.  D never reaches 10**17: the double below each
    power of ten is more than half a 17th digit below it.  numpy's rule
    applies where D ends in 0 and D - hi >= lo: it drops up to z + 1
    trailing zeros, which is stripping them all and padding back to 16
    decimals.  Then one ``%`` pass writes each D into its decade's
    template; +0.0's text and the other values' texts, from
    ``_dtoa_texts``, stand in the template as they are, none holding a ``%``.
    """
    v = np.array(values, dtype=float)
    kind = np.searchsorted(_EDGES, v.view(np.int64), "right")
    digits = _IN_DECADE[kind]
    k = kind[digits]  # with z = 6 - k zeros after the point
    d = v[digits]
    hi = d * _SCALES[k]
    d_high, d_low = _split(d)
    s_high, s_low = _SCALES_HIGH[k], _SCALES_LOW[k]
    lo = ((d_high * s_high - hi) + d_high * s_low + d_low * s_high) + d_low * s_low
    up = np.rint(lo)
    n = hi.astype(np.int64)
    n += up.astype(np.int64)
    rule = np.flatnonzero((n % 10 == 0) & (up >= lo))
    if len(rule):
        m = n[rule]  # D's trailing zeros, at most z + 1 of them
        zeros = (m[:, None] % _TENS[1:] == 0) & (np.arange(1, 5) <= 7 - k[rule, None])
        n[rule] = m // _TENS[zeros.sum(1)]
    # the text pass, whose strings make the peak, holds none of these arrays
    del v, k, d, hi, d_high, d_low, s_high, s_low, lo, up
    texts = _TEMPLATES[kind]
    rest = np.flatnonzero(_ELSEWHERE[kind])
    if len(rest):
        texts[rest] = _dtoa_texts([values[i] for i in rest.tolist()])
    return ("\n".join(texts.tolist()) % tuple(n.tolist())).split("\n")


def _dtoa_texts(values) -> list[str]:
    """The CSV contract's text of each real: one C-level pass, one exact test.

    ``%#.17g`` formats the whole list at once, and its text stands unless
    it is positional, below 1 and ends in ``0``.  For such a text, D >= |v|
    is tested in integers: D's digits times the denominator of |v|'s
    ``as_integer_ratio`` against its numerator times 10 to the number of
    decimals.
    """
    texts = ("%#.17g\n" * len(values) % tuple(values)).split("\n")
    del texts[-1]
    for i, text in enumerate(texts):
        if text[-1] == "0" and text.startswith(("0.", "-0.")):
            head, _, decimals = text.partition(".")
            numerator, denominator = abs(float(values[i])).as_integer_ratio()
            if int(decimals) * denominator >= numerator * 10 ** len(decimals):
                texts[i] = f"{head}.{decimals.rstrip('0'):0<16}"
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
