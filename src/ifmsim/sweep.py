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
layout and one number rule, so the CLI's bytes are those of ``to_csv``
over the records.  Each takes a block's reals through one ``_slots`` call,
which hands back a *slot* per value: its decade's text template holding a
``%d`` field, or the value's final text.  Each writer builds a line
template with the slots in place, ``to_csv`` one line per record and
``_Sweep.csv`` with each absorption's and count's fields formatted once,
and fills the block's int fields in one ``%`` pass.  A sweep has at most
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
``_digit_kernel`` makes the 17 digits in numpy arrays for +0.0 and every
value in [1e-6, 10), the decades of a sweep's absorptions, probabilities
and switching angles, and leaves every other value (below 1e-6, 10 and
above, negatives, -0.0, nan and inf) to ``_dtoa_texts``.  A list of at
least ``_KERNEL_MIN`` (100) values, such as a CSV block, goes through the
kernel; a shorter one, such as ``format_real``'s, does not, as below that
size the kernel's fixed cost outweighs what it saves.
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
from .operators import _count, _text

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
            raise ValueError(f"model must be one of {_MODEL_VALUES}, got {_text(model)}")
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"a must be in [0, 1], got {_text(a)}")
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be an integer >= 1, got {_text(n)}")
        if not -_MAX <= theta <= _MAX:  # an int beyond the float range too
            raise ValueError(f"theta must be finite, got {_text(theta)}")
        if not p_h >= 0.0:
            raise ValueError(f"p_h must be >= 0, got {_text(p_h)}")
        if not p_v >= 0.0:
            raise ValueError(f"p_v must be >= 0, got {_text(p_v)}")
        if not p_b >= 0.0:
            raise ValueError(f"p_b must be >= 0, got {_text(p_b)}")
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
        self.a_values = operators._probability(a_values, array=True)
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

        A block's reals go through one ``_slots`` call.  Its head, returned
        as texts, is the count slice's angles where the block starts a slice
        (an explicit theta's one angle), then the block's absorptions; its
        probabilities come back as slots.  So each count's ``n,theta,`` piece
        is formatted once a slice and each absorption's ``model,a,`` prefix
        once a block.  The block's line template joins prefixes, pieces,
        slots and separators in row order, and one ``%`` fills it with the
        slots' int fields.
        """
        yield CSV_HEADER + "\n"
        model = self.model.value
        last = None
        for start, a_part, ns, thetas, rows in self._blocks():
            if start == last:
                angles = []
            else:  # a new count slice: its angles, or an explicit theta once
                angles = thetas if self.theta is None else thetas[:1]
            # then the block's (p_h, p_v, p_b) in row order, absorption outer
            reals = np.concatenate((angles, a_part, rows.transpose(1, 2, 0).ravel()))
            texts, slots, fields = _slots(reals, len(angles) + len(a_part))
            if angles:
                last = start
                t_texts = texts[: len(angles)] if self.theta is None else texts[:1] * len(ns)
                pieces = np.array([f"{n},{t}," for n, t in zip(ns, t_texts)], object)
            prefixes = np.array([f"{model},{a}," for a in texts[len(angles) :]], object)
            # each line's prefix, piece, slots and separators, joined in row order
            cells = np.empty((len(a_part), len(ns), 8), object)
            cells[..., 0] = prefixes[:, None]
            cells[..., 1] = pieces
            cells[..., 2::2] = slots.reshape(len(a_part), len(ns), 3)
            cells[..., 3:6:2] = ","
            cells[..., 7] = "\n"
            template = "".join(cells.ravel().tolist())
            # the % pass, whose strings make the peak, holds none of the block's parts
            del reals, texts, slots, prefixes, cells
            yield template % fields


# A sweep's count of rows along one axis is at most sys.maxsize: len() of a
# longer range overflows.
def _cycle_counts(n_max) -> range:
    limit = f"n_max must be no larger than {sys.maxsize}"
    return range(1, _count(n_max, 1, "n_max must be >= 1", sys.maxsize, limit) + 1)


def _absorption_grid(steps) -> np.ndarray:
    limit = f"steps must be no larger than {sys.maxsize}"
    steps = _count(steps, 2, "steps must be >= 2", sys.maxsize, limit)
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


# Lists of at least this many reals take the texts of +0.0 and of
# [1e-6, 10) from _digit_kernel; a shorter list, the empty one included, is
# formatted by _dtoa_texts alone, as the kernel's fixed cost of ~45 numpy calls
# there outweighs what it saves.  Measured break-even: ~100 values for the
# texts of uniform values in [0, 1) or of switching angles, ~40 for a grid's
# probabilities, and ~65 where the caller takes slots.
_KERNEL_MIN = 100


def _split(x):
    """Veltkamp's split of float64 ``x`` into a 26-bit high part and the exact rest."""
    t = 134217729.0 * x  # 2**27 + 1
    high = t - (t - x)
    return high, x - high


# A value's kind is its place among the bit patterns of _EDGES, which order
# as the non-negative doubles do, with every negative double below them: 0
# negative (-0.0 too), 1 +0.0, 2 below 1e-6, 3 to 9 the decades [1e-6, 1e-5)
# to [1, 10), and kind 10 for 10 and above, inf and nan.  Each edge literal is the
# smallest double >= its power of ten (1e-6's is the double above 1e-6, which
# lies below 10**-6), so the classes are exact decades.  Kind k holds the
# decade [10**(k - 9), 10**(k - 8)), whose 17 digits are v * 10**(25 - k).
_EDGES = np.array(
    [0.0, 5e-324, 1.0000000000000002e-06] + [float(f"1e{e}") for e in range(-5, 2)]
).view(np.int64)
_KINDS = np.arange(len(_EDGES) + 1)
_IN_DECADE = (_KINDS >= 3) & (_KINDS <= 9)
_ELSEWHERE = ~_IN_DECADE & (_KINDS != 1)
# Each kind's slot by D's first digit: the text with one %d field for the
# rest of D.  Scientific texts and [1, 10) hold the first digit before the
# point.
_TEMPLATES = np.empty((len(_KINDS), 10), object)
_TEMPLATES[1] = "0.0000000000000000"
_TEMPLATES[3] = [f"{j}.%016de-06" for j in range(10)]
_TEMPLATES[4] = [f"{j}.%016de-05" for j in range(10)]
_TEMPLATES[5:9] = np.array(["0.000%d", "0.00%d", "0.0%d", "0.%d"], object)[:, None]
_TEMPLATES[9] = [f"{j}.%016d" for j in range(10)]
# 10**16 where the first digit is in the slot, else 0
_FIRST = np.where(np.isin(_KINDS, (3, 4, 9)), 10**16, 0)
# 10**(25 - kind), exact as every power of ten up to 10**22 is, and its split
_SCALES = np.array([1.0] * 3 + [float(10 ** (25 - k)) for k in range(3, 10)] + [1.0])
_SCALES_HIGH, _SCALES_LOW = _split(_SCALES)
# the trailing zeros numpy's rule may drop below 1, z + 1 for z zeros after
# the point, and 10**j for each j of them
_PADS = np.where((_KINDS >= 5) & (_KINDS <= 8), 9 - _KINDS, 0)
_TENS = np.array([1, 10, 100, 1000, 10000])


def _format_reals(values) -> list[str]:
    """The CSV contract's text of each real, worked out one of two exact ways.

    A list of at least ``_KERNEL_MIN`` (100) values takes the texts of +0.0
    and of values in [1e-6, 10) from ``_digit_kernel``, as its slots
    filled in one ``%`` pass, and every other text from ``_dtoa_texts``; a
    shorter list takes all of them from ``_dtoa_texts``.  Both write the
    same bytes.  The CSV writers take slots from ``_slots`` instead.
    """
    return _slots(values, len(values))[0]


def _slots(values, head: int) -> tuple[list[str], np.ndarray, tuple[int, ...]]:
    """The texts of ``values[:head]``, and the slots and int fields of the rest.

    ``values`` is a list or a float64 array, and the slots are an object
    array of str.  ``"".join(slots) % fields`` is the rest's text, and so is
    any layout that keeps the slots in order and adds no ``%``.  A list
    shorter than ``_KERNEL_MIN`` takes every text from ``_dtoa_texts``, so
    its slots are texts and it has no fields.
    """
    if len(values) < _KERNEL_MIN:
        texts = _dtoa_texts(values)
        return texts[:head], np.array(texts[head:], object), ()
    return _digit_kernel(values, head)


def _digit_kernel(values, head: int) -> tuple[list[str], np.ndarray, tuple[int, ...]]:
    """``_slots`` with the 17 digits of +0.0 and [1e-6, 10) made in numpy.

    For v in the decade [10**e, 10**(e + 1)), v * 10**(16 - e) is hi + lo
    exactly (Dekker's product), as 10**(16 - e) <= 10**22 is exact.  hi is at
    least 10**16 > 2**53, so it is an even integer, and D = hi + rint(lo) is
    the 17-digit decimal, rounded half to even.  D never reaches 10**17:
    the double below each power of ten is more than half a 17th digit below
    it.  numpy's rule applies below 1, where D ends in 0 and D - hi >= lo:
    it drops up to z + 1 trailing zeros for z zeros after the point, which
    is stripping them all and padding back to 16 decimals.  Each value's
    slot is its decade's template for D's first digit, and its one field is
    the rest of D: ``1.%016de-05``, ``0.00%d`` or ``3.%016d``.  +0.0's
    text and the other values' texts, from ``_dtoa_texts``, are slots as
    they are, none holding a ``%``.  The head's slots are filled here, in
    one ``%`` pass.
    """
    v = np.asarray(values, dtype=float)
    kind = np.searchsorted(_EDGES, v.view(np.int64), "right")
    digits = np.flatnonzero(_IN_DECADE[kind])
    k = kind[digits]
    d = v[digits]
    hi = d * _SCALES[k]
    d_high, d_low = _split(d)
    s_high, s_low = _SCALES_HIGH[k], _SCALES_LOW[k]
    lo = ((d_high * s_high - hi) + d_high * s_low + d_low * s_high) + d_low * s_low
    up = np.rint(lo)
    n = hi.astype(np.int64)
    n += up.astype(np.int64)
    lead = n // 10**16  # D's first digit
    first = np.zeros(len(v), np.intp)
    first[digits] = lead
    n -= lead * _FIRST[k]
    rule = np.flatnonzero((up >= lo) & (_PADS[k] > 0))
    rule = rule[n[rule] % 10 == 0]
    if len(rule):
        m = n[rule]  # D's trailing zeros, at most z + 1 of them
        zeros = (m[:, None] % _TENS[1:] == 0) & (np.arange(1, 5) <= _PADS[k[rule], None])
        n[rule] = m // _TENS[zeros.sum(1)]
    slots = _TEMPLATES[kind, first]
    split = int(np.searchsorted(digits, head))
    # the text pass, whose strings make the peak, holds none of these arrays
    del v, digits, k, d, hi, d_high, d_low, s_high, s_low, lo, up, lead, first
    fields = n.tolist()
    del n
    rest = np.flatnonzero(_ELSEWHERE[kind])
    if len(rest):
        slots[rest] = _dtoa_texts([values[i] for i in rest.tolist()])
    texts = ("\n".join(slots[:head].tolist()) % tuple(fields[:split])).split("\n") if head else []
    return texts, slots[head:], tuple(fields[split:])


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
    # a block of records at a time: one _slots call, one line template holding
    # the slots, and one % pass that fills their fields
    while block := list(islice(records, _BLOCK_ROWS)):
        reals = [x for r in block for x in (r.a, r.theta, r.p_h, r.p_v, r.p_b)]
        _, slots, fields = _slots(reals, 0)
        template = "".join([
            f"{r.model},{a},{r.n},{t},{h},{v},{b}\n"
            for r, (a, t, h, v, b) in zip(block, zip(*[iter(slots.tolist())] * 5))
        ])  # fmt: skip
        chunks.append(template % fields)
    return "".join(chunks)


def write_csv(records, path) -> None:
    """Write to_csv(records) to `path` with LF line endings on any platform."""
    with open(path, "w", newline="") as f:
        f.write(to_csv(records))
