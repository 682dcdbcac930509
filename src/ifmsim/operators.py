"""Constructors for every operator the simulator uses.

The photon lives in the basis {|H>, |V>, |B>}: horizontal polarization,
vertical polarization, and an absorbed/"blown up" record state.  Indices are
fixed as H=0, V=1, B=2 everywhere.

Operators built here:

* ``rotator2`` / ``rotator3`` -- polarization rotation by an angle, as a 2x2
  matrix or embedded in the 3x3 space with |B> untouched.
* ``rotator_eigen`` / ``rotator_power`` -- the eigendecomposition of the 2x2
  rotator and the closed form for its n-th power.
* ``absorption`` -- unitary coupling of |V> to |B> with interaction
  probability ``a``; irreversibility comes from the per-cycle measurement in
  the evolution step, not from this matrix.
* ``projector`` -- the measurement projectors onto basis states or onto the
  not-absorbed subspace span{|H>, |V>}.
* ``switching_angle`` -- the angle pi/(2n) that walks |H> to |V> in n cycles.

``rotator2``, ``rotator3``, ``absorption`` and ``rotator_power`` also take
arrays (``rotator_power`` broadcasts its angle against its count) and
return a ``(..., d, d)`` stack, one matrix per element, each bit for bit
the matrix of that element's scalar call.  A scalar argument gives one
``(d, d)`` matrix through the same code.  ``rotator_eigen`` takes arrays
the same way: its values are a ``(..., 2)`` and its vectors a
``(..., 2, 2)`` stack.  ``switching_angle`` takes an array of counts and
returns an array of angles, each bit for bit its scalar call's float.

Each of the model's inputs has one converter, used wherever it enters the
package:

* ``_probability`` -- an absorption probability converts as ``float()``
  reads it, numeric strings included.  What ``float()`` cannot read raises
  that call's TypeError or ValueError; a value outside [0, 1], NaN, inf and
  an int beyond the float range among them, raises ValueError naming it.
* ``_angle`` -- an angle converts the same way.  A value that is not
  finite raises ValueError with the site's message.
* ``_count`` -- a count is an int, or a value equal to one.  No count
  raises TypeError.  Anything else, a string, None, NaN and inf among
  them, and a count below the site's least raise ValueError with the
  site's message; a count above the site's limit raises ValueError with
  that limit's message.  The limits: the largest float for a count in
  float arithmetic, ``sys.maxsize`` for a sweep's rows along one axis, and
  2^64 - 1 for a seed, a trajectory index or a key.

A message shows a value as its repr, or as "an int of N digits" past
4,300 digits, whatever limit the interpreter sets on writing an int as
text.  A Python int or float converts without numpy.  With ``array=True``
an array converts in one vectorized pass; when that fails, its elements go
through the scalar converter as objects, so an element fails in a list as
it fails alone: the first that is not a number raises its TypeError, and
otherwise the first that fails raises its ValueError.
"""

from __future__ import annotations

import contextlib
import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Basis",
    "NOT_B",
    "EigenDecomposition",
    "rotator2",
    "rotator_eigen",
    "rotator_power",
    "rotator3",
    "absorption",
    "projector",
    "switching_angle",
]


class Basis(enum.IntEnum):
    """Basis labels; the integer value is the matrix index."""

    H = 0
    V = 1
    B = 2


# Label accepted by `projector` for the not-absorbed subspace span{|H>, |V>}.
NOT_B = "not_b"


# The largest count the float formulas (n*theta, pi/(2n), cos^(2n) theta)
# take: a larger int overflows, or rounds down to it, on conversion.
_MAX_COUNT = sys.float_info.max


def _text(x) -> str:
    """`x` as a message shows it: its repr, or "an int of N digits" past 4,300 digits."""
    if type(x) is not int:
        return repr(x)
    # the digits of 2**(bit_length - 1), plus one if x reaches the next power of ten
    digits = int((x.bit_length() - 1) * math.log10(2)) + 1
    digits += abs(x) >= 10**digits
    if digits > 4300:  # Python's default limit on the digits of an int written as text
        return f"an int of {digits} digits"
    # Decimal writes an int whatever limit the interpreter sets; only a message needs it
    import decimal

    return str(decimal.Decimal(x))


def _elements(x, kinds: str, valid, scalar, *args) -> np.ndarray:
    """`x` as a float array, shaped as it is, each element as ``scalar(element, *args)`` returns it.

    One vectorized pass suffices when x's dtype kind is one of `kinds` and
    `valid` holds for every converted element.  Otherwise each element
    goes through `scalar` as the object it is: the first that raises a
    TypeError raises it, else the first that raises a ValueError does.
    """
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        raw = np.asarray(x)
        if raw.dtype.kind in kinds:
            v = raw.astype(float)
            if valid(v).all():
                return v
    objects = np.asarray(x, dtype=object)
    values, error = [], None
    for element in objects.flat:
        try:
            values.append(scalar(element, *args))
        except ValueError as e:
            error = error or e
    if error is not None:
        raise error
    return np.array(values, dtype=float).reshape(objects.shape)


def _angle(theta, message: str = "angle must be finite", array: bool = False):
    """`theta` as a float, finite; ValueError(message) otherwise, an int beyond the float range too.

    With `array`, a `theta` of one or more dimensions gives a float array
    (see `_elements`).
    """
    if array and not isinstance(theta, (int, float)) and np.ndim(theta):
        return _elements(theta, "biufOSU", np.isfinite, _angle, message)
    try:
        t = float(theta)
    except OverflowError:  # an int beyond the float range
        raise ValueError(message) from None
    if not math.isfinite(t):
        raise ValueError(message)
    return t


def _probability(a, array: bool = False):
    """`a` as a float in [0, 1]; ValueError otherwise, inf, NaN and huge ints included.

    With `array`, an `a` of one or more dimensions gives a float array
    (see `_elements`).
    """
    if array and not isinstance(a, (int, float)) and np.ndim(a):
        return _elements(a, "biufOSU", lambda v: (v >= 0.0) & (v <= 1.0), _probability)
    try:
        v = float(a)
    except OverflowError:  # an int beyond the float range is outside [0, 1]
        v = math.inf
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"absorption probability must be in [0, 1], got {_text(a)}")
    return v


def _count(n, lo: int, message: str, limit=None, limit_message=None, array: bool = False):
    """`n` as an int in [lo, limit]; ValueError(message) below lo or not an integer.

    A string, inf and NaN are not integers.  Above `limit` the ValueError
    says `limit_message`, by default "`message` no larger than `limit`".
    With `array`, an `n` of one or more dimensions gives a float array of
    its counts (see `_elements`); it must hold numbers, not strings.
    """
    if array and not isinstance(n, (int, float)) and np.ndim(n):
        top = math.inf if limit is None else limit  # a float equal to it is walked as an int
        # bound as defaults: a closure's cells would slow every scalar call
        integral = lambda v, lo=lo, top=top: (v >= lo) & (v < top) & (v == np.floor(v))
        return _elements(n, "biuf", integral, _count, lo, message, limit, limit_message)
    try:
        v = int(n)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(message) from None
    if v != n or v < lo:
        raise ValueError(message)
    if limit is not None and v > limit:
        raise ValueError(limit_message or f"{message} no larger than {limit!r}")
    return v


def _rotation(theta, dim: int) -> np.ndarray:
    """Rotation by `theta` in the {|H>, |V>} plane of a `dim`-dimensional space.

    One (dim, dim) matrix per element of `theta`, identity outside the plane.
    """
    t = _angle(theta, array=True)
    c, s = np.cos(t), np.sin(t)
    m = np.zeros(np.shape(t) + (dim, dim), dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = c
    m[..., 0, 1] = -s
    m[..., 1, 0] = s
    if dim == 3:
        m[..., 2, 2] = 1.0
    return m


def rotator2(theta) -> np.ndarray:
    """2x2 polarization rotator [[cos t, -sin t], [sin t, cos t]].

    An array of angles gives a (..., 2, 2) stack.
    """
    return _rotation(theta, 2)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues and matching unit eigenvectors (as columns) of a 2x2 matrix."""

    values: np.ndarray  # shape (..., 2)
    vectors: np.ndarray  # shape (..., 2, 2); vectors[..., :, k] pairs with values[..., k]


def rotator_eigen(theta) -> EigenDecomposition:
    """Closed-form eigendecomposition of ``rotator2(theta)``.

    The eigenvalues are exp(-i*theta) and exp(+i*theta), paired with the
    eigenvectors (1, i)/sqrt(2) and (1, -i)/sqrt(2).  The first component of
    each eigenvector is real and positive, which fixes the overall phase.
    An array of angles gives one decomposition per element, stacked; both
    arrays are fresh and writable.
    """
    t = _angle(theta, array=True)
    values = np.stack([np.exp(-1j * t), np.exp(1j * t)], axis=-1)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    vectors = np.empty(np.shape(t) + (2, 2), dtype=complex)
    vectors[...] = [[inv_sqrt2, inv_sqrt2], [1j * inv_sqrt2, -1j * inv_sqrt2]]
    return EigenDecomposition(values=values, vectors=vectors)


def rotator_power(theta, n) -> np.ndarray:
    """n-th power of ``rotator2(theta)`` from the closed form, not iteration.

    The rotator's powers are rotations themselves, so the result is
    ``rotator2(n*theta)``.  The accumulated angle is the float product
    n * theta, reduced modulo 2*pi before the trig evaluation.  The
    reduction is exact, but the product is exact only where it does not
    round; else it is off by up to half an ulp of n*theta, which grows
    with n: the squared cosine entry is off by 1.17e-9 at (theta, n) =
    (0.3, 1e8) and 9.14e-2 at (2.5, 1e15), against 80-digit mpmath.  An
    exact reduction is ROADMAP item 21.  `theta` and `n` broadcast against
    each other; arrays give a (..., 2, 2) stack.
    """
    nv = _count(n, 0, "n must be a non-negative integer", _MAX_COUNT, array=True)
    t = _angle(theta, array=True)
    # an n*theta beyond the float range is an angle rotator2 rejects as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.fmod(nv * t, 2.0 * math.pi)
    return rotator2(phi)


def rotator3(theta) -> np.ndarray:
    """Rotator on {|H>, |V>} embedded in 3x3, acting as identity on |B>.

    An array of angles gives a (..., 3, 3) stack.
    """
    return _rotation(theta, 3)


def absorption(a) -> np.ndarray:
    """Unitary absorption coupling for interaction probability ``a``.

        [[1, 0,         0        ],
         [0, sqrt(1-a), -sqrt(a) ],
         [0, sqrt(a),   sqrt(1-a)]]

    Rotates the {|V>, |B>} plane so a photon in the particle's arm is moved
    to |B> with amplitude sqrt(a).  The -sqrt(a) entry is the reverse
    (emission) amplitude from |B> back to |V>; the per-cycle projective
    measurement in the evolution step is what prevents that return path from
    ever acting.  An array of probabilities gives a (..., 3, 3) stack.
    """
    av = _probability(a, array=True)
    r, q = np.sqrt(1.0 - av), np.sqrt(av)
    m = np.zeros(np.shape(av) + (3, 3), dtype=complex)
    m[..., 0, 0] = 1.0
    m[..., 1, 1] = m[..., 2, 2] = r
    m[..., 1, 2] = -q
    m[..., 2, 1] = q
    return m


def projector(label) -> np.ndarray:
    """Projector onto a basis state, or onto span{|H>, |V>} for ``NOT_B``.

    Accepts a ``Basis`` member or the string ``"not_b"``.
    """
    m = np.zeros((3, 3), dtype=complex)
    if label == NOT_B:
        m[Basis.H, Basis.H] = 1.0
        m[Basis.V, Basis.V] = 1.0
        return m
    b = Basis(label)
    m[b, b] = 1.0
    return m


def switching_angle(n) -> float | np.ndarray:
    """The per-cycle angle pi/(2n) that maps |H> to |V> after n cycles.

    An array of counts gives an array of angles, each bit for bit its
    element's scalar call; a scalar count gives a float.
    """
    n = _count(n, 1, "cycle count must be a positive integer", _MAX_COUNT, array=True)
    # (pi/2)/n rounds the same real number as pi/(2n), without overflowing 2n
    return 0.5 * math.pi / n
