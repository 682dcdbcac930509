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
"""

from __future__ import annotations

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


def _check_angle(theta) -> np.ndarray:
    """`theta` as a float array, 0-d for a scalar; ValueError unless every element is finite.

    numpy converts None to NaN, so an element that is not a number raises
    ``float``'s TypeError for it instead, naming its type.
    """
    t = np.asarray(theta, dtype=float)
    if not np.isfinite(t).all():
        for x in np.asarray(theta, dtype=object).flat:
            float(x)
        raise ValueError("angle must be finite")
    return t


def _check_probability(a) -> float:
    """`a` as a float in [0, 1]; ValueError otherwise, inf and NaN included."""
    av = float(a)
    if not 0.0 <= av <= 1.0:
        raise ValueError(f"absorption probability must be in [0, 1], got {a!r}")
    return av


def _check_probabilities(a) -> np.ndarray:
    """`a` as a float array, 0-d for a scalar, with every element in [0, 1].

    The first element outside [0, 1], inf and NaN included, raises
    `_check_probability`'s ValueError for that element as a Python float.
    """
    av = np.asarray(a, dtype=float)
    outside = ~((av >= 0.0) & (av <= 1.0))
    if outside.any():
        _check_probability(a if av.ndim == 0 else av[outside][0].item())
    return av


def _check_count(value, lo: int, message: str) -> int:
    """`value` as an int >= lo; ValueError(message) otherwise, inf and NaN included."""
    try:
        v = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(message) from None
    if v != value or v < lo:
        raise ValueError(message)
    return v


def _check_float_count(value, lo: int, message: str) -> int:
    """`_check_count`, and at most `_MAX_COUNT`, for a count used in float arithmetic."""
    v = _check_count(value, lo, message)
    if v > _MAX_COUNT:
        raise ValueError(f"{message} no larger than {_MAX_COUNT!r}")
    return v


def _check_counts(n, lo: int, message: str) -> np.ndarray | float:
    """`n` as a float array, or a float for a scalar, of integers in [lo, `_MAX_COUNT`].

    A scalar goes through `_check_float_count`; an array raises
    ValueError(message) if any element is not such an integer, and
    `_check_float_count`'s ValueError for an int too large to convert.
    """
    # a Python number skips np.ndim, which would convert it to an array
    if isinstance(n, (int, float)) or np.ndim(n) == 0:
        return float(_check_float_count(n, lo, message))
    try:
        nv = np.asarray(n, dtype=float)
    except OverflowError:  # an int that rounds to 2**1024 or more
        raise ValueError(f"{message} no larger than {_MAX_COUNT!r}") from None
    if not (np.isfinite(nv) & (nv >= lo) & (nv == np.floor(nv))).all():
        raise ValueError(message)
    top = nv == _MAX_COUNT
    if top.any():  # an int up to 2**1024 - 2**970 rounds down to the largest float
        for value in np.asarray(n, dtype=object)[top].tolist():
            _check_float_count(value, lo, message)
    return nv


def _rotation(theta, dim: int) -> np.ndarray:
    """Rotation by `theta` in the {|H>, |V>} plane of a `dim`-dimensional space.

    One (dim, dim) matrix per element of `theta`, identity outside the plane.
    """
    t = _check_angle(theta)
    c, s = np.cos(t), np.sin(t)
    m = np.zeros(t.shape + (dim, dim), dtype=complex)
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
    t = _check_angle(theta)
    values = np.stack([np.exp(-1j * t), np.exp(1j * t)], axis=-1)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    vectors = np.empty(t.shape + (2, 2), dtype=complex)
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
    nv = _check_counts(n, 0, "n must be a non-negative integer")
    t = _check_angle(theta)
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
    av = _check_probabilities(a)
    r, q = np.sqrt(1.0 - av), np.sqrt(av)
    m = np.zeros(av.shape + (3, 3), dtype=complex)
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
    # (pi/2)/n rounds the same real number as pi/(2n), without overflowing 2n
    return 0.5 * math.pi / _check_counts(n, 1, "cycle count must be a positive integer")
