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
"""

from __future__ import annotations

import enum
import math
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


def _check_angle(theta: float) -> float:
    t = float(theta)
    if not math.isfinite(t):
        raise ValueError("angle must be finite")
    return t


def _check_probability(a) -> float:
    """`a` as a float in [0, 1]; ValueError otherwise, inf and NaN included."""
    av = float(a)
    if not 0.0 <= av <= 1.0:
        raise ValueError(f"absorption probability must be in [0, 1], got {a!r}")
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


def rotator2(theta: float) -> np.ndarray:
    """2x2 polarization rotator [[cos t, -sin t], [sin t, cos t]]."""
    t = _check_angle(theta)
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]], dtype=complex)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues and matching unit eigenvectors (as columns) of a 2x2 matrix."""

    values: np.ndarray  # shape (2,)
    vectors: np.ndarray  # shape (2, 2); vectors[:, k] pairs with values[k]


def rotator_eigen(theta: float) -> EigenDecomposition:
    """Closed-form eigendecomposition of ``rotator2(theta)``.

    The eigenvalues are exp(-i*theta) and exp(+i*theta), paired with the
    eigenvectors (1, i)/sqrt(2) and (1, -i)/sqrt(2).  The first component of
    each eigenvector is real and positive, which fixes the overall phase.
    """
    t = _check_angle(theta)
    values = np.array([np.exp(-1j * t), np.exp(1j * t)])
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    vectors = np.array([[inv_sqrt2, inv_sqrt2], [1j * inv_sqrt2, -1j * inv_sqrt2]])
    return EigenDecomposition(values=values, vectors=vectors)


def rotator_power(theta: float, n: int) -> np.ndarray:
    """n-th power of ``rotator2(theta)`` from the closed form, not iteration.

    The rotator's powers are rotations themselves, so the result is
    ``rotator2(n*theta)``.  The accumulated angle is reduced modulo 2*pi
    before the trig evaluation to keep accuracy for large n.
    """
    n = _check_count(n, 0, "n must be a non-negative integer")
    t = _check_angle(theta)
    phi = math.fmod(n * t, 2.0 * math.pi)
    return rotator2(phi)


def rotator3(theta: float) -> np.ndarray:
    """Rotator on {|H>, |V>} embedded in 3x3, acting as identity on |B>."""
    t = _check_angle(theta)
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], dtype=complex)


def absorption(a: float) -> np.ndarray:
    """Unitary absorption coupling for interaction probability ``a``.

        [[1, 0,         0        ],
         [0, sqrt(1-a), -sqrt(a) ],
         [0, sqrt(a),   sqrt(1-a)]]

    Rotates the {|V>, |B>} plane so a photon in the particle's arm is moved
    to |B> with amplitude sqrt(a).  The -sqrt(a) entry is the reverse
    (emission) amplitude from |B> back to |V>; the per-cycle projective
    measurement in the evolution step is what prevents that return path from
    ever acting.
    """
    av = _check_probability(a)
    r, q = math.sqrt(1.0 - av), math.sqrt(av)
    return np.array(
        [[1.0, 0.0, 0.0], [0.0, r, -q], [0.0, q, r]],
        dtype=complex,
    )


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


def switching_angle(n: int) -> float:
    """The per-cycle angle pi/(2n) that maps |H> to |V> after n cycles."""
    return math.pi / (2.0 * _check_count(n, 1, "cycle count must be a positive integer"))
