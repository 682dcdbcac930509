"""Validity checks for the 2x2 and 3x3 complex matrices used throughout.

``linalg`` holds only the two checks that density-matrix validation and the
``verify`` suite share: Hermiticity within a tolerance and positive
semidefiniteness.  Matrix products, adjoints and traces are plain numpy.
Inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

__all__ = ["is_hermitian", "is_psd"]

_ALLOWED_DIMS = (2, 3)


def _as_square(a) -> np.ndarray:
    """Validate and return `a` as a finite complex square matrix of dim 2 or 3."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] not in _ALLOWED_DIMS:
        raise ValueError(f"supported dimensions are {_ALLOWED_DIMS}, got {m.shape[0]}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def is_hermitian(a, tol: float = 1e-12) -> bool:
    """True iff max entry-wise |a - a^dag| <= tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = _as_square(a)
    return bool(np.abs(m - m.conj().T).max() <= tol)


def is_psd(a, tol: float = 1e-10) -> bool:
    """True iff every eigenvalue of the Hermitian matrix `a` is >= -tol.

    Eigenvalues come from a convergent symmetric eigensolver.  The input must
    already be Hermitian within `tol`; feeding a non-Hermitian matrix is a
    usage error, not a False.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = _as_square(a)
    if not is_hermitian(m, tol):
        raise ValueError("is_psd requires a Hermitian input")
    eigenvalues = np.linalg.eigvalsh(m)
    return bool(eigenvalues.min() >= -tol)
