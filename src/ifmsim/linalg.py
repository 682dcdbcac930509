"""Validity checks for the 2x2 and 3x3 complex matrices used throughout.

``linalg`` holds two checks: Hermiticity within a tolerance and positive
semidefiniteness.  The ``verify`` suite's positivity check uses them; the
step kernels validate their input states themselves.  Matrix products,
adjoints and traces are plain numpy.
Each check takes one matrix or a stack of them, shape ``(..., d, d)``, and
is True only when every matrix in the stack passes, so ``verify`` checks
all of its step outputs in one call.  Inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

__all__ = ["is_hermitian", "is_psd"]

_ALLOWED_DIMS = (2, 3)


def _as_square(a) -> np.ndarray:
    """Validate and return `a` as finite complex square matrices of dim 2 or 3.

    `a` is one matrix or a stack of them, shape ``(..., d, d)``.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] not in _ALLOWED_DIMS:
        raise ValueError(f"supported dimensions are {_ALLOWED_DIMS}, got {m.shape[-1]}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def is_hermitian(a, tol: float = 1e-12) -> bool:
    """True iff max entry-wise |a - a^dag| <= tol, for every matrix of a stack."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = _as_square(a)
    return bool((np.abs(m - m.conj().swapaxes(-1, -2)) <= tol).all())


def is_psd(a, tol: float = 1e-10) -> bool:
    """True iff every eigenvalue of the Hermitian matrix `a` is >= -tol.

    For a stack, True iff this holds for every matrix in it.  Eigenvalues
    come from a convergent symmetric eigensolver.  The input must already be
    Hermitian within `tol`; feeding a non-Hermitian matrix is a usage error,
    not a False.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = _as_square(a)
    if not is_hermitian(m, tol):
        raise ValueError("is_psd requires a Hermitian input")
    return bool((np.linalg.eigvalsh(m) >= -tol).all())
