"""Dense matrix/vector arithmetic, residual evaluation, and a direct solver.

Everything works on plain float64 numpy arrays: vectors are 1-D arrays,
matrices 2-D square arrays. ``LinearSystem`` bundles a coefficient matrix
with its right-hand side and freezes both, so systems can be shared freely
between threads and reused across many iteration sweeps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

__all__ = [
    "DIAG_FLOOR",
    "LinearSystem",
    "SingularMatrixError",
    "direct_solve",
    "residual_norm",
    "vector_norm",
]

# Smallest admissible |a_ii|; systems below this are rejected instead of
# row-permuted.
DIAG_FLOOR = 1e-12


class SingularMatrixError(ValueError):
    """Raised when elimination meets a pivot that is numerically zero."""


def _as_vector(x, name: str = "vector") -> np.ndarray:
    v = np.array(x, dtype=np.float64, copy=True)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    return v


def _as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.array(a, dtype=np.float64, copy=True)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square 2-D, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class LinearSystem:
    """A dense n-by-n system ``a @ x = b``.

    Parameters
    ----------
    a : array_like
        Square coefficient matrix with finite entries and every diagonal
        entry at least ``DIAG_FLOOR`` in magnitude.
    b : array_like
        Right-hand side vector of length n, finite entries.

    Both arrays are copied and made read-only on construction.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _as_square_matrix(self.a, "a")
        b = _as_vector(self.b, "b")
        if a.shape[0] != b.shape[0]:
            raise ValueError(
                f"dimension mismatch: a is {a.shape[0]}x{a.shape[1]}, "
                f"b has length {b.shape[0]}"
            )
        if not np.all(np.isfinite(a)):
            raise ValueError("a contains non-finite entries")
        if not np.all(np.isfinite(b)):
            raise ValueError("b contains non-finite entries")
        if np.min(np.abs(np.diagonal(a))) < DIAG_FLOOR:
            raise ValueError(
                f"diagonal entries must satisfy |a_ii| >= {DIAG_FLOOR}"
            )
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.b.shape[0]

    @cached_property
    def diag(self) -> np.ndarray:
        d = np.diagonal(self.a).copy()
        d.setflags(write=False)
        return d


def check_state(sys: LinearSystem, x) -> np.ndarray:
    """``x`` as a float64 array; ValueError unless its shape is ``(sys.n,)``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != sys.b.shape:
        raise ValueError(
            f"dimension mismatch: system has n={sys.n}, x has shape {x.shape}"
        )
    return x


def vector_norm(v: np.ndarray) -> float:
    """Bit for bit ``np.linalg.norm(v)`` of a contiguous 1-D float64 vector.

    Same ``v.dot(v)``, same correctly rounded square root, no dispatch.
    """
    return math.sqrt(v.dot(v))


def residual_norm(sys: LinearSystem, x: np.ndarray) -> float:
    """Euclidean norm of the residual ``a @ x - b``.

    Returns
    -------
    float
        ``||a x - b||_2``; zero exactly when ``x`` solves the system.
    """
    x = check_state(sys, x)
    return vector_norm(sys.a @ x - sys.b)


def direct_solve(sys: LinearSystem) -> np.ndarray:
    """Solve the system by LU factorization with partial pivoting.

    Used as the accuracy oracle for the iterative solvers; for
    well-conditioned inputs the relative residual is at the 1e-10 level
    or better.

    Raises
    ------
    SingularMatrixError
        If a pivot is at most ``n eps max(1, max|a_ij|)`` in magnitude.
    """
    tiny = sys.n * np.finfo(np.float64).eps * max(1.0, float(np.max(np.abs(sys.a))))
    with warnings.catch_warnings():
        # An exactly zero pivot warns; it is reported below as an error.
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(sys.a, check_finite=False)
    small = np.flatnonzero(np.abs(np.diagonal(lu)) <= tiny)
    if small.size:
        raise SingularMatrixError(f"matrix is numerically singular at column {small[0]}")
    return lu_solve((lu, piv), sys.b, check_finite=False)
