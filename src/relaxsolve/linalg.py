"""Dense matrix/vector arithmetic and residual evaluation.

Everything works on plain float64 numpy arrays: vectors are 1-D arrays,
matrices 2-D square arrays. ``LinearSystem`` bundles a coefficient matrix
with its right-hand side and freezes both, so systems can be shared freely
between threads and reused across many iteration sweeps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DIAG_FLOOR",
    "LinearSystem",
    "residual_norm",
    "vector_norm",
]

# Smallest admissible |a_ii|; systems below this are rejected instead of
# row-permuted.
DIAG_FLOOR = 1e-12

# One past the largest unsigned 64-bit integer: the bound of seeds and hashes.
U64_LIMIT = 2**64

_FLOAT64 = np.dtype(np.float64)


@dataclass(frozen=True)
class LinearSystem:
    """A dense n-by-n system ``a @ x = b``.

    Parameters
    ----------
    a : array_like
        Square real coefficient matrix with finite entries and every diagonal
        entry at least ``DIAG_FLOOR`` in magnitude.
    b : array_like
        Real right-hand side vector of length n, finite entries.

    Both arrays are copied and made read-only, ``a`` row-major (C order)
    so that its rows are contiguous for hashing and the BLAS kernels. An
    ``a`` that already is all that, float64 and owning its data, is kept.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name, array in (("a", self.a), ("b", self.b)):
            if np.iscomplexobj(array):
                raise ValueError(f"{name} must be real, got complex entries")
        a = self.a
        if not (type(a) is np.ndarray and a.dtype == np.float64 and a.flags.owndata
                and a.flags.c_contiguous and not a.flags.writeable):
            a = np.array(a, dtype=np.float64, order="C")
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError(f"a must be square 2-D with n >= 1, got shape {a.shape}")
        b = np.array(self.b, dtype=np.float64)
        if b.ndim != 1:
            raise ValueError(f"b must be 1-D, got shape {b.shape}")
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


# Field checks: each returns ``value`` or raises a ValueError starting with ``name``.
def checked_real(name: str, value, lo: float | None = None, hi: float | None = None):
    """``value`` if a float-range real, not a bool, in ``(lo, hi)`` when they are given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a real number within float range") from None
    if lo is not None and not lo < value < hi:
        raise ValueError(f"{name} must lie in the open interval ({lo:g}, {hi:g}), got {value!r}")
    return value


def checked_int(name: str, value, lo: int, hi: int | None = None):
    """``value`` if an integer, not a bool, in ``[lo, hi)``; ``hi=None`` is no upper bound."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < lo or (hi is not None and value >= hi)):
        bound = f">= {lo}" if hi is None else f"from {lo} to {hi - 1}"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return value


def check_state(sys: LinearSystem, x) -> np.ndarray:
    """``x`` as a float64 array; ValueError if complex or its shape is not ``(sys.n,)``."""
    x = np.asarray(x)
    if x.dtype is not _FLOAT64:  # a float64 state passes uncopied and unchecked
        if np.iscomplexobj(x):
            raise ValueError("x must be real, got complex entries")
        x = x.astype(np.float64)
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

