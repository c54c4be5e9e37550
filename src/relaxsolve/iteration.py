"""Single relaxed Jacobi and Gauss-Seidel iteration steps.

Both steps damp the classical update with a relaxation factor ``omega``:
at ``omega = 1`` they reduce to textbook Jacobi / Gauss-Seidel, at
``omega = 0`` to the identity. Jacobi is computed in residual-correction
form, ``x + omega ((b - A x) / D)``. ``explicit_operator`` builds the dense
affine operator ``x -> H x + v`` realized by each step; it exists as a
small-n equivalence oracle and is not used on hot paths.

A step can be handed the matrix product of ``x`` that it needs, carried
over from the previous generation: ``A x`` for Jacobi, ``U x`` (U the
strict upper triangle) for Gauss-Seidel. Given it, a Jacobi step reads
no matrix, and a Gauss-Seidel step reads only the lower triangle, in a
forward substitution over a per-run work copy of A (``gauss_seidel_work``)
whose diagonal it overwrites in place.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtrmv, dtrsv

from .linalg import LinearSystem, check_state

__all__ = [
    "IterationOperator",
    "explicit_operator",
    "gauss_seidel_sr_step",
    "gauss_seidel_work",
    "jacobi_sr_step",
    "upper_product",
]


class IterationOperator(NamedTuple):
    """Dense affine form ``step(x) = h @ x + v`` of one relaxed sweep."""

    h: np.ndarray
    v: np.ndarray


def jacobi_sr_step(
    sys: LinearSystem, x: np.ndarray, omega: float, *, ax: np.ndarray | None = None
) -> np.ndarray:
    """One relaxed Jacobi (JOR) step, all components from the old iterate.

    Realizes ``x'_i = (1-w) x_i + (w / a_ii) (b_i - sum_{j != i} a_ij x_j)``
    for every component at once, computed as ``x + w ((b - A x) / D)``.
    ``ax`` is ``A x`` if the caller already has it; else the step computes it.
    """
    x = check_state(sys, x)
    if ax is None:
        ax = sys.a @ x
    return x + omega * ((sys.b - ax) / sys.diag)


def gauss_seidel_work(sys: LinearSystem) -> np.ndarray:
    """Writable work copy of ``sys.a`` for the Gauss-Seidel kernels.

    Holds the strict triangles L and U of A with a zero diagonal, which
    ``gauss_seidel_sr_step`` overwrites during a step and zeroes again
    before it returns. Like ``sys.a`` it is row-major, so its transpose
    is a Fortran-ordered operand that the BLAS wrappers take without
    copying n^2 entries on every call.
    """
    work = sys.a.copy()
    np.fill_diagonal(work, 0.0)
    return work


def upper_product(work: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``U x`` for the strict upper triangle U held in a work copy of A."""
    # work.T is A^T in Fortran order; the transpose of its lower triangle is U.
    return dtrmv(work.T, x, lower=1, trans=1)


def gauss_seidel_sr_step(
    sys: LinearSystem,
    x: np.ndarray,
    omega: float,
    *,
    ux: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """One relaxed Gauss-Seidel (SOR) step, a single forward sweep.

    Realizes ``x'_i = (1-w) x_i + (w / a_ii)
    (b_i - sum_{j<i} a_ij x'_j - sum_{j>i} a_ij x_j)`` for i = 1..n in
    order, as the forward substitution
    ``(D/w + L) x' = ((1-w)/w) D x + b - U x``. No inverse is formed.
    ``work`` is a ``gauss_seidel_work`` copy of A to solve in and ``ux``
    is ``U x``; either is made here when not given. At ``w = 0`` the
    step is the identity.
    """
    x = check_state(sys, x)
    if omega == 0.0:
        return x.copy()
    if work is None:
        work = gauss_seidel_work(sys)
    if ux is None:
        ux = upper_product(work, x)
    d = sys.diag
    rhs = ((1.0 - omega) / omega) * d * x + sys.b - ux
    diagonal = work.reshape(-1)[:: sys.n + 1]
    np.divide(d, omega, out=diagonal)
    # The transpose of work.T's upper triangle is D/w + L.
    out = dtrsv(work.T, rhs, lower=0, trans=1, overwrite_x=1)
    diagonal.fill(0.0)
    return out


def explicit_operator(
    sys: LinearSystem, omega: float, method: str
) -> IterationOperator:
    """Dense ``(h, v)`` with ``step(x) == h @ x + v`` for the given method.

    For ``jacobi``: ``h = (1-w) I - w D^{-1}(L+U)``, ``v = w D^{-1} b``.
    For ``gauss_seidel``: ``h = (I + w D^{-1}L)^{-1}{(1-w) I - w D^{-1}U}``
    and ``v = w (I + w D^{-1}L)^{-1} D^{-1} b``, with the triangular
    inverse applied by forward substitution. Intended for n up to a few
    hundred; use the sweep functions everywhere else.
    """
    n = sys.n
    d = sys.diag[:, None]
    eye = np.eye(n)
    lower = np.tril(sys.a, -1)
    upper = np.triu(sys.a, 1)
    v = omega * sys.b / sys.diag
    if method == "jacobi":
        h = (1.0 - omega) * eye - omega * (lower + upper) / d
    elif method == "gauss_seidel":
        m = eye + omega * lower / d
        h = (1.0 - omega) * eye - omega * upper / d
        h = solve_triangular(m, h, lower=True, unit_diagonal=True)
        v = solve_triangular(m, v, lower=True, unit_diagonal=True)
    else:
        raise ValueError(f"unknown method {method!r}")
    return IterationOperator(h=h, v=v)
