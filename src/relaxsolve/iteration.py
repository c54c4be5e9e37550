"""Single relaxed Jacobi and Gauss-Seidel iteration steps.

Both steps damp the classical update with a relaxation factor ``omega``:
at ``omega = 1`` they reduce to textbook Jacobi / Gauss-Seidel, at
``omega = 0`` to the identity. ``explicit_operator`` builds the dense
affine operator ``x -> H x + v`` realized by each step; it exists as a
small-n equivalence oracle and is not used on hot paths.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

import numpy as np
from scipy.linalg import solve_triangular

from .linalg import LinearSystem, _check_state

__all__ = [
    "IterationOperator",
    "Method",
    "explicit_operator",
    "gauss_seidel_sr_step",
    "jacobi_sr_step",
]

Method = Literal["jacobi", "gauss_seidel"]


class IterationOperator(NamedTuple):
    """Dense affine form ``step(x) = h @ x + v`` of one relaxed sweep."""

    h: np.ndarray
    v: np.ndarray


def jacobi_sr_step(sys: LinearSystem, x: np.ndarray, omega: float) -> np.ndarray:
    """One relaxed Jacobi (JOR) step, all components from the old iterate.

    Computes ``x'_i = (1-w) x_i + (w / a_ii) (b_i - sum_{j != i} a_ij x_j)``
    simultaneously for every component.
    """
    x = _check_state(sys, x)
    d = sys.diag
    off = sys.a @ x - d * x
    return (1.0 - omega) * x + omega * (sys.b - off) / d


def gauss_seidel_sr_step(
    sys: LinearSystem, x: np.ndarray, omega: float
) -> np.ndarray:
    """One relaxed Gauss-Seidel (SOR) step, a single forward sweep.

    Realizes ``x'_i = (1-w) x_i + (w / a_ii)
    (b_i - sum_{j<i} a_ij x'_j - sum_{j>i} a_ij x_j)`` for i = 1..n in
    order, as the forward substitution
    ``(D + w L) x' = (1-w) D x + w (b - U x)``. No inverse is formed.
    """
    x = _check_state(sys, x)
    d = sys.diag
    m = omega * sys.strict_lower
    np.fill_diagonal(m, d)
    rhs = (1.0 - omega) * d * x + omega * (sys.b - sys.strict_upper @ x)
    return solve_triangular(m, rhs, lower=True, check_finite=False)


def explicit_operator(
    sys: LinearSystem, omega: float, method: Method
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
    if method == "jacobi":
        h = (1.0 - omega) * eye - omega * (sys.strict_lower + sys.strict_upper) / d
        v = omega * sys.b / sys.diag
    elif method == "gauss_seidel":
        m = eye + omega * sys.strict_lower / d
        h = (1.0 - omega) * eye - omega * sys.strict_upper / d
        v = omega * sys.b / sys.diag
        h = solve_triangular(m, h, lower=True, unit_diagonal=True)
        v = solve_triangular(m, v, lower=True, unit_diagonal=True)
    else:
        raise ValueError(f"unknown method {method!r}")
    return IterationOperator(h=h, v=v)
