"""Single relaxed Jacobi and Gauss-Seidel iteration steps.

Both steps damp the classical update with a relaxation factor ``omega`` in
(0, 2), and refuse any other: at ``omega = 1`` they reduce to textbook
Jacobi / Gauss-Seidel. Jacobi is computed in residual-correction form,
``x + omega ((b - A x) / D)``. ``explicit_operator`` builds the dense
affine operator ``x -> H x + v`` realized by each step; it exists as a
small-n equivalence oracle and is not used on hot paths.

A step can be handed the matrix product of ``x`` that it needs, carried
over from the previous generation: ``A x`` for Jacobi, ``U x`` (U the
strict upper triangle) for Gauss-Seidel. Given it, a Jacobi step reads
no matrix, and a Gauss-Seidel step reads only the lower triangle, in a
forward substitution. The Gauss-Seidel kernels take a ``(k, n)`` stack of
states and read each block row of A once for all of them. They pass BLAS
options by position, which f2py's wrappers parse faster than keywords.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import LinearSystem, check_state, checked_real

__all__ = [
    "IterationOperator",
    "explicit_operator",
    "gauss_seidel_sr_step",
    "gauss_seidel_work",
    "jacobi_sr_step",
    "upper_product",
]


# Neither relaxed sweep converges for a factor outside (OMEGA_LO, OMEGA_HI):
# SOR by Kahan's bound, JOR because the eigenvalues of its iteration matrix
# I - w D^-1 A average 1 - w.
OMEGA_LO = 0.0
OMEGA_HI = 2.0

# More than one state at n >= BLOCKED_FROM sweeps in blocks of BLOCK_ROWS rows.
BLOCKED_FROM = 500
BLOCK_ROWS = 256


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
    ``ax`` is ``A x`` of x's shape (else ValueError) if the caller
    already has it; without it the step computes it. ValueError unless
    omega is a real number in (0, 2).
    """
    x = check_state(sys, x)
    if type(omega) is not float or not OMEGA_LO < omega < OMEGA_HI:
        checked_real("omega", omega, OMEGA_LO, OMEGA_HI)
    if ax is None:
        ax = sys.a @ x
    elif getattr(ax, "shape", None) != x.shape and np.shape(ax) != x.shape:
        raise ValueError(f"dimension mismatch: x has shape {x.shape}, ax has shape {np.shape(ax)}")
    t = sys.b - ax
    t /= sys.diag
    t *= omega
    t += x
    return t


def gauss_seidel_work(sys: LinearSystem, slots: int) -> list[tuple[int, int, np.ndarray]]:
    """``(start, end, block)`` copies of A's diagonal blocks for the Gauss-Seidel kernels.

    Each block holds the strict triangles of ``sys.a[start:end, start:end]``
    and a zero diagonal, which ``gauss_seidel_sr_step`` overwrites during a
    step and zeroes again before it returns. Blocks are row-major, so their
    transposes are Fortran operands that the BLAS wrappers take uncopied.
    There is one n-by-n block unless ``slots`` > 1 and n >= ``BLOCKED_FROM``.
    """
    global dtrmv, dtrsv  # scipy's, loaded once, so a wrapper set on them here stays
    if "dtrsv" not in globals():
        from scipy.linalg.blas import dtrmv, dtrsv
    size = BLOCK_ROWS if slots > 1 and sys.n >= BLOCKED_FROM else sys.n
    work = [(s, min(s + size, sys.n), sys.a[s : s + size, s : s + size].copy())
            for s in range(0, sys.n, size)]
    for *_, block in work:
        np.fill_diagonal(block, 0.0)
    return work


def upper_product(sys: LinearSystem, work: list, x: np.ndarray) -> np.ndarray:
    """``U x``, U the strict upper triangle of A, for x or each row of a stack x.

    ValueError unless ``gauss_seidel_sr_step`` would take x.
    """
    out = check_state(sys, x, stacked=True).copy()
    rows = out.reshape(-1, sys.n)
    for s, e, block in work:  # block.T's lower triangle is U's block, transposed
        block_t = block.T
        for row in rows:
            dtrmv(block_t, row[s:e], 0, 1, 1, 1, 0, 1)  # offx incx lower trans diag overwrite_x
        if e < sys.n:  # the columns past the block still hold x
            rows[:, s:e] += rows[:, e:] @ sys.a[s:e, e:].T
    return out


def gauss_seidel_sr_step(
    sys: LinearSystem,
    x: np.ndarray,
    omega,
    *,
    ux: np.ndarray | None = None,
    work: list | None = None,
) -> np.ndarray:
    """One relaxed Gauss-Seidel (SOR) step, a single forward sweep.

    Realizes ``x'_i = (1-w) x_i + (w / a_ii)
    (b_i - sum_{j<i} a_ij x'_j - sum_{j>i} a_ij x_j)`` for i = 1..n in
    order, as the forward substitution
    ``(D/w + L) x' = ((1-w)/w) D x + b - U x``. No inverse is formed.
    ``x`` is one state or a ``(k, n)`` stack with one real ``w`` in (0, 2)
    per row (else ValueError). ``work`` is a ``gauss_seidel_work`` of A and
    ``ux`` is ``U x`` of x's shape (else ValueError); either is made here
    when not given. Per block row, one product with the solved columns
    updates every row's right-hand side.
    """
    x = check_state(sys, x, stacked=True)
    ws = (omega if type(omega) is np.ndarray and omega.ndim == 1 and omega.dtype == np.float64
          else np.asarray(omega).reshape(-1)).tolist()
    if len(ws) != x.size // sys.n:
        raise ValueError(f"omega has {len(ws)} entries for {x.size // sys.n} states")
    for v in ws:
        if type(v) is not float or not OMEGA_LO < v < OMEGA_HI:
            checked_real("omega", v, OMEGA_LO, OMEGA_HI)
    if work is None:
        work = gauss_seidel_work(sys, len(ws))
    if ux is None:
        ux = upper_product(sys, work, x)
    elif getattr(ux, "shape", None) != x.shape and np.shape(ux) != x.shape:
        raise ValueError(f"dimension mismatch: x has shape {x.shape}, ux has shape {np.shape(ux)}")
    rhs = np.multiply.outer([(1.0 - v) / v for v in ws], sys.diag)
    rhs *= x
    rhs += sys.b
    rhs -= ux
    for s, e, block in work:
        if s:  # the columns before the block hold the solved x'
            rhs[:, s:e] -= rhs[:, :s] @ sys.a[s:e, :s].T
        block_t, diagonal, d = block.T, block.reshape(-1)[:: e - s + 1], sys.diag[s:e]
        for i, v in enumerate(ws):  # block.T's upper triangle, transposed, is D/w + L
            np.divide(d, v, out=diagonal)
            dtrsv(block_t, rhs[i, s:e], 1, 0, 0, 1, 0, 1)  # incx offx lower trans diag overwrite_x
        diagonal.fill(0.0)
    return rhs.reshape(x.shape)


def explicit_operator(sys: LinearSystem, omega: float, method: str) -> IterationOperator:
    """Dense ``(h, v)`` with ``step(x) == h @ x + v`` for the given method.

    For ``jacobi``: ``h = (1-w) I - w D^{-1}(L+U)``, ``v = w D^{-1} b``.
    For ``gauss_seidel``: ``h = (I + w D^{-1}L)^{-1}{(1-w) I - w D^{-1}U}``
    and ``v = w (I + w D^{-1}L)^{-1} D^{-1} b``, with the triangular
    inverse applied by forward substitution. ValueError unless w is a real
    number in (0, 2). Intended for n up to a few hundred.
    """
    checked_real("omega", omega, OMEGA_LO, OMEGA_HI)
    from scipy.linalg import solve_triangular
    d = sys.diag[:, None]
    eye = np.eye(sys.n)
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
