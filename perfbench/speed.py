"""How fast the host runs right now, from a fixed reference kernel.

On the 2-core VM this benchmark was built on, identical work runs up to
~1.9x slower for stretches of seconds to minutes, with CPU time equal to
wall time: other tenants slow the CPU, not the scheduler. Whole runs land
in slow stretches, so no estimator over one run's own timings removes it.

The kernel below is benchmark code that does not change with the program:
Jacobi and Gauss-Seidel-like sweeps with residuals on a fixed dense
system of the workload's size, written directly against numpy and scipy,
plus a pure-Python hash loop. It is timed after every round, in ``PARTS``
separately timed pieces, and its speed is the sum of each piece's fastest
time: the same statistic as the program's figures, which sum each solve's
fastest repeat, and far steadier than one fastest time. Each timing the
benchmark reports is multiplied by ``NOMINAL_S[n] / kernel time``: it is
expressed at the host speed at which the kernel takes ``NOMINAL_S[n]``
(about this VM's fastest). A change to the program moves
the figures; a change in host speed moves kernel and program together and
cancels.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import solve_triangular

# Sweeps and interpreted hash steps per piece, and the whole kernel's time
# taken as nominal speed, by n. At n = 200 the program spends about half
# its time in the interpreter and at n = 1000 most of it in numpy, and the
# kernel is weighted alike (about half and a tenth interpreted): a slow
# stretch of the host slows interpreted code more than numpy's.
SWEEPS = {200: 4, 1000: 1}
PYTHON_STEPS = 1000
NOMINAL_S = {200: 0.0026, 1000: 0.0160}
PARTS = 8
# Share of the timed loop spent timing the kernel.
BUDGET = 0.02


class SpeedReference:
    """Times the reference kernel; ``scale`` converts measured to nominal time."""

    def __init__(self, n: int):
        if n not in SWEEPS:
            raise ValueError(f"no reference kernel for n={n}")
        rng = np.random.default_rng(20130411)
        a = rng.uniform(-1.0, 1.0, (n, n))
        np.fill_diagonal(a, 2.0 * n)
        self.n = n
        self.a = a
        self.b = rng.uniform(-1.0, 1.0, n)
        self.d = np.diagonal(a).copy()
        self.lower = np.tril(a)
        self.upper = np.triu(a, 1)
        self.data = rng.bytes(PYTHON_STEPS)
        self.times: list[list[float]] = [[] for _ in range(PARTS)]

    def _kernel(self) -> float:
        # One piece of the kernel.
        a, b, d = self.a, self.b, self.d
        x = np.zeros(self.n)
        r = 0.0
        for _ in range(SWEEPS[self.n]):
            x = (b - (a @ x - d * x)) / d
            # A fresh n-by-n triangle per sweep, as a relaxed sweep's (D + wL).
            x = solve_triangular(0.5 * self.lower, b - self.upper @ x, lower=True, check_finite=False)
            r += float(np.linalg.norm(a @ x - b))
        # 64-bit FNV-1a, as an interpreted loop over bytes.
        h = 0xCBF29CE484222325
        for byte in self.data:
            h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return r + h

    def measure(self, after_s: float = 0.0) -> None:
        """Time the kernel at least once, and for ``BUDGET * after_s`` seconds."""
        end = time.perf_counter() + BUDGET * after_s
        while True:
            for part in self.times:
                t0 = time.perf_counter()
                self._kernel()
                t1 = time.perf_counter()
                part.append(t1 - t0)
            if t1 >= end:
                return

    @property
    def kernel_s(self) -> float:
        return sum(min(part) for part in self.times)

    @property
    def scale(self) -> float:
        return NOMINAL_S[self.n] / self.kernel_s
