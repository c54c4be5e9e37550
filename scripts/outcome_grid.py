"""Run a fixed grid of solves and print each run's outcome as JSON Lines.

The grid is every problem family at n = 30 and n = 200, plus a custom
n = 4 system whose off-diagonal entries near 1e300 overflow the very
first residual (``custom-overflow``), under each variant, at each seed;
the seed names both the instance and the solver run, and the fixed
variants run at their default omega. Per run it prints the instance's
``problem_hash``, the generations, ``converged``, ``diverged``,
``final_residual`` (a JSON number that reads back as the same float64),
and 16-hex BLAKE2b digests of ``repr(trace)``, the bytes of
``best_state`` and ``repr(final_omegas)``. Run it on two source
checkouts and diff the output to see whether a change moved any run:

    diff <(python3 scripts/outcome_grid.py --src ../parent/src) \\
         <(python3 scripts/outcome_grid.py)

``--src`` names the ``src`` directory to import ``relaxsolve`` from
(default: this checkout's) and ``--seeds`` the seeds (default 1,2). The
output is one JSON object per run and line, so a run added or removed
changes only its own lines; a count of converged, capped and diverged
runs goes to stderr, after a line naming numpy's version, its BLAS build
and the BLAS thread variables. With the default seeds the grid is
(10 x 2 + 1) x 6 x 2 = 252 runs and takes a few seconds.

Run as a script, it pins BLAS to one thread before numpy loads. The
Gauss-Seidel variants' upper-triangle product (OpenBLAS ``dtrmv``) sums
in an order that depends on the thread count, so their ``trace``,
``best_state`` and ``final_residual`` bits do too (their generations and
outcomes do not); outputs compare bit for bit only at one thread setting.

A change in how fitness is computed (say, a residual derived from the
sweep's own products instead of recomputed from A) moves the ``trace``
digest of every affected run without moving its outcome; compare
generations, termination, ``final_residual`` and ``best_state`` to see
whether the runs themselves moved.
"""

import argparse
import hashlib
import json
import os
import sys

SIZES = (30, 200)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OVERFLOW_SPEC = ("id=custom\nn=4\nseed={}\ndiag=const:1.0\n"
                 "offdiag=uniform:-1e300,1e300\nrhs=const:1.0\n")


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="src directory holding the relaxsolve package")
    parser.add_argument("--seeds", default="1,2", help="comma list (default 1,2)")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    from relaxsolve import (
        FAMILY_IDS,
        SolverConfig,
        Variant,
        family_spec,
        generate_problem,
        parse_problem_spec,
        problem_hash,
        run_solver,
    )
    import numpy as np

    seeds = [int(s) for s in args.seeds.split(",")]
    instances = [(pid, family_spec(pid, n, seed))
                 for pid in FAMILY_IDS for n in SIZES for seed in seeds]
    instances += [("custom-overflow", parse_problem_spec(OVERFLOW_SPEC.format(seed)))
                  for seed in seeds]
    runs = []
    for pid, spec in instances:
        system = generate_problem(spec)
        digest = f"{problem_hash(system):016x}"
        for variant in Variant:
            res = run_solver(system, SolverConfig(variant=variant, seed=spec.seed))
            runs.append({
                "problem": pid, "n": spec.n, "seed": spec.seed,
                "variant": variant.value,
                "problem_hash": digest,
                "generations": res.generations,
                "converged": res.converged,
                "diverged": res.diverged,
                "final_residual": res.final_residual,
                "trace": _digest(repr(res.trace).encode()),
                "best_state": _digest(res.best_state.tobytes()),
                "final_omegas": _digest(repr(res.final_omegas).encode()),
            })
    for r in runs:
        print(json.dumps(r))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in THREAD_VARS)
    print(f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']} "
          f"({blas.get('openblas configuration', 'no OpenBLAS configuration')}), {threads}",
          file=sys.stderr)
    converged = sum(r["converged"] for r in runs)
    diverged = sum(r["diverged"] for r in runs)
    print(f"{len(runs)} runs: converged={converged} "
          f"capped={len(runs) - converged - diverged} diverged={diverged}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    # BLAS must be pinned before numpy loads it (see the module docstring).
    for _var in THREAD_VARS:
        os.environ[_var] = "1"
    sys.exit(main())
