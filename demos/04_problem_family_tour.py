"""One MGSBTVA run over every canonical problem family.

Generates each of the ten seeded families at two sizes, runs MGSBTVA once
per system, and reports the outcome honestly: at the larger size some
families carry so much off-diagonal spread relative to their diagonal that no
relaxation factor makes the underlying sweeps contract, and those runs are
reported as diverged or capped rather than hidden.
"""

from relaxsolve import (
    FAMILY_IDS,
    SolverConfig,
    Variant,
    family_spec,
    generate_problem,
    problem_hash,
    run_solver,
)

SIZES = (64, 200)
INSTANCE_SEED = 5
SOLVER_SEED = 11
CAP = 2000


def tour(size):
    print(f"{'id':>4}   {'outcome':<9}   {'gens':>5}   {'final residual':>14}"
          f"   problem hash")
    outcomes = {"converged": 0, "diverged": 0, "capped": 0}
    for pid in FAMILY_IDS:
        system = generate_problem(family_spec(pid, size, seed=INSTANCE_SEED))
        cfg = SolverConfig(variant=Variant.MGSBTVA, seed=SOLVER_SEED,
                           max_generations=CAP)
        res = run_solver(system, cfg)
        if res.converged:
            outcome = "converged"
        elif res.diverged:
            outcome = "diverged"
        else:
            outcome = "capped"
        outcomes[outcome] += 1
        print(f"{pid:>4}   {outcome:<9}   {res.generations:5d}   "
              f"{res.final_residual:14.3e}   {problem_hash(system):016x}")
    print(f"   => {outcomes['converged']} converged, {outcomes['diverged']} "
          f"diverged, {outcomes['capped']} hit the cap")


def main():
    print(f"variant {Variant.MGSBTVA.value}, generation cap {CAP}, "
          f"instance seed {INSTANCE_SEED}")
    for size in SIZES:
        print()
        print(f"--- n = {size} ---")
        tour(size)

    print()
    print("Families drift from convergent toward divergent as n grows "
          "because the eigenvalue spread of a random off-diagonal block "
          "scales roughly with sqrt(n) times the entry spread, while the "
          "bounded diagonal rules stay put.  Near that boundary the outcome "
          "also varies from instance to instance (P9 above neither converges "
          "nor blows up within the cap), which is why the benchmark harness "
          "runs several repetitions per family.")


if __name__ == "__main__":
    main()
