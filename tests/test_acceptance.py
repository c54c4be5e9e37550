"""Acceptance gate: nine end-to-end criteria, one test each.

Every test prints a single PASS/FAIL line (routed through pytest's
terminal reporter so it stays visible despite output capture) and then
asserts, so a failing criterion is both visible in the log and fails
the suite.
"""

import time

import numpy as np
import pytest

from relaxsolve import (
    BenchPlan,
    LinearSystem,
    SolverConfig,
    Variant,
    explicit_operator,
    family_spec,
    gauss_seidel_sr_step,
    generate_problem,
    init_relaxation_factors,
    jacobi_sr_step,
    make_stochastic_matrix,
    read_csv,
    recombine,
    residual_norm,
    run_benchmark,
    run_solver,
    select_and_reproduce,
    write_csv,
)
from relaxsolve.bench import CSV_HEADER, mix_seed
from relaxsolve.evolution import (
    OMEGA_HI,
    OMEGA_LO,
    OMEGA_MARGIN,
    Population,
    adapt_pair,
    basic_time_variant,
)

ADAPTIVE = (Variant.JBTVA, Variant.GSBTVA, Variant.MJBTVA, Variant.MGSBTVA)
N_SEEDS = 10
BASE_SEED = 20250817
P1_FULL = family_spec("P1", 200, seed=0)


_REPORTER = None


@pytest.fixture(scope="module", autouse=True)
def _grab_terminal_reporter(request):
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def _report(tag: str, ok: bool, detail: str) -> None:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}"
    if _REPORTER is not None:
        _REPORTER.write_line(line)
    else:
        print(line)
    assert ok, line


@pytest.fixture(scope="module")
def p1_bench():
    """Shared full-scale benchmark: 4 adaptive variants x 10 paired seeds."""
    plan = BenchPlan(
        problems=(P1_FULL,),
        variants=ADAPTIVE,
        repetitions=N_SEEDS,
        base_seed=BASE_SEED,
    )
    t0 = time.perf_counter()
    rows = run_benchmark(plan)
    wall_s = time.perf_counter() - t0
    by_variant = {
        v.value: [r for r in rows if r.variant == v.value] for v in ADAPTIVE
    }
    return rows, by_variant, wall_s


def _mean_gens(rows):
    return sum(r.generations for r in rows) / len(rows)


def test_criterion_1_classical_correctness():
    t0 = time.perf_counter()
    solved = 0
    worst_dx = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=(50, 50))
        np.fill_diagonal(a, 50.0)
        b = rng.uniform(-5.0, 5.0, size=50)
        sys_ = LinearSystem(a, b)
        x_star = np.linalg.solve(sys_.a, sys_.b)
        ok_seed = True
        for variant in (Variant.FIXED_JACOBI_SR, Variant.FIXED_GS_SR):
            res = run_solver(
                sys_, SolverConfig(variant=variant, seed=seed, fixed_omega=1.0)
            )
            dx = float(np.linalg.norm(res.best_state - x_star))
            worst_dx = max(worst_dx, dx)
            if not (res.converged and res.final_residual < 1e-7 and dx <= 1e-5):
                ok_seed = False
        solved += ok_seed
    elapsed = time.perf_counter() - t0
    ok = solved == 20 and elapsed < 5.0
    _report(
        "criterion-1 classical-correctness",
        ok,
        f"{solved}/20 seeds, worst ||dx||={worst_dx:.2e}, {elapsed:.2f}s (<5s)",
    )


def test_criterion_2_sweep_operator_equivalence():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        a = rng.uniform(-2.0, 2.0, size=(6, 6))
        np.fill_diagonal(a, rng.uniform(2.0, 5.0, 6) * rng.choice([-1.0, 1.0], 6))
        sys_ = LinearSystem(a, rng.uniform(-3.0, 3.0, 6))
        x = rng.normal(size=6) * 2.0
        omega = rng.uniform(0.05, 1.95)
        for method, step in (
            ("jacobi", jacobi_sr_step),
            ("gauss_seidel", gauss_seidel_sr_step),
        ):
            op = explicit_operator(sys_, omega, method)
            diff = np.max(np.abs(step(sys_, x, omega) - (op.h @ x + op.v)))
            worst = max(worst, float(diff))
    ok = worst <= 1e-10
    _report(
        "criterion-2 sweep-operator-equivalence",
        ok,
        f"50 draws x 2 methods at n=6, worst |diff|={worst:.2e} (<=1e-10)",
    )


def test_criterion_3_hybrid_convergence_full_scale(p1_bench):
    rows, by_variant, wall_s = p1_bench
    counts = {}
    for name, vrows in by_variant.items():
        counts[name] = sum(
            1 for r in vrows if r.converged and r.generations <= 2000
        )
    ok = all(c >= 9 for c in counts.values()) and wall_s < 60.0
    detail = ", ".join(f"{k}:{v}/10" for k, v in counts.items())
    _report(
        "criterion-3 hybrid-convergence",
        ok,
        f"P1 n=200, {detail}, wall {wall_s:.1f}s (<60s)",
    )


def test_criterion_4_ablation_parity_in_generations(p1_bench):
    _, by_variant, _ = p1_bench
    rels = {}
    for mod, base in (("MJBTVA", "JBTVA"), ("MGSBTVA", "GSBTVA")):
        m = _mean_gens(by_variant[mod])
        u = _mean_gens(by_variant[base])
        rels[f"{mod}/{base}"] = abs(m - u) / u
    ok = all(v <= 0.25 for v in rels.values())
    detail = ", ".join(f"{k} rel-diff={v:.3f}" for k, v in rels.items())
    _report("criterion-4 ablation-parity", ok, f"{detail} (<=0.25)")


def test_criterion_5_ablation_work_reduction():
    instances = [
        generate_problem(
            P1_FULL,
            np.random.default_rng(mix_seed(BASE_SEED, f"P1|instance|{r}")),
        )
        for r in range(N_SEEDS)
    ]

    def per_generation_ms(pair, r):
        # Min of 5 repeats per variant, the pair's repeats alternating
        # (ABAB...), so a burst of host contention slows both sides.
        cfgs = [
            SolverConfig(variant=v, seed=mix_seed(BASE_SEED, f"P1|{v.value}|{r}"))
            for v in pair
        ]
        best = [np.inf, np.inf]
        for _ in range(5):
            for k, cfg in enumerate(cfgs):
                res = run_solver(instances[r], cfg)
                best[k] = min(best[k], res.elapsed_ms / max(1, res.generations))
        return best

    wins = {"jacobi": 0, "gauss_seidel": 0}
    for r in range(N_SEEDS):
        modified, recombining = per_generation_ms((Variant.MJBTVA, Variant.JBTVA), r)
        wins["jacobi"] += modified < recombining
        modified, recombining = per_generation_ms((Variant.MGSBTVA, Variant.GSBTVA), r)
        wins["gauss_seidel"] += modified < recombining
    ok = wins["jacobi"] >= 8 and wins["gauss_seidel"] >= 8
    _report(
        "criterion-5 ablation-work-reduction",
        ok,
        f"per-generation time wins: MJBTVA<JBTVA {wins['jacobi']}/10, "
        f"MGSBTVA<GSBTVA {wins['gauss_seidel']}/10 (>=8 each)",
    )


def test_criterion_6_method_ordering(p1_bench):
    _, by_variant, _ = p1_bench
    gs = _mean_gens(by_variant["GSBTVA"])
    jb = _mean_gens(by_variant["JBTVA"])
    ok = gs < jb
    _report(
        "criterion-6 method-ordering",
        ok,
        f"mean generations GSBTVA={gs:.1f} < JBTVA={jb:.1f}",
    )


def test_criterion_7_order_of_magnitude_band(p1_bench):
    _, by_variant, _ = p1_bench
    jb = _mean_gens(by_variant["JBTVA"])
    ok = 15.0 <= jb <= 250.0
    _report(
        "criterion-7 magnitude-band",
        ok,
        f"JBTVA mean generations on P1 = {jb:.1f}, band [15, 250]",
    )


def test_criterion_8_invariant_suite():
    checks = {}

    # omega containment under adaptation
    rng = np.random.default_rng(99)
    lo, hi = OMEGA_LO + OMEGA_MARGIN, OMEGA_HI - OMEGA_MARGIN
    contained = True
    for t in range(500):
        wx, wy = rng.uniform(lo, hi, size=2)
        ex, ey = rng.uniform(0.0, 10.0, size=2)
        nx, ny = adapt_pair(wx, wy, ex, ey, t % 64, rng)
        contained &= lo <= nx <= hi and lo <= ny <= hi
    checks["omega-containment"] = contained

    # decay factor strictly decreasing over the full generation range
    vals = [basic_time_variant(t) for t in range(0, 10001)]
    checks["decay-monotone"] = all(b < a for a, b in zip(vals, vals[1:]))

    # equal errors adapt nothing
    checks["equal-error-noop"] = adapt_pair(
        0.7, 1.2, 4.0, 4.0, 3, np.random.default_rng(1)
    ) == (0.7, 1.2)

    # selection never discards the better of a pair
    sys_ = generate_problem(family_spec("P6", 8, seed=1))
    srng = np.random.default_rng(7)
    dominance = True
    for _ in range(25):
        states = srng.uniform(-30, 30, size=(2, 8))
        fit = np.array([residual_norm(sys_, s) for s in states])
        pop = Population(
            states=states, fitness=fit, omegas=init_relaxation_factors()
        )
        dominance &= select_and_reproduce(pop).fitness.min() == fit.min()
    checks["selection-dominance"] = dominance

    # recombination keeps a shared exact solution exact
    x_star = np.linalg.solve(sys_.a, sys_.b)
    pop = Population(
        states=np.tile(x_star, (2, 1)),
        fitness=np.full(2, residual_norm(sys_, x_star)),
        omegas=init_relaxation_factors(),
    )
    rec = recombine(pop, make_stochastic_matrix(np.random.default_rng(3)))
    checks["recombination-preserves-solution"] = all(
        residual_norm(sys_, s) <= 1e-10 for s in rec.states
    )

    # stochastic matrix rows always sum to one
    rows_ok = True
    for seed in (1, 2, 6):
        r = make_stochastic_matrix(np.random.default_rng(seed))
        rows_ok &= bool(np.max(np.abs(r.sum(axis=1) - 1.0)) <= 1e-12)
    checks["stochastic-rows"] = rows_ok

    # identical configs give identical traces, byte for byte
    cfg = SolverConfig(variant=Variant.GSBTVA, seed=31)
    small = generate_problem(family_spec("P1", 60, seed=8))
    t1 = run_solver(small, cfg).trace
    t2 = run_solver(small, cfg).trace
    checks["seeded-determinism"] = repr(t1).encode() == repr(t2).encode()

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _report(
        "criterion-8 invariant-suite",
        ok,
        f"{len(checks)} invariants, failures: {failed or 'none'}",
    )


def test_criterion_9_csv_round_trip_and_schema(p1_bench):
    rows, by_variant, _ = p1_bench
    text = write_csv(rows)
    header_ok = text.splitlines()[0] == (
        "problem,variant,seed,generations,elapsed_ms,final_residual,"
        "converged,problem_hash"
    ) and text.splitlines()[0] == CSV_HEADER
    round_trip_ok = read_csv(text) == rows
    shared = True
    for r in range(N_SEEDS):
        hashes = {by_variant[v.value][r].problem_hash for v in ADAPTIVE}
        shared &= len(hashes) == 1
    ok = header_ok and round_trip_ok and shared
    _report(
        "criterion-9 csv-schema",
        ok,
        f"header-exact={header_ok}, round-trip={round_trip_ok}, "
        f"shared-instance-hash={shared} over {len(rows)} rows",
    )
