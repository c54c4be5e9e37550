"""The benchmark's three workloads and the checks every output must pass.

Each workload makes its inputs from one seed during set-up, then runs in
rounds: one round is the same fixed list of solves every time (or one
``relaxsolve bench`` invocation), so every round attempts the same
operations. Checks use numpy directly and never compare against stored
output of an earlier version of the program.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import shutil
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

from relaxsolve import bench, cli, evolution, problems
from relaxsolve.evolution import SolverConfig

THRESHOLD = 1e-7
EPS = float(np.finfo(np.float64).eps)
ADAPTIVE = ("JBTVA", "GSBTVA", "MJBTVA", "MGSBTVA")
FIXED = ("FIXED_JACOBI_SR", "FIXED_GS_SR")
RECOMBINING = ("JBTVA", "GSBTVA")


class CheckError(Exception):
    """An output of the program is wrong."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass(frozen=True)
class Reference:
    """What the checks need to know about one system, from numpy alone."""

    x: np.ndarray  # numpy.linalg.solve(A, b)
    x_residual: float  # ||A x - b|| of that solution
    inv_norm: float  # ||A^-1||_F, an upper bound on ||A^-1||_2
    a_norm: float  # ||A||_F
    b_norm: float


def make_reference(system) -> Reference:
    a, b = system.a, system.b
    x = np.linalg.solve(a, b)
    return Reference(
        x=x,
        x_residual=float(np.linalg.norm(a @ x - b)),
        inv_norm=float(np.linalg.norm(np.linalg.inv(a))),
        a_norm=float(np.linalg.norm(a)),
        b_norm=float(np.linalg.norm(b)),
    )


def check_solve(system, ref: Reference, cfg: SolverConfig, result) -> None:
    """Check one converged ``RunResult`` against numpy.

    The residual of ``best_state`` is recomputed as ``||A x - b||``; it must
    be below the threshold and equal ``final_residual`` up to the rounding
    bound of a computed residual, ``(n + 1) eps (||A|| ||x|| + ||b||)``.
    ``best_state`` must lie within ``||A^-1|| (r + r*)`` of
    ``numpy.linalg.solve``'s answer, r and r* being the two residuals.
    """
    n = system.n
    variant = cfg.variant.value
    x = np.asarray(result.best_state, dtype=np.float64)
    check(x.shape == (n,) and bool(np.all(np.isfinite(x))), f"{variant}: best_state is not a finite {n}-vector")
    r = float(np.linalg.norm(system.a @ x - system.b))
    tol = (n + 1) * EPS * (ref.a_norm * float(np.linalg.norm(x)) + ref.b_norm)
    check(r < cfg.threshold, f"{variant}: recomputed residual {r!r} is not below {cfg.threshold!r}")
    check(
        abs(r - result.final_residual) <= tol,
        f"{variant}: final_residual {result.final_residual!r} differs from the recomputed {r!r}",
    )
    err = float(np.linalg.norm(x - ref.x))
    bound = ref.inv_norm * (r + ref.x_residual + 2 * tol) * (1 + 1e-9)
    check(err <= bound, f"{variant}: best_state is {err!r} from numpy.linalg.solve (bound {bound!r})")
    g = result.generations
    check(len(result.trace) == g + 1, f"{variant}: trace has {len(result.trace)} entries for {g} generations")
    check([t for t, _ in result.trace] == list(range(g + 1)), f"{variant}: trace generations are not 0..{g}")
    check(result.trace[-1][1] == result.final_residual, f"{variant}: trace does not end at final_residual")
    expected = g if variant in RECOMBINING else 0
    check(
        result.recombine_calls == expected,
        f"{variant}: recombine_calls is {result.recombine_calls}, expected {expected}",
    )
    check(all(0.0 < w < 2.0 for w in result.final_omegas), f"{variant}: final omega outside (0, 2)")


@dataclass(frozen=True)
class Job:
    system_index: int
    cfg: SolverConfig


class SolveWorkload:
    """Seeded family instances solved by calling ``run_solver`` directly.

    One round solves every instance with every variant, one solve at a
    time. Round 1's results are kept; every later round must reproduce
    them bit for bit.
    """

    def __init__(self, seed: int, families, n: int, variants):
        self.seed = seed
        self.families = families  # ((family id, instance count), ...)
        self.n = n
        self.variants = variants
        self.job_walls: list[list[float]] = []
        self.round_generations = 0
        self.first: list | None = None

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.systems = []
        self.jobs = []
        for pid, count in self.families:
            for _ in range(count):
                spec = problems.family_spec(pid, self.n, int(rng.integers(2**63)))
                self.systems.append(problems.generate_problem(spec))
                for v in self.variants:
                    cfg = SolverConfig(variant=v, seed=int(rng.integers(2**63)), threshold=THRESHOLD)
                    self.jobs.append(Job(len(self.systems) - 1, cfg))
        first = self.jobs[0]
        evolution.run_solver(self.systems[first.system_index], first.cfg)

    def prepare_checks(self) -> None:
        self.refs = [make_reference(s) for s in self.systems]

    def run_round(self) -> tuple[int, int]:
        failed = 0
        results = []
        walls = []
        for job in self.jobs:
            system = self.systems[job.system_index]
            t0 = time.perf_counter()
            result = evolution.run_solver(system, job.cfg)
            walls.append(time.perf_counter() - t0)
            results.append(result)
            if not result.converged:
                failed += 1
                continue
            check_solve(system, self.refs[job.system_index], job.cfg, result)
        if self.first is None:
            self.first = results
            self.job_walls = [[] for _ in self.jobs]
            self.round_generations = sum(r.generations for r in results if r.converged)
        else:
            for job, old, new in zip(self.jobs, self.first, results):
                check(
                    new.trace == old.trace and np.array_equal(new.best_state, old.best_state),
                    f"{job.cfg.variant.value} seed {job.cfg.seed}: a repeated solve did not reproduce its trace",
                )
        for times, wall, result in zip(self.job_walls, walls, results):
            if result.converged:
                times.append(wall)
        return len(self.jobs), failed

    def finish_checks(self) -> None:
        pass

    def metrics(self) -> dict[str, tuple[float, str]]:
        best = np.array([min(times) for times in self.job_walls if times])
        return _metrics(
            solves=len(best),
            plan_wall_s=float(best.sum()),
            solve_ms=best * 1e3,
            generations=self.round_generations,
        )


def _metrics(solves, plan_wall_s, solve_ms, generations):
    """End-to-end figures of one pass over the workload's plan.

    Every solve of the plan repeats once per round with identical inputs
    and results, so each is timed by its fastest repeat: bursts of
    contention on a shared host slow single repeats, not the fastest one.
    """
    return {
        "solves_per_s": (solves / plan_wall_s, "1/s"),
        "solve_ms_p50": (float(np.percentile(solve_ms, 50)), "ms"),
        "solve_ms_p90": (float(np.percentile(solve_ms, 90)), "ms"),
        "us_per_gen": (float(solve_ms.sum()) * 1e3 / generations, "us"),
        "plan_wall_s": (plan_wall_s, "s"),
        "generations_total": (generations, "count"),
    }


PLAN_FAMILIES = ("P1", "P6", "P10")


class PlanWorkload:
    """``relaxsolve bench`` run in-process through ``cli.main``.

    One round is one invocation on the same plan file, writing the CSV
    and one trace SVG per problem. Round 1's CSV is kept and, after the
    timed loop, every row of it is re-solved and checked against numpy;
    later rounds must repeat it in every column but ``elapsed_ms``.
    """

    def __init__(self, seed: int, out_dir: str, n: int = 200, repetitions: int = 10):
        self.seed = seed
        self.n = n
        self.repetitions = repetitions
        self.variants = ADAPTIVE
        self.out_dir = out_dir
        self.plan_path = os.path.join(out_dir, "plan.txt")
        self.csv_path = os.path.join(out_dir, "results.csv")
        self.svg_dir = os.path.join(out_dir, "traces")
        self.invocation_walls: list[float] = []
        self.row_ms: list[list[float]] = []
        self.first: list[dict] | None = None

    def setup(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        with open(self.plan_path, "w", encoding="utf-8") as fh:
            fh.write(
                f"problems={','.join(PLAN_FAMILIES)}\n"
                f"n={self.n}\n"
                f"variants={','.join(self.variants)}\n"
                f"repetitions={self.repetitions}\n"
                f"base_seed={self.seed}\n"
                f"threshold={THRESHOLD!r}\n"
            )
        system = problems.generate_problem(problems.family_spec("P1", self.n, self.seed))
        evolution.run_solver(system, SolverConfig(variant="MJBTVA", seed=self.seed, threshold=THRESHOLD))

    def prepare_checks(self) -> None:
        pass

    def run_round(self) -> tuple[int, int]:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.csv_path)
        shutil.rmtree(self.svg_dir, ignore_errors=True)
        argv = ["bench", "--plan", self.plan_path, "--out", self.csv_path, "--traces", self.svg_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
        check(code in (0, 1), f"relaxsolve bench exited with {code}")
        with open(self.csv_path, encoding="utf-8", newline="") as fh:
            rows = check_plan_csv(fh.read(), PLAN_FAMILIES, self.variants, self.repetitions)
        check_plan_svgs(self.svg_dir, PLAN_FAMILIES, self.variants)
        failed = sum(not row["converged"] for row in rows)
        check((code == 0) == (failed == 0), f"exit code {code} with {failed} unconverged rows")
        if self.first is None:
            self.first = rows
        else:
            check(
                [_without_time(r) for r in rows] == [_without_time(r) for r in self.first],
                "a repeated bench invocation wrote different results",
            )
        self.invocation_walls.append(wall)
        if not self.row_ms:
            self.row_ms = [[] for _ in rows]
        for times, row in zip(self.row_ms, rows):
            if row["converged"]:
                times.append(row["elapsed_ms"])
        return len(rows), failed

    def finish_checks(self) -> None:
        verify_plan_rows(self.first, self.seed, self.n)

    def metrics(self) -> dict[str, tuple[float, str]]:
        # The whole invocation (hashing and file output included) sets
        # plan_wall_s and solves_per_s; per-solve and per-generation times
        # are the solver's own elapsed_ms from the CSV.
        best = np.array([min(times) for times in self.row_ms if times])
        return _metrics(
            solves=len(best),
            plan_wall_s=min(self.invocation_walls),
            solve_ms=best,
            generations=sum(r["generations"] for r in self.first if r["converged"]),
        )


def _without_time(row: dict) -> dict:
    return {k: v for k, v in row.items() if k != "elapsed_ms"}


CSV_COLUMNS = (
    "problem",
    "variant",
    "seed",
    "generations",
    "elapsed_ms",
    "final_residual",
    "converged",
    "problem_hash",
)


def check_plan_csv(text: str, families, variants, repetitions: int) -> list[dict]:
    """Parse a bench CSV with the stdlib ``csv`` module and check its rows.

    Rows come in (problem, variant, repetition) order. Converged rows must
    be below the threshold; each (problem, repetition) instance carries
    one 16-hex hash shared by all its variants, distinct across instances.
    """
    reader = csv.DictReader(io.StringIO(text, newline=""))
    check(tuple(reader.fieldnames or ()) == CSV_COLUMNS, f"unexpected CSV columns {reader.fieldnames}")
    rows = []
    for rec in reader:
        check(rec["converged"] in ("true", "false"), f"converged is {rec['converged']!r}")
        h = rec["problem_hash"]
        check(len(h) == 16 and all(c in "0123456789abcdef" for c in h), f"problem_hash {h!r} is not 16 hex digits")
        row = {
            "problem": rec["problem"],
            "variant": rec["variant"],
            "seed": int(rec["seed"]),
            "generations": int(rec["generations"]),
            "elapsed_ms": float(rec["elapsed_ms"]),
            "final_residual": float(rec["final_residual"]),
            "converged": rec["converged"] == "true",
            "problem_hash": h,
        }
        check(row["generations"] >= 0 and row["elapsed_ms"] >= 0.0, "negative generations or elapsed_ms")
        if row["converged"]:
            check(
                0.0 <= row["final_residual"] < THRESHOLD,
                f"{row['problem']} {row['variant']}: converged row has residual {row['final_residual']!r}",
            )
        rows.append(row)
    expected = [(p, v) for p in families for v in variants for _ in range(repetitions)]
    check(
        [(r["problem"], r["variant"]) for r in rows] == expected,
        f"CSV has {len(rows)} rows, expected {len(expected)} in (problem, variant, repetition) order",
    )
    instance_hash: dict[tuple[str, int], str] = {}
    for k, row in enumerate(rows):
        key = (row["problem"], k % repetitions)
        check(
            instance_hash.setdefault(key, row["problem_hash"]) == row["problem_hash"],
            f"instance {key} has more than one hash",
        )
    check(len(set(instance_hash.values())) == len(instance_hash), "two instances share a hash")
    return rows


def check_plan_svgs(svg_dir: str, families, variants) -> None:
    """One SVG per problem; each parses as XML with one polyline per variant."""
    for pid in families:
        path = os.path.join(svg_dir, f"{pid}.svg")
        try:
            root = ET.parse(path).getroot()
        except (OSError, ET.ParseError) as exc:
            raise CheckError(f"{path}: {exc}") from None
        lines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        check(len(lines) == len(variants), f"{path}: {len(lines)} polylines for {len(variants)} variants")


def verify_plan_rows(rows: list[dict], base_seed: int, n: int) -> None:
    """Re-solve every CSV row and check it against numpy.

    The instance and run seeds follow the derivation ``run_benchmark``
    documents. The re-solve must reproduce the row's generations and
    residual exactly, and its answer must pass ``check_solve``.
    """
    systems: dict[tuple[str, int], tuple] = {}
    index: dict[tuple[str, str], int] = {}
    for row in rows:
        pid, variant = row["problem"], row["variant"]
        r = index.get((pid, variant), 0)
        index[(pid, variant)] = r + 1
        if not row["converged"]:
            continue
        check(
            row["seed"] == bench.mix_seed(base_seed, f"{pid}|{variant}|{r}"),
            f"{pid} {variant} {r}: unexpected run seed {row['seed']}",
        )
        if (pid, r) not in systems:
            rng = np.random.default_rng(bench.mix_seed(base_seed, f"{pid}|instance|{r}"))
            system = problems.generate_problem(problems.family_spec(pid, n, 0), rng)
            systems[(pid, r)] = (system, make_reference(system))
        system, ref = systems[(pid, r)]
        cfg = SolverConfig(variant=variant, seed=row["seed"], threshold=THRESHOLD)
        result = evolution.run_solver(system, cfg)
        check(
            result.generations == row["generations"] and result.final_residual == row["final_residual"],
            f"{pid} {variant} {r}: CSV row does not match a re-solve "
            f"({row['generations']}, {row['final_residual']!r}) vs "
            f"({result.generations}, {result.final_residual!r})",
        )
        check_solve(system, ref, cfg, result)


def make(name: str, seed: int, out_dir: str, tiny: bool = False):
    """Build a workload; ``tiny`` shrinks it for the benchmark's self-test."""
    # 100 and 36 solves a round: with more distinct instances a seed's mix
    # of easy and hard systems moves the round's percentiles less (on
    # large-n1000 the median's spread over seeds fell from ~13 % at 18
    # solves to ~7 % at 36).
    if name == "small-n200":
        return SolveWorkload(seed, (("P1", 2 if tiny else 25),), 30 if tiny else 200, ADAPTIVE)
    if name == "large-n1000":
        families = (("P6", 1), ("P7", 1)) if tiny else (("P6", 5), ("P7", 1))
        return SolveWorkload(seed, families, 40 if tiny else 1000, ADAPTIVE + FIXED)
    if name == "bench-plan":
        return PlanWorkload(seed, out_dir, n=30 if tiny else 200, repetitions=2 if tiny else 10)
    raise ValueError(f"unknown workload {name!r}")
