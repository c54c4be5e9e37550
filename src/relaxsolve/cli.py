"""Command-line interface: solve one system, run a benchmark plan, or
materialize a benchmark problem to a file.

Exit codes: 0 success, 1 solver did not converge (results are still
printed), 2 usage or parse error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from .bench import (
    emit_trace_svg,
    parse_bench_plan,
    run_benchmark,
    summarize,
    write_csv,
)
from .evolution import SolverConfig, Variant, run_solver
from .problems import (
    FAMILY_IDS,
    SpecParseError,
    family_spec,
    generate_problem,
    parse_problem_spec,
    render_problem_spec,
)

__all__ = ["build_parser", "main"]

PROG = "relaxsolve"
_FAMILY_RANGE = f"{FAMILY_IDS[0]}..{FAMILY_IDS[-1]}"

# The option that sets each ProblemSpec or SolverConfig field. A check's
# message starts with its field, so its error is reported at the option.
_OPTIONS = {"n": "--n", "seed": "--seed", "threshold": "--threshold",
            "max_generations": "--max-gens", "fixed_omega": "--omega"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Relaxed Jacobi/Gauss-Seidel solvers with self-adaptive "
        "relaxation factors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve",
        help="solve one seeded problem with one variant",
        description="Solve a benchmark family instance or a problem-spec "
        "file. Prints generations, elapsed_ms and final_residual; exits 1 "
        "if the run stopped without reaching the residual threshold.",
    )
    solve.add_argument(
        "--problem",
        required=True,
        metavar="P|FILE",
        help=f"family id ({_FAMILY_RANGE}) or path to a problem-spec file",
    )
    solve.add_argument(
        "--variant",
        required=True,
        choices=[v.value for v in Variant],
        help="solver variant",
    )
    solve.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the solver run (and the instance, for family ids)",
    )
    solve.add_argument(
        "--n",
        type=int,
        default=200,
        help="dimension for family ids (ignored for spec files; default 200)",
    )
    solve.add_argument(
        "--threshold",
        type=float,
        default=1e-7,
        help="residual threshold (default 1e-7)",
    )
    solve.add_argument(
        "--max-gens",
        type=int,
        default=10000,
        help="generation cap (default 10000)",
    )
    solve.add_argument(
        "--omega",
        type=float,
        default=1.0,
        help="relaxation factor for the FIXED_* variants (default 1.0)",
    )
    solve.add_argument(
        "--trace",
        metavar="SVG",
        help="write the residual trace to this SVG file",
    )

    bench = sub.add_parser(
        "bench",
        help="run a benchmark plan and write a CSV",
        description="Execute every (problem, variant, repetition) run of a "
        "plan file, print per-group means, and write one CSV row per run. "
        "Exits 1 if any run failed to converge.",
    )
    bench.add_argument("--plan", required=True, help="path to the plan file")
    bench.add_argument("--out", required=True, help="path of the CSV to write")
    bench.add_argument(
        "--traces",
        metavar="DIR",
        help="also write one residual-trace SVG per problem into this directory",
    )

    generate = sub.add_parser(
        "generate",
        help="write a problem family instance to a spec file",
        description="Write the key=value spec of a seeded family instance, "
        "plus the generated entries as comment lines.",
    )
    generate.add_argument(
        "--problem", required=True, choices=list(FAMILY_IDS), help="family id"
    )
    generate.add_argument(
        "--n", type=int, default=200, help="dimension (default 200)"
    )
    generate.add_argument(
        "--seed", type=int, default=0, help="generation seed (default 0)"
    )
    generate.add_argument("--out", required=True, help="output file path")
    return parser


def _fail(message: str, code: int) -> int:
    print(f"{PROG}: {message}", file=sys.stderr)
    return code


def _too_large(where: str, n: int) -> int:
    return _fail(f"{where}: not enough memory for a problem with n={n}", 2)


def _option_error(exc: ValueError) -> int:
    return _fail(f"{_OPTIONS[str(exc).partition(' ')[0]]}: {exc}", 2)


def _cmd_solve(args) -> int:
    try:
        cfg = SolverConfig(
            variant=Variant(args.variant),
            threshold=args.threshold,
            max_generations=args.max_gens,
            seed=args.seed,
            fixed_omega=args.omega,
        )
        family = args.problem in FAMILY_IDS
        spec = family_spec(args.problem, args.n, args.seed) if family else None
    except ValueError as exc:
        return _option_error(exc)
    if spec is None:
        try:
            with open(args.problem, "r", encoding="utf-8") as fh:
                spec = parse_problem_spec(fh.read())
        except (SpecParseError, UnicodeDecodeError) as exc:
            return _fail(f"{args.problem}: {exc}", 2)
        except OSError as exc:
            return _fail(
                f"cannot read {args.problem}: {exc.strerror or exc} "
                f"(family ids are {_FAMILY_RANGE})",
                3,
            )
    try:
        system = generate_problem(spec)
    except MemoryError:
        return _too_large(args.problem, spec.n)

    result = run_solver(system, cfg)
    print(
        f"generations={result.generations} "
        f"elapsed_ms={result.elapsed_ms:.3f} "
        f"final_residual={result.final_residual!r}"
    )
    if args.trace:
        try:
            with open(args.trace, "w", encoding="utf-8") as fh:
                emit_trace_svg(
                    {args.variant: result.trace}, fh, title=f"{spec.id} (n={spec.n})"
                )
        except OSError as exc:
            return _fail(f"cannot write {args.trace}: {exc.strerror or exc}", 3)
    return 0 if result.converged else 1


def _cmd_bench(args) -> int:
    try:
        with open(args.plan, "r", encoding="utf-8") as fh:
            plan = parse_bench_plan(fh.read())
    except (SpecParseError, UnicodeDecodeError) as exc:
        return _fail(f"{args.plan}: {exc}", 2)
    except OSError as exc:
        return _fail(f"cannot read {args.plan}: {exc.strerror or exc}", 3)

    traces: dict[str, dict[str, list]] = {}

    def collect(row, result, r):
        if args.traces and r == 0:
            traces.setdefault(row.problem_id, {})[row.variant] = result.trace

    try:
        rows = run_benchmark(plan, on_result=collect)
    except MemoryError:
        return _too_large(args.plan, max(spec.n for spec in plan.problems))

    # Serialize fully in memory first so a failed write never leaves a
    # partial CSV behind.
    buf = io.StringIO()
    write_csv(rows, buf)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc.strerror or exc}", 3)

    if args.traces:
        try:
            os.makedirs(args.traces, exist_ok=True)
            for pid, by_variant in traces.items():
                path = os.path.join(args.traces, f"{pid}.svg")
                with open(path, "w", encoding="utf-8") as fh:
                    emit_trace_svg(by_variant, fh, title=pid)
        except OSError as exc:
            return _fail(f"cannot write traces to {args.traces}: {exc.strerror or exc}", 3)

    for s in summarize(rows):
        print(
            f"{s.problem_id} {s.variant}: runs={s.runs} "
            f"converged={s.converged_runs} "
            f"mean_generations={s.mean_generations:.1f} "
            f"mean_elapsed_ms={s.mean_elapsed_ms:.3f}"
        )
    all_converged = all(row.converged for row in rows)
    return 0 if all_converged else 1


def _cmd_generate(args) -> int:
    try:
        spec = family_spec(args.problem, args.n, args.seed)
    except ValueError as exc:
        return _option_error(exc)
    try:
        system = generate_problem(spec)
    except MemoryError:
        return _too_large(args.problem, spec.n)
    lines = [render_problem_spec(spec).rstrip("\n")]
    lines.append(f"# generated entries for {spec.id}, n={spec.n}, seed={spec.seed}")
    for i in range(system.n):
        row = " ".join(repr(float(v)) for v in system.a[i])
        lines.append(f"# A[{i + 1}] = {row}")
    lines.append(f"# b = {' '.join(repr(float(v)) for v in system.b)}")
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc.strerror or exc}", 3)
    print(f"wrote {spec.id} (n={spec.n}, seed={spec.seed}) to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "bench":
        return _cmd_bench(args)
    return _cmd_generate(args)


if __name__ == "__main__":
    sys.exit(main())
