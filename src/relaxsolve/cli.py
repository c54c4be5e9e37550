"""Command-line interface: solve one system, run a benchmark plan, or
materialize a benchmark problem to a file.

Exit codes: 0 success, 1 solver did not converge (results are still
printed), 2 usage, parse or out-of-memory error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from typing import Callable, Iterator, NoReturn, TextIO

from .bench import (
    emit_trace_svg,
    parse_bench_plan,
    run_benchmark,
    summarize,
    write_csv,
)
from .evolution import SolverConfig, Variant, run_solver
from .problems import (
    DEFAULT_N,
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
        default=SolverConfig.seed,
        help="seed for the solver run (and the instance, for family ids)",
    )
    solve.add_argument(
        "--n",
        type=int,
        default=DEFAULT_N,
        help="dimension for family ids (ignored for spec files; default %(default)s)",
    )
    solve.add_argument(
        "--threshold",
        type=float,
        default=SolverConfig.threshold,
        help="residual threshold (default %(default)s)",
    )
    solve.add_argument(
        "--max-gens",
        type=int,
        default=SolverConfig.max_generations,
        help="generation cap (default %(default)s)",
    )
    solve.add_argument(
        "--omega",
        type=float,
        default=SolverConfig.fixed_omega,
        help="relaxation factor for the FIXED_* variants (default %(default)s)",
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
        "plan file, print per-group outcome counts and medians, and write one CSV row per run. "
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
        "--n", type=int, default=DEFAULT_N, help="dimension (default %(default)s)"
    )
    generate.add_argument(
        "--seed", type=int, default=SolverConfig.seed,
        help="generation seed (default %(default)s)"
    )
    generate.add_argument("--out", required=True, help="output file path")
    return parser


def _fail(message: str, code: int) -> NoReturn:
    print(f"{PROG}: {message}", file=sys.stderr)
    raise SystemExit(code)


def _option_error(exc: ValueError) -> NoReturn:
    _fail(f"{_OPTIONS[str(exc).partition(' ')[0]]}: {exc}", 2)


def _read(path: str, parse: Callable[[str], object], hint: str = ""):
    """Parse the UTF-8 text at ``path``; exit 2 if it is malformed, 3 if unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (SpecParseError, UnicodeDecodeError) as exc:
        _fail(f"{path}: {exc}", 2)
    except OSError as exc:
        _fail(f"cannot read {path}: {exc.strerror or exc}{hint}", 3)


@contextlib.contextmanager
def _writing(where: str) -> Iterator[None]:
    """Exit 3 as ``cannot write <where>: <reason>`` on an OSError in the block."""
    try:
        yield
    except OSError as exc:
        _fail(f"cannot write {where}: {exc.strerror or exc}", 3)


def _write(path: str, render: Callable[[TextIO], None], where: str = "") -> None:
    """Render one output completely in memory, then write it to ``path``."""
    buf = io.StringIO()
    render(buf)
    with _writing(where or path), open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


@contextlib.contextmanager
def _memory_guard(where: str, n: int) -> Iterator[None]:
    """Exit 2 if generating, solving or writing out a problem of size ``n``
    runs out of memory."""
    try:
        yield
    except MemoryError:
        _fail(f"{where}: not enough memory for a problem with n={n}", 2)


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
        _option_error(exc)
    if spec is None:
        hint = f" (family ids are {_FAMILY_RANGE})"
        spec = _read(args.problem, parse_problem_spec, hint)
    with _memory_guard(args.problem, spec.n):
        result = run_solver(generate_problem(spec), cfg)
    print(
        f"generations={result.generations} "
        f"elapsed_ms={result.elapsed_ms:.3f} "
        f"final_residual={result.final_residual!r}"
    )
    if args.trace:
        traces = {args.variant: result.trace}
        title = f"{spec.id} (n={spec.n})"
        _write(args.trace, lambda fh: emit_trace_svg(traces, fh, title=title))
    return 0 if result.converged else 1


def _cmd_bench(args) -> int:
    plan = _read(args.plan, parse_bench_plan)
    traces: dict[str, dict[str, list]] = {}

    def collect(row, result, r):
        if args.traces and r == 0:
            traces.setdefault(row.problem_id, {})[row.variant] = result.trace

    with _memory_guard(args.plan, max(spec.n for spec in plan.problems)):
        rows = run_benchmark(plan, on_result=collect)
    _write(args.out, lambda fh: write_csv(rows, fh))
    if args.traces:
        where = f"traces to {args.traces}"
        with _writing(where):
            os.makedirs(args.traces, exist_ok=True)
        for pid, by_variant in traces.items():
            path = os.path.join(args.traces, f"{pid}.svg")
            _write(path, lambda fh: emit_trace_svg(by_variant, fh, title=pid), where)

    for s in summarize(rows):
        line = (f"{s.problem_id} {s.variant}: runs={s.runs} converged={s.converged} "
                f"capped={s.capped} diverged={s.diverged}")
        if s.converged:  # the medians and range cover converged runs only
            lo, hi = s.generations_range
            line += (f" median_generations={s.median_generations:.1f} generations={lo}..{hi}"
                     f" median_elapsed_ms={s.median_elapsed_ms:.3f}")
        print(line)
    return 0 if all(row.converged for row in rows) else 1


def _cmd_generate(args) -> int:
    try:
        spec = family_spec(args.problem, args.n, args.seed)
    except ValueError as exc:
        _option_error(exc)

    def render(fh):
        fh.write(render_problem_spec(spec))
        fh.write(f"# generated entries for {spec.id}, n={spec.n}, seed={spec.seed}\n")
        for i, row in enumerate(system.a, start=1):
            fh.write(f"# A[{i}] = {' '.join(repr(float(v)) for v in row)}\n")
        fh.write(f"# b = {' '.join(repr(float(v)) for v in system.b)}\n")

    with _memory_guard(args.problem, spec.n):
        system = generate_problem(spec)
        _write(args.out, render)
    print(f"wrote {spec.id} (n={spec.n}, seed={spec.seed}) to {args.out}")
    return 0


def main(argv=None) -> int:
    """Run one command and return its exit code; every failure ends here."""
    try:
        args = build_parser().parse_args(argv)
        command = {"solve": _cmd_solve, "bench": _cmd_bench, "generate": _cmd_generate}
        return command[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
