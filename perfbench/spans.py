"""Outside-in span recording for the traced benchmark run.

The program is not edited to be traced. Instead each public function is
replaced, for the length of a traced run, at the place its caller looks
it up: a module global read at call time. ``mutate_and_evaluate`` finds
``jacobi_sr_step`` in ``relaxsolve.evolution``'s namespace, so wrapping
``relaxsolve.evolution.jacobi_sr_step`` times every sweep the loop makes,
while the function in ``relaxsolve.iteration`` stays untouched.

Spans (name, start, end, parent) are kept in flat in-memory arrays and
written out once, when the run ends. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# (module whose namespace the caller reads, attribute, span name). The
# span name is "<layer>.<function>", the layer being the module that
# defines the function.
TARGETS = (
    ("relaxsolve.evolution", "jacobi_sr_step", "iteration.jacobi_sr_step"),
    ("relaxsolve.evolution", "gauss_seidel_sr_step", "iteration.gauss_seidel_sr_step"),
    ("relaxsolve.evolution", "residual_norm", "linalg.residual_norm"),
    ("relaxsolve.evolution", "init_population", "evolution.init_population"),
    ("relaxsolve.evolution", "make_stochastic_matrix", "evolution.make_stochastic_matrix"),
    ("relaxsolve.evolution", "recombine", "evolution.recombine"),
    ("relaxsolve.evolution", "mutate_and_evaluate", "evolution.mutate_and_evaluate"),
    ("relaxsolve.evolution", "adapt_pair", "evolution.adapt_pair"),
    ("relaxsolve.evolution", "select_and_reproduce", "evolution.select_and_reproduce"),
    # The benchmark's own solve calls go through relaxsolve.evolution,
    # the bench harness's through relaxsolve.bench.
    ("relaxsolve.evolution", "run_solver", "evolution.run_solver"),
    ("relaxsolve.bench", "run_solver", "evolution.run_solver"),
    ("relaxsolve.problems", "generate_problem", "problems.generate_problem"),
    ("relaxsolve.bench", "generate_problem", "problems.generate_problem"),
    ("relaxsolve.bench", "problem_hash", "bench.problem_hash"),
    ("relaxsolve.cli", "parse_bench_plan", "bench.parse_bench_plan"),
    ("relaxsolve.cli", "run_benchmark", "bench.run_benchmark"),
    ("relaxsolve.cli", "write_csv", "bench.write_csv"),
    ("relaxsolve.cli", "emit_trace_svg", "bench.emit_trace_svg"),
    ("relaxsolve.cli", "main", "cli.main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))

VARIANTS = ("JBTVA", "GSBTVA", "MJBTVA", "MGSBTVA", "FIXED_JACOBI_SR", "FIXED_GS_SR")


def _note_solve(args, result):
    return (args[1].variant.value, result.generations)


def _note_hash(args, result):
    return args[0].n


# Spans whose arguments or result the metrics need beyond timing.
_NOTES = {"evolution.run_solver": _note_solve, "bench.problem_hash": _note_hash}


def installed() -> list[str]:
    """Targets that currently hold a wrapper (empty in an untraced run)."""
    out = []
    for mod, attr, _ in TARGETS:
        if hasattr(getattr(importlib.import_module(mod), attr), "__wrapped__"):
            out.append(f"{mod}.{attr}")
    return out


class Tracer:
    """Records one span per wrapped call; ``install``/``uninstall`` bracket it."""

    def __init__(self):
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.notes: dict[int, object] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name: str):
        nid = SPAN_NAMES.index(span_name)
        note = _NOTES.get(span_name)
        names, start, end, parent = self.name, self.start, self.end, self.parent
        stack, notes, clock = self._stack, self.notes, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if note is not None:
                notes[i] = note(args, result)
            return result

        return wrapper

    def install(self) -> None:
        for mod_name, attr, span_name in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, span_name))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def dump(self, path) -> None:
        """Write every span as parallel arrays (ns clock) to an ``.npz`` file."""
        np.savez(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name, dtype=np.int8),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def layer_metrics(tracer: Tracer, loop_start_ns: int, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of one traced run.

    Spans that started before ``loop_start_ns`` belong to set-up. Times
    are means per call of the named function over the timed loop; counts
    are per round (one pass over the workload's fixed list of solves or
    one ``bench`` invocation). Layers a workload never calls read 0.
    """
    name = np.frombuffer(tracer.name, dtype=np.int8).astype(np.int64)
    start = np.frombuffer(tracer.start, dtype=np.int64)
    dur = (np.frombuffer(tracer.end, dtype=np.int64) - start).astype(np.float64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    in_loop = start >= loop_start_ns

    def sel(span: str, loop: bool = True) -> np.ndarray:
        mask = name == SPAN_NAMES.index(span)
        return mask & in_loop if loop else mask

    def mean_us(values: np.ndarray, mask: np.ndarray) -> float:
        return float(values[mask].sum() / mask.sum() / 1e3) if mask.any() else 0.0

    def per_round(mask: np.ndarray) -> float:
        return float(mask.sum()) / rounds

    solves = sel("evolution.run_solver")
    gens = {v: 0 for v in VARIANTS}
    solve_ns = {v: 0.0 for v in VARIANTS}
    for i in np.flatnonzero(solves):
        variant, g = tracer.notes[int(i)]
        gens[variant] += g
        solve_ns[variant] += dur[i]
    total_gens = sum(gens.values())
    hashes = sel("bench.problem_hash")
    hashed_bytes = sum(8 * (tracer.notes[int(i)] ** 2 + tracer.notes[int(i)]) for i in np.flatnonzero(hashes))
    recombine = sel("evolution.recombine")
    msm = sel("evolution.make_stochastic_matrix")
    generate_setup = sel("problems.generate_problem", loop=False) & ~in_loop
    generate_all = sel("problems.generate_problem", loop=False)

    m: dict[str, tuple[float, str]] = {
        "iteration.jacobi_sweep_us": (mean_us(dur, sel("iteration.jacobi_sr_step")), "us"),
        "iteration.gs_sweep_us": (mean_us(dur, sel("iteration.gauss_seidel_sr_step")), "us"),
        "iteration.sweeps": (
            per_round(sel("iteration.jacobi_sr_step") | sel("iteration.gauss_seidel_sr_step")),
            "count",
        ),
        "linalg.residual_us": (mean_us(dur, sel("linalg.residual_norm")), "us"),
        "linalg.residual_calls": (per_round(sel("linalg.residual_norm")), "count"),
        "evolution.mutate_evaluate_self_us": (
            mean_us(self_t, sel("evolution.mutate_and_evaluate")),
            "us",
        ),
        "evolution.recombine_us": (
            float((dur[recombine].sum() + dur[msm].sum()) / recombine.sum() / 1e3)
            if recombine.any()
            else 0.0,
            "us",
        ),
        "evolution.adapt_us": (mean_us(dur, sel("evolution.adapt_pair")), "us"),
        "evolution.select_us": (mean_us(dur, sel("evolution.select_and_reproduce")), "us"),
        "evolution.init_us": (mean_us(dur, sel("evolution.init_population")), "us"),
        "evolution.loop_self_us_per_gen": (
            float(self_t[solves].sum() / total_gens / 1e3) if total_gens else 0.0,
            "us",
        ),
    }
    for v in VARIANTS:
        m[f"evolution.us_per_gen.{v}"] = (solve_ns[v] / gens[v] / 1e3 if gens[v] else 0.0, "us")
    for v in VARIANTS:
        m[f"evolution.generations.{v}"] = (gens[v] / rounds, "count")
    m["evolution.recombine_calls"] = (per_round(recombine), "count")
    m["problems.generate_ms"] = (mean_us(dur, generate_all) / 1e3, "ms")
    m["problems.instances"] = (
        float(generate_setup.sum()) + per_round(generate_all & in_loop),
        "count",
    )
    m["bench.problem_hash_ms"] = (mean_us(dur, hashes) / 1e3, "ms")
    m["bench.hashed_mb"] = (hashed_bytes / 1e6 / rounds, "MB")
    m["bench.run_benchmark_self_ms"] = (mean_us(self_t, sel("bench.run_benchmark")) / 1e3, "ms")
    m["bench.parse_bench_plan_ms"] = (mean_us(dur, sel("bench.parse_bench_plan")) / 1e3, "ms")
    m["bench.write_csv_ms"] = (mean_us(dur, sel("bench.write_csv")) / 1e3, "ms")
    m["bench.emit_trace_svg_ms"] = (mean_us(dur, sel("bench.emit_trace_svg")) / 1e3, "ms")
    m["cli.main_self_ms"] = (mean_us(self_t, sel("cli.main")) / 1e3, "ms")
    return m

