"""Benchmark harness: seeded repetitions across problems and variants.

Runs every (problem, variant, repetition) combination of a plan with
deterministically derived seeds, shares one generated system instance
per (problem, repetition) across all variants so paired comparisons see
identical data, and serializes results to CSV and residual-trace SVG
charts. ``mix_seed`` XORs the plan's base seed with the FNV-1a hash of
a text label, so results are invariant under reordering of the plan.
"""

from __future__ import annotations

import hashlib
import html
import math
from dataclasses import dataclass
from statistics import median
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .evolution import DIVERGENCE_BOUND, RunResult, SolverConfig, Variant, run_solver
from .linalg import U64_LIMIT, LinearSystem, checked_int
from .problems import (
    DEFAULT_N,
    FAMILY_IDS,
    RULE_KEYS,
    SPEC_KINDS,
    ProblemSpec,
    SpecParseError,
    build_spec,
    field_error,
    generate_problem,
    integer,
    scan_kv,
)

__all__ = [
    "BenchPlan",
    "BenchRow",
    "CSV_HEADER",
    "Summary",
    "emit_trace_svg",
    "mix_seed",
    "parse_bench_plan",
    "problem_hash",
    "read_csv",
    "run_benchmark",
    "summarize",
    "write_csv",
]

CSV_HEADER = "problem,variant,seed,generations,elapsed_ms,final_residual,converged,problem_hash"

# What each CSV column's text is converted with; write_csv judges its spelling.
_CSV_TYPES = (str, str, int, int, float, float, lambda t: t == "true", lambda t: int(t, 16))

_VARIANT_NAMES = tuple(v.value for v in Variant)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix_seed(base_seed: int, label: str) -> int:
    """Derive a run/instance seed: ``base_seed`` XOR FNV-1a of ``label``.

    The hash is 64-bit FNV-1a of the label's UTF-8 bytes, and the seed is
    masked to 64 bits. Labels look like ``"P1|JBTVA|3"`` (run seeds) or
    ``"P1|instance|3"`` (instance seeds), making every derived seed a pure
    function of the base seed, problem id, variant id, and repetition index.
    """
    h = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & (U64_LIMIT - 1)
    return (base_seed ^ h) & (U64_LIMIT - 1)


def problem_hash(sys: LinearSystem) -> int:
    """64-bit BLAKE2b digest of the raw float64 bytes of A (row-major) then b.

    The digest is read as a big-endian unsigned integer. ``LinearSystem``
    stores A row-major, so both arrays are hashed in place, uncopied.
    """
    digest = hashlib.blake2b(sys.a, digest_size=8)
    digest.update(sys.b)
    return int.from_bytes(digest.digest(), "big")


@dataclass(frozen=True)
class BenchPlan:
    """What to run: problems x variants x repetitions.

    ``variants`` holds ``Variant`` values and defaults to the four adaptive
    ones. No problem id or variant may repeat, since its runs would repeat
    exactly and its rows could not be told apart. Every run shares the
    plan's residual ``threshold`` and generation cap ``max_generations``;
    ``SolverConfig`` sets their defaults and bounds.
    """

    problems: tuple[ProblemSpec, ...]
    variants: tuple[Variant, ...] = tuple(v for v in Variant if not v.is_fixed)
    repetitions: int = 10
    base_seed: int = 0
    threshold: float = SolverConfig.threshold
    max_generations: int = SolverConfig.max_generations

    def __post_init__(self):
        object.__setattr__(self, "problems", tuple(self.problems))
        for spec in self.problems:
            if not isinstance(spec, ProblemSpec):
                raise ValueError(f"problems must hold ProblemSpec entries, got {spec!r}")
        variants = tuple(self.variants)
        for v in variants:
            if v not in _VARIANT_NAMES:
                raise ValueError(f"variants has unknown variant {v!r}")
        object.__setattr__(self, "variants", tuple(map(Variant, variants)))
        if not self.problems:
            raise ValueError("problems must name at least one problem")
        if not self.variants:
            raise ValueError("variants must name at least one variant")
        ids = [spec.id for spec in self.problems]
        names = [v.value for v in self.variants]
        for field, what, seen in (("problems", "id", ids), ("variants", "variant", names)):
            for k, name in enumerate(seen):
                if name in seen[:k]:
                    raise ValueError(f"{field} has repeated {what} {name!r}")
        checked_int("repetitions", self.repetitions, 1)
        checked_int("base_seed", self.base_seed, 0, U64_LIMIT)
        SolverConfig(
            self.variants[0],
            threshold=self.threshold,
            max_generations=self.max_generations,
        )


@dataclass(frozen=True)
class BenchRow:
    """One CSV line: a single solver run and the hash of its system.

    ``seed`` and ``problem_hash`` are unsigned 64-bit, ``generations`` nonnegative,
    ``problem_id`` a family id or ``custom``, ``variant`` a ``Variant`` value.
    """

    problem_id: str
    variant: str
    seed: int
    generations: int
    elapsed_ms: float
    final_residual: float
    converged: bool
    problem_hash: int

    def __post_init__(self):
        checked_int("seed", self.seed, 0, U64_LIMIT)
        checked_int("problem_hash", self.problem_hash, 0, U64_LIMIT)
        checked_int("generations", self.generations, 0)
        if self.problem_id not in FAMILY_IDS + ("custom",):
            raise ValueError(f"problem_id must be a family id or custom, got {self.problem_id!r}")
        if self.variant not in _VARIANT_NAMES:
            raise ValueError(f"variant must be a Variant value, got {self.variant!r}")


def run_benchmark(
    plan: BenchPlan,
    on_result: Callable[[BenchRow, RunResult, int], None] | None = None,
) -> list[BenchRow]:
    """Execute the full plan; rows come out ordered (problem, variant, r).

    One system instance is generated per (problem, repetition) from seed
    ``mix_seed(base, "<pid>|instance|<r>")`` and run by every variant
    before the next is generated, so paired rows share a ``problem_hash``
    and only one instance is held at a time. Each run's solver seed is
    ``mix_seed(base, "<pid>|<variant>|<r>")``. Runs that hit the
    generation cap or diverge still emit a row (``converged`` false);
    nothing aborts the plan. ``on_result`` is called after each run, in
    (r, variant) order within a problem, with the row, the full result
    (including the trace), and the repetition index.
    """
    rows: list[BenchRow] = []
    for spec in plan.problems:
        runs: list[list[BenchRow]] = [[] for _ in plan.variants]
        for r in range(plan.repetitions):
            inst_seed = mix_seed(plan.base_seed, f"{spec.id}|instance|{r}")
            sys = generate_problem(spec, np.random.default_rng(inst_seed))
            h = problem_hash(sys)
            for variant, variant_rows in zip(plan.variants, runs):
                run_seed = mix_seed(plan.base_seed, f"{spec.id}|{variant.value}|{r}")
                cfg = SolverConfig(
                    variant,
                    threshold=plan.threshold,
                    max_generations=plan.max_generations,
                    seed=run_seed,
                )
                result = run_solver(sys, cfg)
                row = BenchRow(
                    problem_id=spec.id,
                    variant=variant.value,
                    seed=run_seed,
                    generations=result.generations,
                    elapsed_ms=result.elapsed_ms,
                    final_residual=result.final_residual,
                    converged=result.converged,
                    problem_hash=h,
                )
                variant_rows.append(row)
                if on_result is not None:
                    on_result(row, result, r)
            del sys  # drop this instance before the next one is generated
        for variant_rows in runs:
            rows.extend(variant_rows)
    return rows


def _csv_fields(row: BenchRow) -> list[str]:
    """The eight CSV fields ``write_csv`` writes for ``row``."""
    return [row.problem_id, row.variant, str(row.seed), str(row.generations),
            repr(float(row.elapsed_ms)), repr(float(row.final_residual)),
            "true" if row.converged else "false", f"{row.problem_hash:016x}"]


def write_csv(rows: Iterable[BenchRow], sink) -> None:
    """Write the fixed-schema CSV: exact header, LF newlines.

    Reals use ``repr`` (shortest decimal that round-trips to the same
    float64), booleans are ``true``/``false``, the hash is 16 lowercase
    hex digits.
    """
    sink.write(CSV_HEADER + "\n")
    for row in rows:
        sink.write(",".join(_csv_fields(row)) + "\n")


def read_csv(source) -> list[BenchRow]:
    """Parse ``write_csv`` output back into rows; reject any it cannot write.

    Each column of a comma-split line is converted, ``BenchRow`` judges the
    values, and a line is kept only if ``write_csv`` writes its row as it.
    """
    lines = iter(source)
    header = next(lines, "").rstrip("\n").split(",")
    if header != CSV_HEADER.split(","):
        raise ValueError(f"unexpected CSV header: {','.join(header)!r}")
    rows = []
    for lineno, line in enumerate(lines, start=2):
        rec = line.rstrip("\n").split(",")
        if len(rec) != 8:
            raise ValueError(f"line {lineno}: expected 8 fields, got {len(rec)}")
        values = []
        for name, kind, text in zip(header, _CSV_TYPES, rec):
            try:
                values.append(kind(text))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {name}: {exc}") from None
        try:
            row = BenchRow(*values)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        for name, text, written in zip(header, rec, _csv_fields(row)):
            if text != written:
                raise ValueError(f"line {lineno}: {name} {text!r} is written {written!r}")
        rows.append(row)
    return rows


@dataclass(frozen=True)
class Summary:
    """Per-(problem, variant) aggregate of benchmark rows.

    Runs count as ``converged``, ``diverged`` (``run_solver``'s rule: the
    final residual is above ``DIVERGENCE_BOUND`` or not finite) or
    ``capped``. The generation median and range and the median
    ``elapsed_ms`` cover converged runs only; None when there are none.
    """

    problem_id: str
    variant: str
    runs: int
    converged: int
    capped: int
    diverged: int
    median_generations: float | None
    generations_range: tuple[int, int] | None
    median_elapsed_ms: float | None


def summarize(rows: Sequence[BenchRow]) -> list[Summary]:
    """One ``Summary`` per (problem, variant), in first-seen order."""
    groups: dict[tuple[str, str], list[BenchRow]] = {}
    for row in rows:
        groups.setdefault((row.problem_id, row.variant), []).append(row)
    out = []
    for (pid, variant), grp in groups.items():
        done = [r for r in grp if r.converged]
        diverged = sum(not (r.converged or r.final_residual <= DIVERGENCE_BOUND) for r in grp)
        gens = [r.generations for r in done]
        medians = (float(median(gens)), (min(gens), max(gens)),
                   median([r.elapsed_ms for r in done])) if done else (None,) * 3
        out.append(Summary(pid, variant, len(grp), len(done),
                           len(grp) - len(done) - diverged, diverged, *medians))
    return out


# Trace-chart geometry and palette.
_SVG_W, _SVG_H = 640, 420
_ML, _MR, _MT, _MB = 64, 24, 28, 48
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_RESIDUAL_FLOOR = 1e-16


def _svg_element(tag: str, text: str | None = None, /, **attrs: object) -> str:
    """One SVG element: ``attrs`` in order, ``_`` written ``-``; ``/>`` or escaped ``text``."""
    head = f"<{tag}" + "".join([f' {k.replace("_", "-")}="{v}"' for k, v in attrs.items()])
    return head + "/>" if text is None else f"{head}>{html.escape(text, quote=False)}</{tag}>"


def emit_trace_svg(
    traces: Mapping[str, Sequence[tuple[int, float]]], sink, title: str = ""
) -> None:
    """Write a standalone SVG chart of residual norm versus generation.

    ``traces`` maps a label to a list of ``(generation, residual)`` pairs;
    each trace becomes one polyline on a log10 residual axis (zero
    residuals are clamped to 1e-16 for display), with a swatch legend in
    the mapping's order. Non-finite residuals are left out of the y axis
    range and of the polylines. An empty mapping or trace is an error.
    """
    items = [(str(label), list(pts)) for label, pts in traces.items()]
    if not items:
        raise ValueError("no traces to plot")
    for label, pts in items:
        if not pts:
            raise ValueError(f"trace {label!r} is empty")
    xs_all = [g for _, pts in items for g, _ in pts]
    plotted = [
        [(g, math.log10(max(res, _RESIDUAL_FLOOR)))
         for g, res in pts if math.isfinite(res)]
        for _, pts in items
    ]
    ys_all = [v for pts in plotted for _, v in pts] or [0.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    y_lo, y_hi = min(ys_all), max(ys_all)
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    plot_w = _SVG_W - _ML - _MR
    plot_h = _SVG_H - _MT - _MB

    def px(g):
        return _ML + (g - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return _MT + (y_hi - v) / (y_hi - y_lo) * plot_h

    base, mid_x, mid_y = _MT + plot_h, f"{_ML + plot_w / 2:.1f}", f"{_MT + plot_h / 2:.1f}"
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        _svg_element("rect", width=_SVG_W, height=_SVG_H, fill="white"),
        _svg_element("line", x1=_ML, y1=base, x2=_ML + plot_w, y2=base, stroke="black"),
        _svg_element("line", x1=_ML, y1=_MT, x2=_ML, y2=base, stroke="black"),
    ]
    if title:
        out.append(_svg_element("text", title, x=mid_x, y=_MT - 10, text_anchor="middle",
                                font_size=13))
    for k in range(5):
        gx, vy = x_lo + (x_hi - x_lo) * k / 4, y_lo + (y_hi - y_lo) * k / 4
        vx, tick_y = f"{px(gx):.1f}", f"{py(vy):.1f}"
        out += [
            _svg_element("line", x1=vx, y1=base, x2=vx, y2=base + 4, stroke="black"),
            _svg_element("text", f"{gx:.0f}", x=vx, y=base + 17, text_anchor="middle",
                         font_size=11),
            _svg_element("line", x1=_ML - 4, y1=tick_y, x2=_ML, y2=tick_y, stroke="black"),
            _svg_element("text", f"{vy:.1f}", x=_ML - 7, y=f"{py(vy) + 4:.1f}",
                         text_anchor="end", font_size=11),
        ]
    out += [
        _svg_element("text", "generation", x=mid_x, y=_SVG_H - 12, text_anchor="middle",
                     font_size=12),
        _svg_element("text", "log10 residual", x=16, y=mid_y, text_anchor="middle",
                     font_size=12, transform=f"rotate(-90 16 {mid_y})"),
    ]
    for idx, ((label, _), pts) in enumerate(zip(items, plotted)):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{px(g):.2f},{py(v):.2f}" for g, v in pts)
        ly = _MT + 8 + idx * 16
        out += [
            _svg_element("polyline", fill="none", stroke=color, stroke_width=1.5, points=coords),
            _svg_element("rect", x=_ML + plot_w - 120, y=ly, width=10, height=10, fill=color),
            _svg_element("text", label, x=_ML + plot_w - 105, y=ly + 9, font_size=11),
        ]
    sink.write("\n".join(out) + "\n</svg>\n")


def _comma_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",")]


# Each plan key's converter: comma lists, the spec's n and rules, and run controls.
_PLAN_KINDS = {"problems": _comma_list, "variants": _comma_list,
               **{key: SPEC_KINDS[key] for key in ("n",) + RULE_KEYS},
               "repetitions": integer, "base_seed": integer,
               "threshold": float, "max_generations": integer}


def parse_bench_plan(text: str) -> BenchPlan:
    """Parse a benchmark plan from the shared ``key=value`` text format.

    ``problems=P1,P5,...`` names the problems, ``custom`` among them. The
    spec parser's ``build_spec`` builds each from the optional ``n``
    (default ``DEFAULT_N``) and rule keys ``diag``, ``offdiag``, ``rhs``,
    which ``custom`` needs and a family id may only repeat; there is no
    ``seed`` key, since ``base_seed`` seeds every instance. The other keys
    go to ``BenchPlan`` only when given, so an omitted one takes its
    default there: ``variants`` (comma list), ``repetitions``,
    ``base_seed``, ``threshold`` and ``max_generations``. ``BenchPlan``
    judges them once every problem is built, and its error is reported
    at the line of the key it names.
    """
    fields, lines = scan_kv(text, _PLAN_KINDS)
    if "problems" not in fields:
        raise SpecParseError("missing required key 'problems'")
    ids = fields.pop("problems")
    lines["id"] = lines["problems"]
    # The spec seed is a placeholder: run_benchmark seeds every instance.
    specs = [build_spec({"n": DEFAULT_N, **fields, "id": pid, "seed": 0}, lines) for pid in ids]
    try:
        return BenchPlan(specs, **{k: v for k, v in fields.items() if k not in SPEC_KINDS})
    except ValueError as exc:
        raise field_error(exc, lines) from None
