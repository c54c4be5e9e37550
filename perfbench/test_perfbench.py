"""Self-test of the benchmark itself, at tiny sizes.

Every workload runs untraced and traced, and the output checks must
reject deliberately wrong answers. Run from the root of the checkout:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.load_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from relaxsolve import evolution, problems  # noqa: E402
from relaxsolve.evolution import SolverConfig  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Per-layer figures a workload never exercises, so they must read 0: only
# bench-plan goes through bench and cli, only large-n1000 runs the fixed
# baselines. Every other figure must be positive.
UNEXERCISED = {
    "small-n200": ("bench.", "cli.", "FIXED_"),
    "large-n1000": ("bench.", "cli."),
    "bench-plan": ("FIXED_",),
}


def _run(workload, trace, *extra, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_reports_every_metric(workload, trace):
    proc = _run(workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        unexercised = trace and any(
            name.startswith(tag) or tag in name for tag in UNEXERCISED[workload]
        )
        assert (m["value"] == 0) == unexercised, (name, m["value"])


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("small-n200", 0, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""


def test_wrappers_exist_only_while_traced():
    assert spans.installed() == []
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert len(spans.installed()) == len(spans.TARGETS)
    finally:
        tracer.uninstall()
    assert spans.installed() == []


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.install()
    try:
        system = problems.generate_problem(problems.family_spec("P1", 30, 1))
        evolution.run_solver(system, SolverConfig(variant="JBTVA", seed=2))
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer, 0, rounds=1)
    gens = m["evolution.generations.JBTVA"][0]
    assert gens > 0
    assert m["iteration.sweeps"][0] == 2 * gens
    assert m["evolution.recombine_calls"][0] == gens
    assert m["linalg.residual_calls"][0] == 2
    assert 0 < m["evolution.loop_self_us_per_gen"][0] < m["evolution.us_per_gen.JBTVA"][0]


@pytest.fixture(scope="module")
def solved():
    system = problems.generate_problem(problems.family_spec("P1", 30, 7))
    cfg = SolverConfig(variant="JBTVA", seed=3, threshold=workloads.THRESHOLD)
    result = evolution.run_solver(system, cfg)
    assert result.converged
    return system, workloads.make_reference(system), cfg, result


def test_check_solve_accepts_a_true_answer(solved):
    workloads.check_solve(*solved)


@pytest.mark.parametrize(
    "wrong",
    [
        lambda r: {"best_state": r.best_state + 1e-3 * np.eye(len(r.best_state))[0]},
        lambda r: {"final_residual": r.final_residual * 0.5},
        lambda r: {"trace": r.trace[:-1]},
        lambda r: {"recombine_calls": 0},
        lambda r: {"final_omegas": [2.0, r.final_omegas[1]]},
    ],
    ids=["perturbed_best_state", "wrong_residual", "short_trace", "recombine_calls", "omega_at_bound"],
)
def test_check_solve_rejects_a_wrong_answer(solved, wrong):
    system, ref, cfg, result = solved
    with pytest.raises(workloads.CheckError):
        workloads.check_solve(system, ref, cfg, dataclasses.replace(result, **wrong(result)))


@pytest.fixture(scope="module")
def plan_run(tmp_path_factory):
    wl = workloads.make("bench-plan", 11, str(tmp_path_factory.mktemp("plan")), tiny=True)
    wl.setup()
    assert wl.run_round() == (len(workloads.PLAN_FAMILIES) * 4 * 2, 0)
    with open(wl.csv_path, encoding="utf-8") as fh:
        return wl, fh.read()


def _check_csv(wl, text):
    rows = workloads.check_plan_csv(text, workloads.PLAN_FAMILIES, wl.variants, wl.repetitions)
    workloads.verify_plan_rows(rows, wl.seed, wl.n)


def test_plan_checks_accept_the_real_output(plan_run):
    wl, text = plan_run
    _check_csv(wl, text)
    workloads.check_plan_svgs(wl.svg_dir, workloads.PLAN_FAMILIES, wl.variants)


def _edit_row(text, line, column, new):
    lines = text.split("\n")
    fields = lines[line].split(",")
    fields[column] = new(fields[column])
    lines[line] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: _edit_row(t, 3, 5, lambda v: repr(float(v) * 0.5)),  # wrong residual
        lambda t: _edit_row(t, 3, 5, lambda v: "1e-06"),  # converged above threshold
        lambda t: _edit_row(t, 3, 3, lambda v: str(int(v) + 1)),  # wrong generations
        lambda t: _edit_row(t, 2, 7, lambda v: "0" * 16),  # variants disagree on a hash
        lambda t: "\n".join(t.split("\n")[:-2]) + "\n",  # a row missing
    ],
    ids=["wrong_residual", "above_threshold", "wrong_generations", "hash", "missing_row"],
)
def test_plan_checks_reject_a_wrong_csv(plan_run, edit):
    wl, text = plan_run
    with pytest.raises(workloads.CheckError):
        _check_csv(wl, edit(text))


def test_plan_checks_reject_a_missing_polyline(plan_run, tmp_path):
    wl, _ = plan_run
    shutil.copytree(wl.svg_dir, tmp_path / "svg")
    path = tmp_path / "svg" / "P6.svg"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("<polyline", "<path", 1), encoding="utf-8")
    with pytest.raises(workloads.CheckError):
        workloads.check_plan_svgs(str(tmp_path / "svg"), workloads.PLAN_FAMILIES, wl.variants)
