"""The demos and the outcome-grid script run to completion on this checkout.

Each demo script runs in-process, as its own ``__main__``, which is faster
than a fresh interpreter and sees the same package the rest of the suite
tests. Each demo plan runs in-process through ``relaxsolve bench``, whose
summary lines are the plan's findings.
"""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from relaxsolve import FAMILY_IDS, parse_bench_plan
from relaxsolve.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "01_relaxation_basics",
    "02_self_adaptive_run",
)


def _bench_plan(name, tmp_path, capsys):
    """Exit code, plan and per-group summary lines of ``bench`` on a demo plan."""
    path = ROOT / "demos" / f"{name}.plan"
    code = main(["bench", "--plan", str(path), "--out", str(tmp_path / "rows.csv")])
    out, err = capsys.readouterr()
    assert err == ""
    return code, parse_bench_plan(path.read_text(encoding="utf-8")), out.splitlines()


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demo 02 writes its SVG under the working directory
    runpy.run_path(str(ROOT / "demos" / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out


def test_ablation_plan_converges_in_every_group(tmp_path, capsys):
    # Each recombining variant beside its M* partner, on shared P1 instances.
    code, plan, lines = _bench_plan("03_recombination_ablation", tmp_path, capsys)
    assert code == 0
    assert [line.split(":")[0] for line in lines] == [
        "P1 JBTVA", "P1 MJBTVA", "P1 GSBTVA", "P1 MGSBTVA",
    ]
    assert all(" runs=10 converged=10 " in line for line in lines)


def test_family_plan_prints_one_line_per_family_in_plan_order(tmp_path, capsys):
    # Some families no longer contract at n = 200 (P5 diverges), so bench exits 1.
    code, plan, lines = _bench_plan("04_problem_family_tour", tmp_path, capsys)
    assert code == 1
    assert [p.id for p in plan.problems] == list(FAMILY_IDS)
    assert [line.split(":")[0] for line in lines] == [f"{p.id} MGSBTVA" for p in plan.problems]
    assert all(" runs=3 " in line for line in lines)


def test_outcome_grid_counts_its_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main prepends its --src
    grid = runpy.run_path(str(ROOT / "scripts" / "outcome_grid.py"))
    assert grid["main"](["--seeds", "1"]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 126
    # main() runs in-process and leaves the BLAS threads as they are; it
    # names numpy, its BLAS and the thread variables before the counts.
    *environment, counts = err.splitlines()
    assert len(environment) == 1 and environment[0].startswith("numpy ")
    assert "OPENBLAS_NUM_THREADS=" in environment[0]
    assert counts == "126 runs: converged=106 capped=0 diverged=20"


# The fields a different BLAS build may move: only their bits depend on it.
BUILD_FREE = ("problem_hash", "generations", "converged", "diverged")


def test_outcome_grid_matches_its_committed_fixture():
    # tests/outcome_grid.txt is the default grid (seeds 1 and 2), first line
    # the BLAS line the script prints. On the BLAS build named there every
    # field of every run must match; on another, the bits of residuals,
    # traces and states may differ, so only the outcome fields are compared.
    lines = (ROOT / "tests" / "outcome_grid.txt").read_text(encoding="utf-8").splitlines()
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "outcome_grid.py"),
                           "--seeds", "1,2"],
                          capture_output=True, text=True, timeout=60, check=True)
    # stderr names numpy, its BLAS and the thread variables, then the counts.
    blas, counts = proc.stderr.splitlines()
    assert blas.startswith("numpy ") and "OPENBLAS_NUM_THREADS=" in blas
    fields = None if blas == lines[0] else BUILD_FREE
    if fields:
        print(f"outcome grid: bits not compared, BLAS line {blas!r} is not the fixture's")
    want = [json.loads(line) for line in lines[1:]]
    got = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(got) == len(want)
    moved = [
        f"{w['problem']} n={w['n']} seed={w['seed']} {w['variant']}: {key} {w[key]!r} -> {g[key]!r}"
        for w, g in zip(want, got) for key in fields or w if repr(g.get(key)) != repr(w[key])
    ]
    assert not moved, ("bits not compared; " if fields else "") + "moved:\n" + "\n".join(moved)
    # The script's own tally of the runs, which the fixture's lines agree with.
    assert counts == "252 runs: converged=207 capped=0 diverged=45"
