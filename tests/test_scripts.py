"""The demos and the outcome-grid script run to completion on this checkout.

Each runs in-process, as its own ``__main__``, which is faster than a
fresh interpreter and sees the same package the rest of the suite tests.
"""

import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "01_relaxation_basics",
    "02_self_adaptive_run",
    "03_recombination_ablation",
    "04_problem_family_tour",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demo 02 writes its SVG under the working directory
    runpy.run_path(str(ROOT / "demos" / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out


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
