import importlib
import pathlib
import re
import runpy
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from relaxsolve import (
    DEFAULT_N,
    BenchPlan,
    SolverConfig,
    Variant,
    family_spec,
    generate_problem,
    parse_bench_plan,
    parse_problem_spec,
    read_csv,
)
from relaxsolve.cli import build_parser, main

CUSTOM_SPEC = (
    "id=custom\nn=12\nseed=4\ndiag=const:50\noffdiag=uniform:-1,1\nrhs=uniform:-5,5\n"
)

SMALL_PLAN = (
    "problems=custom\nn=12\ndiag=const:50\noffdiag=uniform:-1,1\nrhs=uniform:-5,5\n"
    "variants=JBTVA,MJBTVA\nrepetitions=2\nbase_seed=6\n"
)


def _result_fields(line):
    m = re.fullmatch(
        r"generations=(\d+) elapsed_ms=([0-9.]+) final_residual=([^ ]+)", line.strip()
    )
    assert m, f"unexpected result line: {line!r}"
    return int(m.group(1)), float(m.group(2)), float(m.group(3))


def test_solve_family_converges(capsys):
    code = main(["solve", "--problem", "P1", "--variant", "MGSBTVA", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    gens, _, resid = _result_fields(out.splitlines()[-1])
    assert gens > 0 and resid < 1e-7


def test_solve_stdout_is_deterministic_up_to_timing(capsys):
    argv = ["solve", "--problem", "P1", "--n", "40", "--variant", "JBTVA", "--seed", "3"]
    assert main(argv) == 0
    first = _result_fields(capsys.readouterr().out.splitlines()[-1])
    assert main(argv) == 0
    second = _result_fields(capsys.readouterr().out.splitlines()[-1])
    assert first[0] == second[0] and first[2] == second[2]


def test_solve_generation_cap_exit_code(capsys):
    code = main(
        ["solve", "--max-gens", "0", "--problem", "P1", "--variant", "JBTVA",
         "--seed", "1"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("generations=0 ")  # results still printed


def test_solve_divergent_family_reports_failure(capsys):
    # P5's off-diagonal mass at n=200 overwhelms its fixed diagonal of 50;
    # no relaxation factor converges, so the solver stops at the
    # divergence bound and the exit code reflects the failure.
    code = main(["solve", "--problem", "P5", "--variant", "MGSBTVA", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 1
    assert "final_residual=" in out


def test_solve_spec_file_with_trace(tmp_path, capsys):
    spec_file = tmp_path / "prob.txt"
    spec_file.write_text(CUSTOM_SPEC)
    svg = tmp_path / "trace.svg"
    code = main(
        ["solve", "--problem", str(spec_file), "--variant", "FIXED_GS_SR",
         "--seed", "2", "--trace", str(svg)]
    )
    assert code == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 1


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert capsys.readouterr().err != ""


def test_unknown_flag_exits_2(capsys):
    assert main(["solve", "--problem", "P1", "--variant", "JBTVA", "--bogus"]) == 2


def test_missing_required_flag_exits_2(capsys):
    assert main(["solve", "--problem", "P1"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "solve" in capsys.readouterr().out
    assert main(["solve", "--help"]) == 0
    assert "--variant" in capsys.readouterr().out


def test_run_defaults_are_solver_config_defaults(capsys):
    cfg = SolverConfig("JBTVA")
    solve = build_parser().parse_args(["solve", "--problem", "P1", "--variant", "JBTVA"])
    assert (solve.threshold, solve.max_gens, solve.seed, solve.omega) == (
        cfg.threshold, cfg.max_generations, cfg.seed, cfg.fixed_omega)
    generate = build_parser().parse_args(["generate", "--problem", "P1", "--out", "x"])
    assert solve.n == generate.n == DEFAULT_N and generate.seed == cfg.seed
    plans = [BenchPlan([family_spec("P1", 10, 0)]), parse_bench_plan("problems=P1\n")]
    adaptive = (Variant.JBTVA, Variant.GSBTVA, Variant.MJBTVA, Variant.MGSBTVA)
    for plan in plans:
        assert (plan.threshold, plan.max_generations) == (cfg.threshold, cfg.max_generations)
        assert plan.variants == adaptive
    assert plans[1].problems[0].n == DEFAULT_N
    # The help text prints the same values.
    assert main(["solve", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for default in (f"default {cfg.threshold}", f"default {cfg.max_generations}",
                    f"default {cfg.fixed_omega}", f"default {DEFAULT_N}"):
        assert default in text


def test_unreadable_problem_file_exits_3(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    code = main(["solve", "--problem", str(missing), "--variant", "JBTVA"])
    err = capsys.readouterr().err
    assert code == 3
    assert "cannot read" in err and "family ids are P1..P10" in err
    assert main(["solve", "--problem", "P11", "--variant", "JBTVA"]) == 3
    assert "cannot read P11" in capsys.readouterr().err


def test_malformed_problem_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n=abc\n")
    code = main(["solve", "--problem", str(bad), "--variant", "JBTVA"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize(
    "diag", ["uniform:-1,1", "uniform:1e-14,1e-13", "uniform:-1,1.000000001"]
)
def test_unreachable_diagonal_interval_exits_2(tmp_path, capsys, diag):
    spec_file = tmp_path / "prob.txt"
    spec_file.write_text(CUSTOM_SPEC.replace("diag=const:50", f"diag={diag}"))
    code = main(["solve", "--problem", str(spec_file), "--variant", "MJBTVA"])
    err = capsys.readouterr().err
    assert code == 2
    assert str(spec_file) in err and "diag interval" in err


def _latin1_file(path, text):
    path.write_bytes(("# r\xe9sum\xe9\n" + text).encode("latin-1"))
    return str(path)


def test_non_utf8_problem_file_exits_2(tmp_path, capsys):
    spec_file = _latin1_file(tmp_path / "prob.txt", CUSTOM_SPEC)
    code = main(["solve", "--problem", spec_file, "--variant", "JBTVA"])
    err = capsys.readouterr().err
    assert code == 2
    assert spec_file in err and "utf-8" in err


def test_files_with_a_byte_order_mark_are_read(tmp_path, capsys):
    # An editor may save UTF-8 with a leading byte-order mark; the first
    # key must not read as '\ufeffid' or '\ufeffproblems'.
    spec_file, plan, out_csv = tmp_path / "prob.txt", tmp_path / "plan.txt", tmp_path / "rows.csv"
    spec_file.write_bytes(b"\xef\xbb\xbfid=P1\nn=20\nseed=3\n")
    plan.write_bytes(b"\xef\xbb\xbf" + SMALL_PLAN.encode())
    argv = ["solve", "--variant", "JBTVA", "--seed", "3"]
    assert main(argv + ["--problem", str(spec_file)]) == 0
    from_file = _result_fields(capsys.readouterr().out)
    assert main(argv + ["--problem", "P1", "--n", "20"]) == 0
    by_id = _result_fields(capsys.readouterr().out)
    assert (from_file[0], from_file[2]) == (by_id[0], by_id[2])
    assert main(["bench", "--plan", str(plan), "--out", str(out_csv)]) == 0
    rows = read_csv(out_csv.read_text(encoding="utf-8"))
    assert {(r.problem_id, r.variant) for r in rows} == {
        ("custom", "JBTVA"), ("custom", "MJBTVA"),
    }
    assert capsys.readouterr().err == ""


def test_bad_seed_value_exits_2(capsys):
    assert main(["solve", "--problem", "P1", "--variant", "JBTVA", "--seed", "-4"]) == 2


def test_integer_option_in_another_spelling_exits_2(capsys):
    # An integer option, like an integer in a file, takes only str()'s spelling.
    assert main(["solve", "--problem", "P1", "--variant", "JBTVA", "--n", "007"]) == 2
    assert "argument --n: invalid integer value: '007'" in capsys.readouterr().err


@pytest.mark.parametrize("omega", ["inf", "nan", "0", "-1", "2"])
def test_relaxation_factor_outside_open_interval_exits_2(capsys, omega):
    argv = ["solve", "--problem", "P1", "--n", "20", "--variant", "FIXED_GS_SR"]
    assert main(argv + [f"--omega={omega}"]) == 2
    captured = capsys.readouterr()
    assert "--omega" in captured.err and "(0, 2)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("threshold", ["inf", "nan", "0", "-1e-7"])
def test_threshold_not_positive_and_finite_exits_2(capsys, threshold):
    argv = ["solve", "--problem", "P1", "--n", "30", "--variant", "MJBTVA"]
    assert main(argv + [f"--threshold={threshold}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "relaxsolve: --threshold: threshold must lie in the open interval (0, inf), "
        f"got {float(threshold)!r}\n"
    )
    assert captured.out == ""


@pytest.fixture
def no_generation(monkeypatch):
    """Fail, without allocating, if a command generates a problem."""

    def refuse(spec, rng=None):
        raise AssertionError(f"generated a problem with n={spec.n}")

    # Each command looks the generator up in its own module.
    monkeypatch.setattr("relaxsolve.cli.generate_problem", refuse)
    monkeypatch.setattr("relaxsolve.bench.generate_problem", refuse)


@pytest.mark.parametrize(
    "command,option,value",
    [
        pytest.param("solve", "--n", str(2**30), id="solve"),
        pytest.param("generate", "--n", str(2**30), id="generate"),
        ("solve", "--n", "0"),
        ("solve", "--seed", str(2**64)),
        ("solve", "--max-gens", "-1"),
        ("generate", "--seed", "-1"),
    ],
)
def test_n_at_the_size_limit_exits_2(
    tmp_path, capsys, no_generation, command, option, value
):
    # Every option bound is judged, and reported at its option, before
    # any problem is generated.
    argv = [command, "--problem", "P1", option, value]
    if command == "solve":
        argv += ["--variant", "MJBTVA"]
    else:
        argv += ["--out", str(tmp_path / "spec.txt")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"relaxsolve: {option}: " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_too_large_n_in_a_file_exits_2(tmp_path, capsys, no_generation, command):
    n = 4611686018427387903
    path = tmp_path / "input.txt"
    out_csv = tmp_path / "rows.csv"
    if command == "solve":
        path.write_text(f"id=P1\nn={n}\nseed=0\n")
        argv = ["solve", "--problem", str(path), "--variant", "MJBTVA"]
    else:
        path.write_text(f"problems=P1\nn={n}\n")
        argv = ["bench", "--plan", str(path), "--out", str(out_csv)]
    assert main(argv) == 2
    assert f"n must be an integer from 1 to 1073741823, got {n}" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["solve", "bench", "generate"])
def test_out_of_memory_while_generating_exits_2(tmp_path, capsys, monkeypatch, command):
    def no_memory(spec, rng=None):
        raise MemoryError()

    module = "relaxsolve.bench" if command == "bench" else "relaxsolve.cli"
    monkeypatch.setattr(f"{module}.generate_problem", no_memory)
    out_csv = tmp_path / "rows.csv"
    if command == "solve":
        argv = ["solve", "--problem", "P1", "--n", "123", "--variant", "MJBTVA"]
    elif command == "generate":
        argv = ["generate", "--problem", "P1", "--n", "123", "--out", str(out_csv)]
    else:
        plan = tmp_path / "plan.txt"
        plan.write_text("problems=P1\nn=123\n")
        argv = ["bench", "--plan", str(plan), "--out", str(out_csv)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "not enough memory" in captured.err and "n=123" in captured.err
    assert captured.out == ""
    assert not out_csv.exists()


def test_out_of_memory_while_solving_exits_2(capsys, monkeypatch):
    def no_memory(sys_, slots):
        raise MemoryError()

    monkeypatch.setattr("relaxsolve.evolution.gauss_seidel_work", no_memory)
    assert main(["solve", "--problem", "P1", "--n", "50", "--variant", "MGSBTVA"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "relaxsolve: P1: not enough memory for a problem with n=50\n"
    assert captured.out == ""


def test_bench_end_to_end(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text(SMALL_PLAN)
    out_csv = tmp_path / "rows.csv"
    traces = tmp_path / "traces"
    code = main(
        ["bench", "--plan", str(plan), "--out", str(out_csv), "--traces", str(traces)]
    )
    stdout = capsys.readouterr().out
    assert code == 0
    rows = read_csv(out_csv.read_text(encoding="utf-8"))
    assert len(rows) == 4
    assert {r.variant for r in rows} == {"JBTVA", "MJBTVA"}
    svg_files = sorted(p.name for p in traces.iterdir())
    assert svg_files == ["custom.svg"]
    ET.fromstring((traces / "custom.svg").read_text())
    assert "custom JBTVA:" in stdout and "custom MJBTVA:" in stdout
    for line in stdout.splitlines():
        assert re.fullmatch(
            r"custom M?JBTVA: runs=2 converged=2 capped=0 diverged=0 median_generations=\d+\.\d "
            r"generations=\d+\.\.\d+ median_elapsed_ms=[0-9.]+", line
        ), line


def test_bench_summary_of_capped_runs_has_no_median(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text(SMALL_PLAN + "max_generations=1\n")
    assert main(["bench", "--plan", str(plan), "--out", str(tmp_path / "rows.csv")]) == 1
    assert capsys.readouterr().out == (
        "custom JBTVA: runs=2 converged=0 capped=2 diverged=0\n"
        "custom MJBTVA: runs=2 converged=0 capped=2 diverged=0\n"
    )


def test_bench_bad_plan_exits_2_without_csv(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("problems=P1\nvariants=NOPE\n")
    out_csv = tmp_path / "rows.csv"
    code = main(["bench", "--plan", str(plan), "--out", str(out_csv)])
    assert code == 2
    assert not out_csv.exists()


def test_bench_repeated_variant_exits_2_without_csv(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("problems=P1\nvariants=MJBTVA, MJBTVA\n")
    out_csv = tmp_path / "rows.csv"
    code = main(["bench", "--plan", str(plan), "--out", str(out_csv)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err and "repeated variant 'MJBTVA'" in err
    assert not out_csv.exists()


def test_bench_non_utf8_plan_exits_2_without_csv(tmp_path, capsys):
    plan = _latin1_file(tmp_path / "plan.txt", SMALL_PLAN)
    out_csv = tmp_path / "rows.csv"
    code = main(["bench", "--plan", plan, "--out", str(out_csv)])
    err = capsys.readouterr().err
    assert code == 2
    assert plan in err and "utf-8" in err
    assert not out_csv.exists()


def test_bench_missing_plan_exits_3(tmp_path):
    out_csv = tmp_path / "rows.csv"
    code = main(["bench", "--plan", str(tmp_path / "none.txt"), "--out", str(out_csv)])
    assert code == 3
    assert not out_csv.exists()


def test_bench_unwritable_out_exits_3(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text(SMALL_PLAN)
    code = main(
        ["bench", "--plan", str(plan), "--out", str(tmp_path / "no_dir" / "rows.csv")]
    )
    assert code == 3


def test_generate_round_trips_through_parser(tmp_path, capsys):
    out = tmp_path / "p6.txt"
    code = main(
        ["generate", "--problem", "P6", "--n", "6", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    spec = parse_problem_spec(text)
    assert spec == family_spec("P6", 6, 3)
    # the dumped entries match what the spec regenerates
    sys_ = generate_problem(spec)
    dumped = [ln for ln in text.splitlines() if ln.startswith("# A[1] =")]
    assert len(dumped) == 1
    first_row = [float(tok) for tok in dumped[0].split("=", 1)[1].split()]
    assert np.allclose(first_row, sys_.a[0], rtol=0, atol=0)
    dumped_b = [ln for ln in text.splitlines() if ln.startswith("# b =")]
    b_vals = [float(tok) for tok in dumped_b[0].split("=", 1)[1].split()]
    assert np.allclose(b_vals, sys_.b, rtol=0, atol=0)


def test_generate_unwritable_exits_3(tmp_path, capsys):
    code = main(
        ["generate", "--problem", "P6", "--n", "4", "--seed", "1", "--out",
         str(tmp_path / "no_dir" / "x.txt")]
    )
    assert code == 3


def test_console_script_is_installed():
    # pyproject.toml's [project.scripts] line names cli.main. Python 3.10
    # has no tomllib, so the line is read as text.
    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    entry = re.fullmatch(r'relaxsolve = "([\w.]+):(\w+)"', section.strip())
    assert entry is not None, section
    assert getattr(importlib.import_module(entry[1]), entry[2]) is main
    proc = subprocess.run(
        [sys.executable, "-m", "relaxsolve.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout


def test_module_run_exits_with_mains_code(monkeypatch, capsys):
    # ``python -m relaxsolve.cli`` hands main's exit code to sys.exit. runpy
    # warns when the module is already imported, so it is dropped first.
    monkeypatch.delitem(sys.modules, "relaxsolve.cli")
    monkeypatch.setattr(sys, "argv", ["relaxsolve", "solve", "--problem", "P1",
                                      "--variant", "NOPE"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("relaxsolve.cli", run_name="__main__")
    assert exit_.value.code == 2
    assert "invalid choice: 'NOPE'" in capsys.readouterr().err


def test_import_loads_no_network_modules():
    # The package needs no network stack, which would slow every import:
    # xml.sax.saxutils, for one, pulls in urllib.request, http.client and ssl.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, relaxsolve.cli; print('ssl' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_only_gauss_seidel_loads_scipy(tmp_path):
    # scipy.linalg is most of a CLI call's start-up; a Jacobi solve and
    # generate need none of it, a Gauss-Seidel sweep needs its BLAS kernels.
    out = str(tmp_path / "p1.spec")
    code = (
        "import sys, relaxsolve\n"
        "from relaxsolve.cli import main\n"
        "main(['solve', '--problem', 'P1', '--n', '20', '--variant', 'MJBTVA'])\n"
        f"main(['generate', '--problem', 'P1', '--n', '20', '--out', {out!r}])\n"
        "loaded = ['scipy.linalg' in sys.modules]\n"
        "main(['solve', '--problem', 'P1', '--n', '20', '--variant', 'MGSBTVA'])\n"
        "print(loaded + ['scipy.linalg' in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, True]"
