import ast
import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import relaxsolve

MODULES = [relaxsolve] + [
    importlib.import_module(f"relaxsolve.{info.name}")
    for info in pkgutil.iter_modules(relaxsolve.__path__)
]

SOURCES = sorted(pathlib.Path(relaxsolve.__file__).parent.glob("*.py"))

# The library modules whose public names the package re-exports: all but cli.
LIBRARY = ["bench", "evolution", "iteration", "linalg", "problems"]

# Every name the package exported before it took its list from the modules.
PACKAGE_NAMES = {
    "BenchPlan", "BenchRow", "ConstRule", "FAMILY_IDS", "FormulaRule",
    "IterationOperator", "LinearSystem", "Population", "ProblemSpec",
    "RunResult", "SolverConfig", "SpecParseError", "Summary", "UniformRule",
    "Variant", "adapt_pair", "basic_time_variant", "emit_trace_svg",
    "explicit_operator", "family_spec", "gauss_seidel_sr_step",
    "generate_problem", "init_population", "init_relaxation_factors",
    "jacobi_sr_step", "make_stochastic_matrix", "mutate_and_evaluate",
    "parse_bench_plan", "parse_problem_spec", "problem_hash", "read_csv",
    "recombine", "render_problem_spec", "residual_norm", "run_benchmark",
    "run_solver", "select_and_reproduce", "summarize", "write_csv",
}


def _load_spans():
    # The benchmark's span recorder, loaded from its file as it stands.
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_reexports_each_library_module_all():
    names = [name for m in LIBRARY for name in importlib.import_module(f"relaxsolve.{m}").__all__]
    assert relaxsolve.__all__ == names
    assert len(set(names)) == len(names)
    assert PACKAGE_NAMES <= set(names)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_imported_from_a_sibling_module(path):
    # A name one module shares with another is public; an underscore name
    # imported across modules means two modules know one's internals.
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("relaxsolve"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_exported_name_carries_wrapped(module):
    # The benchmark's span recorder takes a function with __wrapped__ for one
    # it has wrapped, and refuses to time an untraced run while it sees one.
    # functools.wraps and numpy's errstate decorator both set it.
    exported = [getattr(module, name) for name in module.__all__]
    assert [f for f in exported if hasattr(f, "__wrapped__")] == []


@pytest.mark.parametrize("target", _load_spans().TARGETS, ids=lambda t: f"{t[0]}.{t[1]}")
def test_every_span_target_is_an_unwrapped_callable(target):
    # The benchmark times a run by wrapping these module globals; a renamed
    # or removed one would break its traced run.
    module, attr, _ = target
    function = getattr(importlib.import_module(module), attr)
    assert callable(function) and not hasattr(function, "__wrapped__")
