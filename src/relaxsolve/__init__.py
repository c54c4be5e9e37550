"""Dense linear-system solvers built on relaxed Jacobi and Gauss-Seidel
sweeps, with hybrid evolutionary variants that self-adapt the relaxation
factor, seeded benchmark problem generators, and a benchmark harness.
"""

from .bench import (
    BenchPlan,
    BenchRow,
    Summary,
    emit_trace_svg,
    parse_bench_plan,
    problem_hash,
    read_csv,
    run_benchmark,
    summarize,
    write_csv,
)
from .evolution import (
    Population,
    RunResult,
    SolverConfig,
    Variant,
    adapt_pair,
    basic_time_variant,
    init_population,
    init_relaxation_factors,
    make_stochastic_matrix,
    mutate_and_evaluate,
    recombine,
    run_solver,
    select_and_reproduce,
)
from .iteration import (
    IterationOperator,
    explicit_operator,
    gauss_seidel_sr_step,
    jacobi_sr_step,
)
from .linalg import (
    LinearSystem,
    SingularMatrixError,
    direct_solve,
    residual_norm,
)
from .problems import (
    FAMILY_IDS,
    ConstRule,
    FormulaRule,
    ProblemSpec,
    SpecParseError,
    UniformRule,
    family_spec,
    generate_problem,
    parse_problem_spec,
    render_problem_spec,
)

__version__ = "0.1.0"

__all__ = [
    "BenchPlan",
    "BenchRow",
    "ConstRule",
    "FAMILY_IDS",
    "FormulaRule",
    "IterationOperator",
    "LinearSystem",
    "Population",
    "ProblemSpec",
    "RunResult",
    "SingularMatrixError",
    "SolverConfig",
    "SpecParseError",
    "Summary",
    "UniformRule",
    "Variant",
    "adapt_pair",
    "basic_time_variant",
    "direct_solve",
    "emit_trace_svg",
    "explicit_operator",
    "family_spec",
    "gauss_seidel_sr_step",
    "generate_problem",
    "init_population",
    "init_relaxation_factors",
    "jacobi_sr_step",
    "make_stochastic_matrix",
    "mutate_and_evaluate",
    "parse_bench_plan",
    "parse_problem_spec",
    "problem_hash",
    "read_csv",
    "recombine",
    "render_problem_spec",
    "residual_norm",
    "run_benchmark",
    "run_solver",
    "select_and_reproduce",
    "summarize",
    "write_csv",
]
