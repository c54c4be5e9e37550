import hashlib
import io
import math
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relaxsolve import (
    BenchPlan,
    BenchRow,
    ConstRule,
    FAMILY_IDS,
    LinearSystem,
    ProblemSpec,
    UniformRule,
    Variant,
    emit_trace_svg,
    family_spec,
    generate_problem,
    parse_bench_plan,
    problem_hash,
    read_csv,
    run_benchmark,
    summarize,
    write_csv,
)
from relaxsolve.bench import CSV_HEADER, mix_seed
from relaxsolve.problems import SpecParseError, parse_problem_spec


def _small_problem(n=12, seed=0):
    """A quickly convergent custom problem for harness tests."""
    return ProblemSpec(
        id="custom",
        n=n,
        seed=seed,
        diag_rule=ConstRule(50.0),
        offdiag_rule=UniformRule(-1.0, 1.0),
        rhs_rule=UniformRule(-5.0, 5.0),
    )


def _small_plan(variants=("JBTVA", "MJBTVA"), repetitions=3, base_seed=11):
    return BenchPlan(
        problems=(_small_problem(),),
        variants=tuple(Variant(v) for v in variants),
        repetitions=repetitions,
        base_seed=base_seed,
    )


# ------------------------------------------------------------------ hashing

def test_fnv1a64_published_vectors():
    # With base seed 0 the seed is the FNV-1a hash of the label itself.
    assert mix_seed(0, "") == 0xCBF29CE484222325
    assert mix_seed(0, "a") == 0xAF63DC4C8601EC8C
    assert mix_seed(0, "foobar") == 0x85944171F73967E8


def test_mix_seed_properties():
    assert mix_seed(5, "x") == mix_seed(5, "x")
    assert mix_seed(5, "P1|JBTVA|0") != mix_seed(5, "P1|JBTVA|1")
    assert mix_seed(5, "P1|JBTVA|0") != mix_seed(5, "P1|MJBTVA|0")
    assert 0 <= mix_seed(2**64 - 1, "anything") < 2**64


def test_problem_hash_is_content_sensitive():
    s1 = generate_problem(_small_problem(seed=1))
    s2 = generate_problem(_small_problem(seed=1))
    s3 = generate_problem(_small_problem(seed=2))
    assert problem_hash(s1) == problem_hash(s2)
    assert problem_hash(s1) != problem_hash(s3)
    # BLAKE2b-64 of A's row-major bytes then b's, whatever A's memory order.
    a, b = np.array([[2.0, 1.0], [0.5, 2.0]]), np.array([3.0, 3.0])
    assert problem_hash(LinearSystem(a, b)) == 0xEBE1A7462C6FBB7B
    assert problem_hash(LinearSystem(np.asfortranarray(a), b)) == 0xEBE1A7462C6FBB7B


@pytest.mark.parametrize("pid", ["P1", "P7"])
def test_problem_hash_does_not_copy_a_row_major_matrix(pid):
    sys_ = generate_problem(family_spec(pid, 400, seed=0))
    tracemalloc.start()
    try:
        problem_hash(sys_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sys_.a.nbytes / 4


# ---------------------------------------------------------------- plan runs

def test_run_benchmark_cardinality_and_order():
    plan = _small_plan(repetitions=3)
    rows = run_benchmark(plan)
    assert len(rows) == 6
    assert [r.variant for r in rows] == ["JBTVA"] * 3 + ["MJBTVA"] * 3
    assert all(r.problem_id == "custom" for r in rows)
    assert all(r.converged for r in rows)
    assert all(r.final_residual < 1e-7 for r in rows)
    assert all(r.generations > 0 for r in rows)


def test_run_benchmark_deterministic_across_calls():
    plan = _small_plan()
    rows1 = run_benchmark(plan)
    rows2 = run_benchmark(plan)
    for a, b in zip(rows1, rows2):
        assert a.seed == b.seed
        assert a.generations == b.generations
        assert a.final_residual == b.final_residual
        assert a.problem_hash == b.problem_hash


def test_run_benchmark_shares_instances_across_variants():
    plan = _small_plan(repetitions=4)
    rows = run_benchmark(plan)
    first = [r for r in rows if r.variant == "JBTVA"]
    second = [r for r in rows if r.variant == "MJBTVA"]
    for a, b in zip(first, second):
        assert a.problem_hash == b.problem_hash
        assert a.seed != b.seed  # run seeds still differ per variant
    assert len({r.problem_hash for r in first}) == 4  # repetitions differ


def test_run_benchmark_results_invariant_to_variant_order():
    fwd = run_benchmark(_small_plan(variants=("JBTVA", "MJBTVA")))
    rev = run_benchmark(_small_plan(variants=("MJBTVA", "JBTVA")))
    key = lambda r: (r.variant, r.seed)
    for a, b in zip(sorted(fwd, key=key), sorted(rev, key=key)):
        assert (a.generations, a.final_residual, a.problem_hash) == (
            b.generations,
            b.final_residual,
            b.problem_hash,
        )


def test_run_benchmark_survives_unsolvable_problem():
    # off-diagonal entries dwarf the unit diagonal: no omega converges
    hopeless = ProblemSpec(
        id="custom",
        n=8,
        seed=0,
        diag_rule=ConstRule(1.0),
        offdiag_rule=UniformRule(4.0, 5.0),
        rhs_rule=ConstRule(1.0),
    )
    plan = BenchPlan(
        problems=(hopeless,),
        variants=(Variant.JBTVA,),
        repetitions=2,
        base_seed=0,
        max_generations=50,
    )
    rows = run_benchmark(plan)
    assert len(rows) == 2
    assert all(not r.converged for r in rows)


def test_run_benchmark_callback_sees_every_run():
    seen = []
    plan = _small_plan(repetitions=2)
    run_benchmark(plan, on_result=lambda row, result, r: seen.append((row.variant, r)))
    assert seen == [("JBTVA", 0), ("MJBTVA", 0), ("JBTVA", 1), ("MJBTVA", 1)]


def test_run_benchmark_holds_one_instance_at_a_time():
    plan = parse_bench_plan("problems=P1\nn=400\nvariants=MJBTVA\nrepetitions=6\n")
    a_bytes = 400 * 400 * 8
    tracemalloc.start()
    try:
        run_benchmark(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * a_bytes


def test_bench_plan_validation():
    with pytest.raises(ValueError, match="^problems must name at least one problem$"):
        BenchPlan(problems=(), variants=(Variant.JBTVA,))
    with pytest.raises(ValueError, match="^variants must name at least one variant$"):
        BenchPlan(problems=(_small_problem(),), variants=())
    # Each bad value is named by its field; SolverConfig's bounds on
    # threshold and max_generations apply to a plan.
    for bad in (
        {"repetitions": 0}, {"repetitions": 1.5}, {"repetitions": 2.0},
        {"repetitions": True}, {"base_seed": -1}, {"base_seed": 1.5}, {"base_seed": True},
        {"threshold": 0.0}, {"threshold": math.inf},
        {"max_generations": -1}, {"max_generations": 2.5},
    ):
        with pytest.raises(ValueError, match="^" + next(iter(bad))):
            BenchPlan(problems=(_small_problem(),), variants=(Variant.JBTVA,), **bad)
    with pytest.raises(ValueError, match="^variants has unknown variant 'NOPE'$"):
        BenchPlan(problems=(_small_problem(),), variants=("JBTVA", "NOPE"))
    with pytest.raises(ValueError, match="^problems must hold ProblemSpec entries, got 'P1'$"):
        BenchPlan(("P1",), repetitions=1)
    plan = BenchPlan(
        problems=(_small_problem(),), variants=(Variant.JBTVA,),
        repetitions=np.int64(2), base_seed=np.uint64(5), max_generations=np.int32(9),
    )
    assert (plan.repetitions, plan.base_seed, plan.max_generations) == (2, 5, 9)


def test_bench_plan_refuses_repeats():
    # A problem id or variant named twice would repeat its runs exactly,
    # and its rows could not be told apart.
    p1 = family_spec("P1", 5, 0)
    with pytest.raises(ValueError, match="^problems has repeated id 'P1'$"):
        BenchPlan((p1, p1), variants=("MJBTVA",), repetitions=1)
    with pytest.raises(ValueError, match="^problems has repeated id 'custom'$"):
        BenchPlan((_small_problem(n=12), _small_problem(n=13)), repetitions=1)
    with pytest.raises(ValueError, match="^variants has repeated variant 'MJBTVA'$"):
        BenchPlan((p1,), variants=("MJBTVA", Variant.MJBTVA), repetitions=1)


# --------------------------------------------------------------------- CSV

def test_csv_header_is_bit_exact():
    assert (
        CSV_HEADER
        == "problem,variant,seed,generations,elapsed_ms,final_residual,converged,problem_hash"
    )
    buf = io.StringIO()
    write_csv([], buf)
    assert buf.getvalue() == CSV_HEADER + "\n"


def test_csv_one_row_two_lines_lf_only():
    row = BenchRow("P1", "JBTVA", 7, 58, 406.25, 9.5e-8, True, 0xDEADBEEF)
    buf = io.StringIO()
    write_csv([row], buf)
    text = buf.getvalue()
    assert text.count("\n") == 2 and "\r" not in text
    assert text.splitlines()[1] == (
        "P1,JBTVA,7,58,406.25,9.5e-08,true,00000000deadbeef"
    )


def test_csv_round_trip_exact():
    rows = [
        BenchRow("P1", "JBTVA", 2**63 + 5, 58, 406.0625, 9.518e-8, True, 2**64 - 1),
        BenchRow("custom", "MGSBTVA", 0, 0, 0.0, 123.45678901234567, False, 0),
        BenchRow("P9", "GSBTVA", 17, 10000, 7547.25, 1e-300, False, 0xABC),
    ]
    buf = io.StringIO()
    write_csv(rows, buf)
    assert read_csv(io.StringIO(buf.getvalue())) == rows


def test_csv_round_trip_of_real_runs():
    rows = run_benchmark(_small_plan(repetitions=2))
    buf = io.StringIO()
    write_csv(rows, buf)
    assert read_csv(io.StringIO(buf.getvalue())) == rows


def test_read_csv_rejects_malformed_input():
    with pytest.raises(ValueError):
        read_csv(io.StringIO(""))
    with pytest.raises(ValueError):
        read_csv(io.StringIO("wrong,header\n"))
    good = CSV_HEADER + "\n"
    with pytest.raises(ValueError):
        read_csv(io.StringIO(good + "P1,JBTVA,1,2,3.0\n"))
    with pytest.raises(ValueError):
        read_csv(io.StringIO(good + "P1,JBTVA,1,2,3.0,4.0,maybe,00000000000000ff\n"))
    with pytest.raises(ValueError):
        read_csv(io.StringIO(good + "P1,JBTVA,x,2,3.0,4.0,true,00000000000000ff\n"))
    # Every row write_csv cannot write is refused at its line and column,
    # including values that convert but that write_csv would spell otherwise.
    ok = ["P1", "JBTVA", "5", "3", "1.0", "2.0", "true", "00000000000000ff"]
    for k, bad in [
        (2, "-5"), (2, "+5"), (2, " 5"), (2, "5_0"), (2, "007"),
        (3, "-3"), (3, "3.0"), (3, "02"),
        *[(k, bad) for k in (4, 5) for bad in ("1_0", " 1.5", "+2.0", "Infinity", "1E5",
                                               "3.50", "1.0e+16", "-nan")],
        (6, "maybe"), (6, "TRUE"),
        (7, "-AB"), (7, "ff"), (7, "00000000000000FF"), (7, "0x000000000000ff"),
        (7, "000000000000000ff"),
    ]:
        rec = ok[:k] + [bad] + ok[k + 1:]
        with pytest.raises(ValueError, match="^line 3: " + CSV_HEADER.split(",")[k]):
            read_csv(io.StringIO(good + ",".join(ok) + "\n" + ",".join(rec) + "\n"))
    with pytest.raises(ValueError, match="^line 2: seed"):
        read_csv(io.StringIO(good + "P1,NOPE,-5,-3,nan,-1,true,-AB\n"))
    with pytest.raises(ValueError, match="^line 3: expected 8 fields, got 1$"):
        read_csv(io.StringIO(good + ",".join(ok) + "\n\n"))
    assert read_csv(io.StringIO(good + ",".join(ok) + "\n")) == [
        BenchRow("P1", "JBTVA", 5, 3, 1.0, 2.0, True, 0xFF)
    ]


@pytest.mark.parametrize(
    "field,bad",
    [("seed", -1), ("seed", 2**64), ("seed", 1.0), ("seed", True),
     ("generations", -1), ("generations", 2.0), ("generations", False),
     ("problem_hash", -1), ("problem_hash", 2**64), ("problem_hash", True)],
)
def test_bench_row_judges_its_integers(field, bad):
    values = {"problem_id": "P1", "variant": "JBTVA", "seed": 5, "generations": 3,
              "elapsed_ms": 1.0, "final_residual": 2.0, "converged": True,
              "problem_hash": 0xFF}
    with pytest.raises(ValueError, match="^" + field):
        BenchRow(**{**values, field: bad})
    edge = {"seed": 2**64 - 1, "generations": 0, "problem_hash": np.uint64(2**64 - 1)}
    assert BenchRow(**{**values, field: edge[field]})


def test_bench_row_judges_id_and_variant():
    # An id holding a comma would be written as nine fields.
    with pytest.raises(ValueError, match="^problem_id must be a family id or custom, got 'a,b'$"):
        BenchRow("a,b", "JBTVA", 1, 2, 1.0, 2.0, True, 3)
    with pytest.raises(ValueError, match="^variant must be a Variant value, got 'NOPE'$"):
        BenchRow("P1", "NOPE", 1, 2, 1.0, 2.0, True, 3)
    assert BenchRow("custom", Variant.FIXED_GS_SR, 1, 2, 1.0, 2.0, True, 3)


def test_read_csv_refuses_quoted_fields():
    # write_csv never quotes a field, so a quoted one is no line it writes.
    text = CSV_HEADER + '\n"P1",JBTVA,5,3,1.0,2.0,true,00000000000000ff\n'
    with pytest.raises(ValueError, match="^line 2: problem_id .* got '\"P1\"'$"):
        read_csv(io.StringIO(text))
    with pytest.raises(ValueError, match="^line 2: variant"):
        read_csv(io.StringIO(CSV_HEADER + '\nP1,"JBTVA",5,3,1.0,2.0,true,00000000000000ff\n'))


_CSV_IDS = st.sampled_from(FAMILY_IDS + ("custom",))
_CSV_VARIANTS = st.sampled_from([v.value for v in Variant])
_U64S = st.integers(0, 2**64 - 1)
# Every float, with NaN, the infinities and subnormals drawn more often.
_REALS = st.one_of(st.floats(), st.sampled_from(
    (math.nan, -math.inf, math.inf, 5e-324, -2.2250738585072e-308, -0.0)))


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.builds(BenchRow, _CSV_IDS, _CSV_VARIANTS, _U64S, st.integers(0, 2**40),
                          _REALS, _REALS, st.booleans(), _U64S), max_size=4))
def test_csv_text_round_trips(rows):
    # Text is compared because a NaN row never equals itself.
    first = io.StringIO()
    write_csv(rows, first)
    second = io.StringIO()
    write_csv(read_csv(io.StringIO(first.getvalue())), second)
    assert second.getvalue() == first.getvalue()


def test_summarize_counts_endings_and_medians_over_converged_runs():
    rows = [
        BenchRow("P1", "JBTVA", 1, 10, 100.0, 1e-8, True, 1),
        BenchRow("P1", "JBTVA", 2, 30, 300.0, 3e-8, True, 2),
        BenchRow("P1", "JBTVA", 3, 20, 200.0, 2e-8, True, 3),
        BenchRow("P1", "JBTVA", 4, 10000, 9e5, 1e-3, False, 4),
        BenchRow("P1", "JBTVA", 5, 7, 5.0, 1e13, False, 5),
        BenchRow("P1", "MJBTVA", 6, 40, 50.0, 5e-8, False, 1),
        BenchRow("P1", "MJBTVA", 7, 3, 4.0, math.nan, False, 2),
        BenchRow("P1", "MJBTVA", 8, 3, 4.0, 1e12, False, 3),
        BenchRow("P2", "JBTVA", 9, 10, 1.0, 1e-8, True, 1),
        BenchRow("P2", "JBTVA", 10, 15, 2.0, 1e-8, True, 2),
    ]
    stats = {(s.problem_id, s.variant): s for s in summarize(rows)}
    assert list(stats) == [("P1", "JBTVA"), ("P1", "MJBTVA"), ("P2", "JBTVA")]
    jb = stats[("P1", "JBTVA")]
    assert (jb.runs, jb.converged, jb.capped, jb.diverged) == (5, 3, 1, 1)
    # the capped and diverged rows stay out of the medians and the range
    assert jb.median_generations == 20.0 and jb.generations_range == (10, 30)
    assert jb.median_elapsed_ms == 200.0
    mj = stats[("P1", "MJBTVA")]
    # a residual at the bound is capped, a NaN one diverged, as in run_solver
    assert (mj.runs, mj.converged, mj.capped, mj.diverged) == (3, 0, 2, 1)
    assert mj.median_generations is mj.generations_range is mj.median_elapsed_ms is None
    p2 = stats[("P2", "JBTVA")]
    assert p2.median_generations == 12.5 and p2.median_elapsed_ms == 1.5
    assert p2.generations_range == (10, 15)


# --------------------------------------------------------------------- SVG

def _svg_counts(text):
    root = ET.fromstring(text)  # strict XML parse
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f".//{ns}polyline")
    legend = [
        r for r in root.findall(f".//{ns}rect") if r.get("width") == "10"
    ]
    texts = [t.text for t in root.findall(f".//{ns}text")]
    return polylines, legend, texts


def test_svg_single_trace_single_polyline():
    buf = io.StringIO()
    emit_trace_svg({"residual": [(0, 100.0), (1, 10.0)]}, buf)
    polylines, legend, texts = _svg_counts(buf.getvalue())
    assert len(polylines) == 1
    assert "generation" in texts and "log10 residual" in texts


def test_svg_two_labeled_traces_two_polylines_and_legend():
    buf = io.StringIO()
    emit_trace_svg(
        {"JBTVA": [(0, 100.0), (1, 10.0)], "MJBTVA": [(0, 90.0), (1, 12.0)]}, buf
    )
    polylines, legend, texts = _svg_counts(buf.getvalue())
    assert len(polylines) == 2
    assert len(legend) == 2
    assert "JBTVA" in texts and "MJBTVA" in texts


def test_svg_clamps_zero_residuals():
    buf = io.StringIO()
    emit_trace_svg({"residual": [(0, 1.0), (1, 0.0)]}, buf)
    ET.fromstring(buf.getvalue())
    assert "points=" in buf.getvalue()


def _polyline_points(text):
    return [p.get("points") for p in _svg_counts(text)[0]]


def test_svg_leaves_non_finite_residuals_out():
    finite = {"a": [(0, 100.0), (1, 10.0), (2, 1.0)]}
    alone, mixed = io.StringIO(), io.StringIO()
    emit_trace_svg(finite, alone)
    emit_trace_svg(
        {**finite, "b": [(0, 5.0), (1, math.inf)], "c": [(0, math.nan), (1, math.nan)]},
        mixed,
    )
    assert "nan" not in mixed.getvalue() and "inf" not in mixed.getvalue()
    points = _polyline_points(mixed.getvalue())
    assert points[0] == _polyline_points(alone.getvalue())[0]
    assert len(points[1].split()) == 1 and points[2] == ""
    only_nan = io.StringIO()
    emit_trace_svg({"c": [(0, math.nan)]}, only_nan)
    assert _polyline_points(only_nan.getvalue()) == [""]
    assert "nan" not in only_nan.getvalue()


def test_svg_escapes_labels():
    buf = io.StringIO()
    emit_trace_svg({"a<&>b": [(0, 1.0), (1, 0.5)]}, buf)
    root = ET.fromstring(buf.getvalue())
    texts = [t.text for t in root.iter() if t.tag.endswith("text")]
    assert "a<&>b" in texts


def test_svg_bytes_are_pinned():
    # Every coordinate, number format and element of one chart, as a digest:
    # two traces, an escaped title and label, a zero, an inf and a NaN.
    buf = io.StringIO()
    emit_trace_svg(
        {"JBTVA": [(0, 120.0), (1, 3.5), (2, 0.0), (3, math.inf), (4, 2e-9)],
         "a<&>b": [(0, 80.0), (2, math.nan), (4, 1e-3)]},
        buf, "P1 <&> n=200",
    )
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == "b078f0bb9b197a88c089eae4dd77164a643ffd7e362b11ab32b900dfd9e8a943"


def test_svg_empty_trace_rejected():
    with pytest.raises(ValueError):
        emit_trace_svg({}, io.StringIO())
    with pytest.raises(ValueError):
        emit_trace_svg({"x": []}, io.StringIO())


# -------------------------------------------------------------------- plans

def test_parse_plan_families():
    plan = parse_bench_plan(
        "problems=P1,P5\nvariants=JBTVA,MJBTVA\nrepetitions=3\nbase_seed=9\nn=50\n"
    )
    assert [p.id for p in plan.problems] == ["P1", "P5"]
    assert all(p.n == 50 for p in plan.problems)
    assert plan.variants == (Variant.JBTVA, Variant.MJBTVA)
    assert plan.repetitions == 3 and plan.base_seed == 9
    assert plan.threshold == 1e-7
    assert plan.max_generations == 10000


def test_parse_plan_defaults():
    plan = parse_bench_plan("problems=P1\n")
    assert plan.repetitions == 10 and plan.base_seed == 0
    assert plan.variants == (
        Variant.JBTVA,
        Variant.GSBTVA,
        Variant.MJBTVA,
        Variant.MGSBTVA,
    )
    assert plan.problems[0].n == 200


def test_parse_plan_inline_custom_problem():
    text = (
        "problems=custom\nn=16\ndiag=const:50\noffdiag=uniform:-1,1\n"
        "rhs=uniform:-5,5\nvariants=FIXED_GS_SR\nthreshold=1e-6\n"
        "max_generations=500\nrepetitions=2\n"
    )
    plan = parse_bench_plan(text)
    assert [p.id for p in plan.problems] == ["custom"]
    assert plan.problems[0].n == 16
    assert plan.problems[0].diag_rule == ConstRule(50.0)
    assert plan.variants == (Variant.FIXED_GS_SR,)
    assert plan.threshold == 1e-6
    assert plan.max_generations == 500


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("problems=P1\nwhatever=1", "unknown key"),
        ("problems=P1\nvariants=XBTVA", "unknown variant"),
        ("problems=P1,P1", "line 1: problems has repeated id 'P1'"),
        ("problems=P1\nvariants=MJBTVA,MJBTVA", "line 2: variants has repeated variant 'MJBTVA'"),
        ("problems=P1\nid=P2\nn=5", "line 2: unknown key 'id'"),
        ("repetitions=3", "missing required key 'problems'"),
        ("problems=P0", "unknown id"),
        ("problems=P11", "line 1: id must be custom or one of P1..P10, got unknown id 'P11'"),
        ("problems=P1\nseed=5", "line 2: unknown key 'seed'"),
        ("id=P1\nseed=5", "line 1: unknown key 'id'"),
        ("problems=P1\ndiag=const:1", "line 2: diag of P1 is fixed to uniform:100,200"),
        ("problems=P1\nn=0", "line 2: n must be an integer from 1 to 1073741823, got 0"),
        ("problems=P1\nrepetitions=0", "line 2: repetitions must be an integer >= 1, got 0"),
        ("problems=P1\nthreshold=zero", "invalid real"),
        ("problems=P1\nthreshold=-1e-7", "line 2: threshold must lie in the open interval (0, inf), got -1e-07"),
        ("problems=P1\nthreshold=inf", "line 2: threshold must lie in the open interval (0, inf), got inf"),
        ("problems=P1\nn=007", "line 2: invalid integer for key 'n': '007'"),
        ("problems=P1\nrepetitions=+5", "line 2: invalid integer for key 'repetitions': '+5'"),
        ("problems=P1\nmax_generations=5_0", "line 2: invalid integer for key 'max_generations': '5_0'"),
        ("problems=P1\nbase_seed=\u0663", "line 2: invalid integer for key 'base_seed': '\u0663'"),
        ("problems=P1\nbase_seed=-0", "line 2: invalid integer for key 'base_seed': '-0'"),
        ("n=0\nproblems=P1\nrepetitions=abc", "line 3: invalid integer for key 'repetitions': 'abc'"),
        ("problems=P1\nthreshold=x\ndiag=nonsense:1", "line 2: invalid real for key 'threshold': 'x'"),
    ],
)
def test_parse_plan_rejections(text, fragment):
    with pytest.raises(SpecParseError) as err:
        parse_bench_plan(text)
    assert fragment in str(err.value)


_KEYS = (
    "id", "n", "seed", "diag", "offdiag", "rhs", "problems", "variants",
    "repetitions", "base_seed", "threshold", "max_generations",
)
_EDGE_VALUES = (
    "P1", "P7", "custom", "P1,P6", "MJBTVA", "JBTVA,FIXED_GS_SR", "0", "1",
    "-1", "200", "1e-7", "1e400", "-1e400", "nan", "inf", "const:50",
    "const:1e309", "const:nan", "uniform:-1,1", "uniform:-1e308,1e308",
    "uniform:1e-14,1e-13", "formula:p7", "formula:p7-rhs", "formula:p8-diag",
    "\uff11\uff12", str(2**64), str(2**62), str(2**64 - 1),
)
# Digits, signs, the format's own = # , : - characters, and characters
# that str.splitlines() or int() treat specially.
_CHARS = "019.,:-+eEinfa_=# \t\n\u2028\x85\uff11"


_RULES = {"diag": "const:50", "offdiag": "uniform:-1,1", "rhs": "const:1"}
_PLAN = {"variants": "MJBTVA", "repetitions": "2", "base_seed": "0",
         "threshold": "1e-7", "max_generations": "10"}
# A valid input per parser and plan form; edits replace, add or drop keys.
_BASES = (
    (parse_problem_spec, {"id": "custom", "n": "5", "seed": "0", **_RULES}),
    (parse_bench_plan, {"problems": "P1,P6", "n": "5", **_PLAN}),
    (parse_bench_plan, {"problems": "custom", "n": "5", **_RULES, **_PLAN}),
)


@settings(max_examples=100, deadline=None, database=None)
@given(
    st.dictionaries(
        st.sampled_from(_KEYS),
        st.one_of(st.none(), st.sampled_from(_EDGE_VALUES), st.text(_CHARS, max_size=8)),
        max_size=3,
    )
)
def test_parsers_raise_only_spec_parse_errors(edits):
    # Whatever the known keys and edge values make of a valid input, both
    # parsers either return or raise SpecParseError, never another error.
    for parse, base in _BASES:
        fields = {k: v for k, v in {**base, **edits}.items() if v is not None}
        try:
            parse("\n".join(f"{key}={value}" for key, value in fields.items()))
        except SpecParseError:
            pass
