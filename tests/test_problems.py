import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from relaxsolve import (
    ConstRule,
    FAMILY_IDS,
    FormulaRule,
    ProblemSpec,
    SpecParseError,
    UniformRule,
    family_spec,
    generate_problem,
    parse_problem_spec,
    problem_hash,
    render_problem_spec,
)


def _offdiag_mask(n):
    return ~np.eye(n, dtype=bool)


def test_family_ids_complete():
    assert FAMILY_IDS == tuple(f"P{k}" for k in range(1, 11))


# problem_hash of each family at n = 30, seed 1: the numpy generator's
# draws and the formulas fix every entry, whatever the BLAS build.
FAMILY_HASHES = {
    "P1": 0x2F7BE564560CA425, "P2": 0x9AB9D3E6AC37F8C1, "P3": 0xCCC922FAE0516905,
    "P4": 0xD16FE19C8457BD94, "P5": 0x70C02FFAAA5B207D, "P6": 0x23D26B29FE915A38,
    "P7": 0xBBE09C60C87FCEB2, "P8": 0x67835089CEE21B36, "P9": 0x97F2EE6D2C43B502,
    "P10": 0x67EAC79734B9CC10,
}


def test_families_generate_distinct_systems():
    hashes = {
        pid: problem_hash(generate_problem(family_spec(pid, 30, seed=1)))
        for pid in FAMILY_IDS
    }
    assert hashes == FAMILY_HASHES
    assert len(set(hashes.values())) == len(hashes)


@pytest.mark.parametrize("pid", ["P1", "P7"])
def test_generation_holds_a_once(pid):
    # The generated matrix is frozen and handed to LinearSystem uncopied.
    tracemalloc.start()
    try:
        sys_ = generate_problem(family_spec(pid, 1500, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * sys_.a.nbytes


@pytest.mark.parametrize("pid", FAMILY_IDS)
def test_every_family_generates_valid_systems(pid):
    sys_ = generate_problem(family_spec(pid, 12, seed=5))
    assert sys_.n == 12
    assert np.all(np.isfinite(sys_.a)) and np.all(np.isfinite(sys_.b))
    assert np.min(np.abs(sys_.diag)) >= 1e-12


def test_p1_interval_rules():
    sys_ = generate_problem(family_spec("P1", 40, seed=1))
    off = sys_.a[_offdiag_mask(40)]
    assert np.all((off > -10.0) & (off < 10.0))
    assert np.all((sys_.diag > 100.0) & (sys_.diag < 200.0))
    assert np.all((sys_.b > 100.0) & (sys_.b < 200.0))


def test_p2_constant_rhs():
    sys_ = generate_problem(family_spec("P2", 25, seed=2))
    assert np.all(sys_.b == 100.0)
    assert np.all((sys_.diag > 1.0) & (sys_.diag < 400.0))
    off = sys_.a[_offdiag_mask(25)]
    assert np.all((off > -4.0) & (off < 4.0))


@pytest.mark.parametrize("pid", ["P3"])
def test_zero_spanning_diagonals_are_kept_away_from_zero(pid):
    # domain (-50, 50) would admit near-zero pivots; entries are redrawn
    # until |a_ii| >= 1
    sys_ = generate_problem(family_spec(pid, 300, seed=3))
    assert np.all(np.abs(sys_.diag) >= 1.0)
    assert np.all((sys_.diag > -50.0) & (sys_.diag < 50.0))


def test_tiny_positive_diagonal_interval_is_kept_above_floor():
    # about a tenth of this interval lies below DIAG_FLOOR = 1e-12; those
    # entries are redrawn instead of failing LinearSystem's check
    spec = ProblemSpec(
        id="custom",
        n=300,
        seed=5,
        diag_rule=UniformRule(1e-13, 1e-11),
        offdiag_rule=ConstRule(0.0),
        rhs_rule=ConstRule(1.0),
    )
    sys_ = generate_problem(spec)
    assert np.all((sys_.diag >= 1e-12) & (sys_.diag < 1e-11))


def test_p9_diagonal_resampling_and_ranges():
    sys_ = generate_problem(family_spec("P9", 300, seed=4))
    assert np.all(np.abs(sys_.diag) >= 1.0)
    assert np.all((sys_.diag > -20.0) & (sys_.diag < 200.0))
    off = sys_.a[_offdiag_mask(300)]
    assert np.all((off > -2.0) & (off < 3.0))
    assert np.all((sys_.b > -2.0) & (sys_.b < 3.0))


def test_p4_constant_diag_positive_rhs():
    sys_ = generate_problem(family_spec("P4", 30, seed=6))
    assert np.all(sys_.diag == 100.0)
    assert np.all((sys_.b > 0.0) & (sys_.b < 100.0))


def test_p6_example_values():
    sys_ = generate_problem(family_spec("P6", 5, seed=7))
    assert np.all(sys_.diag == 50.0)
    assert np.all(sys_.b == 2.0)
    off = sys_.a[_offdiag_mask(5)]
    assert np.all((off > -1.0) & (off < 1.0))


def test_p7_index_formulas():
    n = 6
    sys_ = generate_problem(family_spec("P7", n, seed=0))
    for i in range(n):
        assert sys_.a[i, i] == 20.0 * (i + 1)
        assert sys_.b[i] == 10.0 * (i + 1)
        for j in range(n):
            if i != j:
                assert sys_.a[i, j] == (100.0 - (j + 1)) / 20.0


def test_p8_example_values():
    n = 5
    sys_ = generate_problem(family_spec("P8", n, seed=0))
    assert np.all(sys_.diag == 20.0 * n)
    for i in range(n):
        assert sys_.b[i] == i + 1
        for j in range(n):
            if i != j:
                assert sys_.a[i, j] == j + 1


def test_p10_constants():
    sys_ = generate_problem(family_spec("P10", 20, seed=9))
    assert np.all(sys_.diag == 40.0)
    assert np.all(sys_.b == 200.0)


def test_same_seed_reproduces_exactly():
    spec = family_spec("P1", 50, seed=123)
    s1 = generate_problem(spec)
    s2 = generate_problem(spec)
    assert np.array_equal(s1.a, s2.a) and np.array_equal(s1.b, s2.b)


def test_different_seeds_differ():
    s1 = generate_problem(family_spec("P1", 20, seed=1))
    s2 = generate_problem(family_spec("P1", 20, seed=2))
    assert not np.array_equal(s1.a, s2.a)


def test_explicit_rng_overrides_spec_seed():
    spec = family_spec("P1", 15, seed=1)
    via_rng = generate_problem(spec, np.random.default_rng(777))
    via_spec = generate_problem(spec)
    assert not np.array_equal(via_rng.a, via_spec.a)
    again = generate_problem(spec, np.random.default_rng(777))
    assert np.array_equal(via_rng.a, again.a)


def test_formula_families_are_seed_independent():
    for pid in ("P7", "P8"):
        s1 = generate_problem(family_spec(pid, 10, seed=1))
        s2 = generate_problem(family_spec(pid, 10, seed=999))
        assert np.array_equal(s1.a, s2.a) and np.array_equal(s1.b, s2.b)


def test_interval_rules_ten_thousand_samples_inside():
    # one n=100 draw gives 9900 off-diagonal samples; collect diag and
    # rhs samples across seeds until each rule has seen >= 10^4 draws
    off_samples = []
    diag_samples = []
    rhs_samples = []
    for seed in range(101):
        sys_ = generate_problem(family_spec("P1", 100, seed=seed))
        if seed < 2:
            off_samples.append(sys_.a[_offdiag_mask(100)])
        diag_samples.append(sys_.diag)
        rhs_samples.append(sys_.b)
    off = np.concatenate(off_samples)
    diag = np.concatenate(diag_samples)
    rhs = np.concatenate(rhs_samples)
    assert off.size >= 10**4 and diag.size >= 10**4 and rhs.size >= 10**4
    assert np.all((off > -10.0) & (off < 10.0))
    assert np.all((diag > 100.0) & (diag < 200.0))
    assert np.all((rhs > 100.0) & (rhs < 200.0))


# ----------------------------------------------------------------- parsing

def test_parse_family_spec():
    spec = parse_problem_spec("id=P1\nn=200\nseed=42")
    assert spec.id == "P1" and spec.n == 200 and spec.seed == 42
    assert spec.diag_rule == UniformRule(100, 200)
    assert spec.offdiag_rule == UniformRule(-10, 10)
    assert spec.rhs_rule == UniformRule(100, 200)


def test_parse_custom_spec_mirroring_p6():
    text = "id=custom\nn=10\ndiag=const:50\noffdiag=uniform:-1,1\nrhs=const:2\nseed=1"
    spec = parse_problem_spec(text)
    assert spec.id == "custom" and spec.n == 10 and spec.seed == 1
    assert spec.diag_rule == ConstRule(50.0)
    assert spec.offdiag_rule == UniformRule(-1.0, 1.0)
    assert spec.rhs_rule == ConstRule(2.0)


def test_parse_formula_rules():
    text = (
        "id=custom\nn=6\nseed=0\n"
        "diag=formula:p7\noffdiag=formula:p7\nrhs=formula:p7\n"
    )
    # A formula rule takes its slot from its key, so P7's one rule in all
    # three slots builds P7 itself, and renders as it was written.
    spec = parse_problem_spec(text)
    assert spec.diag_rule == spec.offdiag_rule == spec.rhs_rule == FormulaRule("p7")
    assert np.array_equal(
        generate_problem(spec).a, generate_problem(family_spec("P7", 6, 0)).a
    )
    assert render_problem_spec(spec).endswith(text.partition("seed=0\n")[2])


def test_parse_accepts_comments_and_blanks():
    text = "# a comment\n\nid=P2   # trailing comment\n n = 30 \nseed=4\n"
    spec = parse_problem_spec(text)
    assert spec.id == "P2" and spec.n == 30 and spec.seed == 4


def test_parse_error_reports_line_number():
    with pytest.raises(SpecParseError) as err:
        parse_problem_spec("n=abc\nid=P1\nseed=0")
    assert err.value.line == 1
    assert "line 1" in str(err.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("id=P1\nn=5\nseed=0\ncolor=red", "unknown key"),
        ("id=P1\nn=5\nn=6\nseed=0", "duplicate key"),
        ("id=P1\nseed=0", "missing required key 'n'"),
        ("id=P99\nn=5\nseed=0", "unknown id"),
        ("id=P99\nn=0\nseed=0", "unknown id"),
        ("id=P1\nn=5\nseed=0\ndiag=const:1", "only allowed with id=custom"),
        ("id=custom\nn=5\nseed=0\ndiag=const:1\noffdiag=uniform:0,1", "rhs rule is required with id=custom"),
        ("id=custom\nn=5\nseed=0\ndiag=const:1\noffdiag=uniform:1\nrhs=const:1", "malformed interval"),
        ("id=custom\nn=5\nseed=0\ndiag=const:1\noffdiag=uniform:a,b\nrhs=const:1", "malformed interval"),
        ("id=custom\nn=5\nseed=0\ndiag=const:1\noffdiag=uniform:3,1\nrhs=const:1", "lo < hi"),
        ("id=custom\nn=5\nseed=0\ndiag=formula:p7-rhs\noffdiag=uniform:0,1\nrhs=const:1", "line 4: unknown formula 'p7-rhs'"),
        ("id=custom\nn=5\nseed=0\ndiag=nonsense:1\noffdiag=uniform:0,1\nrhs=const:1", "unknown rule kind"),
        ("id=custom\nn=5\nseed=0\ndiag=formula:p9\noffdiag=uniform:0,1\nrhs=const:1", "unknown formula"),
        ("id=custom\nn=5\nseed=0\ndiag=const:0\noffdiag=uniform:0,1\nrhs=const:1", "nonzero"),
        ("id=custom\nn=5\nseed=0\ndiag=uniform:-1,1\noffdiag=uniform:0,1\nrhs=const:1", "never reaches"),
        ("id=custom\nn=5\nseed=0\ndiag=uniform:1e-14,1e-13\noffdiag=uniform:0,1\nrhs=const:1", "never reaches"),
        ("id=custom\nn=5\nseed=0\ndiag=uniform:-1,1.000000001\noffdiag=uniform:0,1\nrhs=const:1", "under the 1%"),
        ("id=custom\nn=5\nseed=0\ndiag=const:1\noffdiag=uniform:-1e308,1e308\nrhs=const:1", "finite width"),
        ("id=custom\nn=5\nseed=0\ndiag=const:1e309\noffdiag=uniform:0,1\nrhs=const:1", "finite value"),
        ("id=custom\nn=5\nseed=0\ndiag=const:1\noffdiag=const:nan\nrhs=const:1", "finite value"),
        ("id=P1\nn=0\nseed=0", "positive integer"),
        ("id=P1\nn=1073741824\nseed=0", "positive integer below 1073741824"),
        ("id=P1\nn=5\nseed=-1", "unsigned 64-bit"),
        ("id=P1\nn=5\nseed=0\nrhs=", "empty value"),
        ("just some words", "expected key=value"),
    ],
)
def test_parse_rejections(text, fragment):
    with pytest.raises(SpecParseError) as err:
        parse_problem_spec(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "rule,fragment",
    [("uniform:3,1", "lo < hi"), ("uniform:1", "malformed interval"),
     ("const:inf", "finite value"), ("formula:p9", "unknown formula"),
     ("formula:p7-offdiag", "unknown formula 'p7-offdiag'"),
     ("nonsense", "unknown rule kind")],
)
def test_rule_errors_are_reported_at_their_key(rule, fragment):
    # A rule's own check and its text conversion both end at its key's line.
    text = f"id=custom\nn=5\nseed=0\ndiag=const:1\noffdiag={rule}\nrhs=const:1"
    with pytest.raises(SpecParseError, match=f"^line 5: .*{fragment}") as err:
        parse_problem_spec(text)
    assert err.value.line == 5


def test_render_parse_round_trip_family():
    spec = family_spec("P9", 64, seed=31)
    assert parse_problem_spec(render_problem_spec(spec)) == spec


def test_render_parse_round_trip_custom():
    spec = ProblemSpec(
        id="custom",
        n=12,
        seed=9,
        diag_rule=ConstRule(50.0),
        offdiag_rule=UniformRule(-1.5, 2.5),
        rhs_rule=ConstRule(2.0),
    )
    assert parse_problem_spec(render_problem_spec(spec)) == spec


@st.composite
def _accepted_specs(draw):
    """A ProblemSpec that construction accepts: a family, or custom rules."""
    n, seed = draw(st.integers(1, 6)), draw(st.integers(0, 2**64 - 1))
    pid = draw(st.sampled_from(FAMILY_IDS + ("custom",)))
    if pid != "custom":
        return ProblemSpec(pid, n, seed)
    reals = st.floats(allow_nan=False, allow_infinity=False)
    rules = []
    for _ in range(3):
        kind = draw(st.sampled_from(["const", "uniform", "formula"]))
        try:
            if kind == "const":
                rules.append(ConstRule(draw(reals)))
            elif kind == "uniform":
                rules.append(UniformRule(*sorted([draw(reals), draw(reals)])))
            else:
                rules.append(FormulaRule(draw(st.sampled_from(["p7", "p8"]))))
        except ValueError:
            assume(False)
    try:
        return ProblemSpec("custom", n, seed, *rules)
    except ValueError:
        assume(False)


@settings(max_examples=150, deadline=None, database=None)
@given(_accepted_specs())
def test_render_parse_round_trip_of_every_accepted_spec(spec):
    parsed = parse_problem_spec(render_problem_spec(spec))
    assert parsed == spec
    original, again = generate_problem(spec), generate_problem(parsed)
    assert again.a.tobytes() == original.a.tobytes()
    assert again.b.tobytes() == original.b.tobytes()


def test_family_id_fixes_its_rules():
    # Rules that differ from P1's would render as a plain id=P1 and parse
    # back to a different system.
    with pytest.raises(ValueError, match="^diag of P1 is fixed"):
        ProblemSpec("P1", 4, 0, ConstRule(5.0), ConstRule(0.0), ConstRule(1.0))
    # A rule equal to the family's is accepted, and omitted ones are filled in.
    p1 = family_spec("P1", 4, 0)
    assert ProblemSpec("P1", 4, 0, offdiag_rule=UniformRule(-10.0, 10.0)) == p1
    assert parse_problem_spec("id=P1\nn=4\nseed=0\noffdiag=uniform:-10,10") == p1


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        family_spec("P0", 5, 0)
    with pytest.raises(ValueError):
        family_spec("P1", 0, 0)
    with pytest.raises(ValueError):
        family_spec("P1", 2**30, 0)
    with pytest.raises(ValueError):
        family_spec("P1", 5, -3)
    for n in (2.5, 2.0, "4", True, np.bool_(True)):
        with pytest.raises(ValueError, match="^n "):
            ProblemSpec("P1", n, 0)
    for seed in (1.5, 0.0, True, False):
        with pytest.raises(ValueError, match="^seed "):
            ProblemSpec("P1", 4, seed)
    assert ProblemSpec("P1", np.int64(4), np.uint64(3)) == family_spec("P1", 4, 3)
    with pytest.raises(ValueError):
        UniformRule(2.0, 2.0)
    # Rule values must be real numbers, and a bool is none: UniformRule(True, 2.0)
    # would render as uniform:True,2.0, which no parser reads back.
    # An int too large for a float is no float-valued rule either.
    for bad in ("1", None, True, np.bool_(False), 1j, 10**400):
        with pytest.raises(ValueError, match="^value must be a real number"):
            ConstRule(bad)
        with pytest.raises(ValueError, match="^lo must be a real number"):
            UniformRule(bad, 2.0)
        with pytest.raises(ValueError, match="^hi must be a real number"):
            UniformRule(0.0, bad)
    # numpy reals render as plain numbers, which the parser reads back.
    assert str(UniformRule(np.int64(-1), np.float64(2.5))) == "uniform:-1,2.5"
    assert str(ConstRule(np.float32(0.5))) == "const:0.5"
    for bad in ("p9", "p7-rhs", ""):
        with pytest.raises(ValueError, match="^unknown formula"):
            FormulaRule(bad)
