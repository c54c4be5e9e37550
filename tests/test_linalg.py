import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from relaxsolve import (
    FAMILY_IDS,
    BenchPlan,
    BenchRow,
    LinearSystem,
    ProblemSpec,
    SolverConfig,
    family_spec,
    generate_problem,
    jacobi_sr_step,
    residual_norm,
)
from relaxsolve.iteration import gauss_seidel_work
from relaxsolve.linalg import vector_norm


def _random_dominant(n, seed, diag=None):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    np.fill_diagonal(a, diag if diag is not None else n + rng.uniform(0, 1, n))
    b = rng.uniform(-5.0, 5.0, size=n)
    return LinearSystem(a, b)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        LinearSystem(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        LinearSystem(np.ones(4), np.ones(2))
    with pytest.raises(ValueError, match=r"^a must be square 2-D"):
        LinearSystem(np.zeros((0, 0)), np.zeros(0))


def test_rejects_length_mismatch():
    with pytest.raises(ValueError):
        LinearSystem(np.eye(3), np.ones(2))


def test_rejects_two_dimensional_rhs():
    with pytest.raises(ValueError, match=r"^b must be 1-D, got shape \(2, 1\)$"):
        LinearSystem(np.eye(2), np.ones((2, 1)))


def test_rejects_nonfinite_entries():
    a = np.eye(2)
    b = np.ones(2)
    bad_a = a.copy()
    bad_a[0, 1] = np.nan
    with pytest.raises(ValueError):
        LinearSystem(bad_a, b)
    bad_b = b.copy()
    bad_b[1] = np.inf
    with pytest.raises(ValueError):
        LinearSystem(a, bad_b)


def test_rejects_complex_arrays():
    # Casting to float64 would drop the imaginary part with only a warning.
    with pytest.raises(ValueError, match="^a must be real, got complex entries$"):
        LinearSystem(np.eye(2) * (1 + 1j), [1, 1])
    with pytest.raises(ValueError, match="^b must be real, got complex entries$"):
        LinearSystem(np.eye(2), [1, 1j])


def test_rejects_zero_diagonal():
    a = np.array([[1.0, 2.0], [3.0, 0.0]])
    with pytest.raises(ValueError):
        LinearSystem(a, np.ones(2))


def test_arrays_are_copied_and_read_only():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    b = np.array([3.0, 3.0])
    sys_ = LinearSystem(a, b)
    a[0, 0] = 99.0
    b[0] = 99.0
    assert sys_.a[0, 0] == 2.0
    assert sys_.b[0] == 3.0
    with pytest.raises(ValueError):
        sys_.a[0, 0] = 5.0
    with pytest.raises(ValueError):
        sys_.b[0] = 5.0


def test_frozen_row_major_matrix_is_kept_and_any_other_copied():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    a.setflags(write=False)
    assert LinearSystem(a, [3.0, 3.0]).a is a
    view = np.array([2.0, 1.0, 1.0, 2.0]).reshape(2, 2)  # its base stays writable
    view.setflags(write=False)
    column_major = np.asfortranarray(a)
    column_major.setflags(write=False)
    single = a.astype(np.float32)
    single.setflags(write=False)
    for other in (a.copy(), view, column_major, single, a.tolist()):
        kept = LinearSystem(other, [3.0, 3.0]).a
        assert kept is not other and np.array_equal(kept, a)
        assert kept.flags.owndata and kept.flags.c_contiguous and not kept.flags.writeable


def test_triangle_decomposition_reconstructs_exactly():
    # The Gauss-Seidel work holds A's diagonal blocks, both strict triangles
    # and a zero diagonal each, row-major like every generated A. One block
    # is all of A: for one slot, and for any number of slots at small n.
    p7 = generate_problem(family_spec("P7", 9, 0))
    for pid in FAMILY_IDS:
        assert generate_problem(family_spec(pid, 9, 0)).a.flags.c_contiguous, pid
    big = _random_dominant(600, seed=12)
    for sys_, slots, starts in ((_random_dominant(9, seed=11), 1, [0]), (p7, 2, [0]),
                                (big, 1, [0]), (big, 2, [0, 256, 512])):
        work = gauss_seidel_work(sys_, slots)
        assert [start for start, _, _ in work] == starts
        assert [end for _, end, _ in work] == starts[1:] + [sys_.n]
        for start, end, block in work:
            assert block.shape == (end - start, end - start)
            assert block.flags.c_contiguous and block.flags.writeable
            assert np.all(np.diagonal(block) == 0.0)
            reconstructed = np.diag(sys_.diag[start:end]) + block
            assert np.array_equal(reconstructed, sys_.a[start:end, start:end])


def test_residual_norm_rejects_wrong_length_state():
    sys_ = LinearSystem(np.eye(3), np.ones(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        residual_norm(sys_, np.ones(2))


def test_residual_norm_rejects_complex_state():
    # Dropping the imaginary part would call 1 + 1j a solution's entry.
    sys_ = LinearSystem(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
    with pytest.raises(ValueError, match="^x must be real, got complex entries$"):
        residual_norm(sys_, np.array([1 + 1j, 1.0]))
    with pytest.raises(ValueError, match="^x must be real, got complex entries$"):
        jacobi_sr_step(sys_, np.array([1 + 1j, 1.0]), 1.0)
    # Other real input is still cast to float64.
    for x in ([1, 1], np.ones(2, dtype=np.float32), np.ones(2, dtype=">f8")):
        assert residual_norm(sys_, x) == 0.0


def test_residual_norm_known_value():
    sys_ = LinearSystem(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([3.0, 3.0]))
    # ||b - A 0|| = ||(3, 3)|| = sqrt(18)
    assert residual_norm(sys_, np.zeros(2)) == pytest.approx(np.sqrt(18.0), rel=1e-15)


def test_residual_norm_zero_at_solution():
    sys_ = LinearSystem(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
    assert residual_norm(sys_, np.array([1.0, 1.0])) == 0.0


# Moderate values, values whose squares overflow (|x| > 1.4e154), and
# the non-finite ones.
_NORM_ENTRIES = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(min_value=1e154, max_value=1.7e308).flatmap(
        lambda x: st.sampled_from([x, -x])
    ),
    st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324]),
)


@settings(max_examples=100, deadline=None, database=None)
@given(arrays(np.float64, st.integers(0, 12), elements=_NORM_ENTRIES))
@example(np.array([1e200, 1e200]))
@example(np.array([np.inf, np.nan]))
@example(np.array([3.0, 4.0]))
def test_vector_norm_equals_numpy_norm_bit_for_bit(v):
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linalg.norm(v)
        got = vector_norm(v)
        rows = vector_norm(np.stack([v, v]))
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert rows.tobytes() == np.array([want, want]).tobytes()


def test_vector_norm_equals_numpy_norm_on_long_vectors():
    # Long enough for BLAS's blocked dot product to sum in its own order.
    rng = np.random.default_rng(12)
    for n in range(0, 600, 7):
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-100, 100)
        assert vector_norm(v) == np.linalg.norm(v)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 200, 257, 1000])
def test_vector_norm_of_a_stack_is_each_rows_norm_bit_for_bit(n):
    # Rows scaled from 1e-150 to 1e150, then one holding inf and one NaN.
    rng = np.random.default_rng(n)
    scales = 10.0 ** np.arange(-150, 151, 25)
    v = rng.standard_normal((len(scales) + 2, n)) * np.append(scales, [1.0, 1.0])[:, None]
    v[-2, n // 2], v[-1, n - 1] = np.inf, np.nan
    got = vector_norm(v)
    assert got.shape == (len(v),)
    assert got.tobytes() == np.array([math.sqrt(row.dot(row)) for row in v]).tobytes()
    assert np.isinf(got[-2]) and np.isnan(got[-1])


# Every bounded integer field: a constructor that sets it, and its range
# [lo, hi), hi None for no upper bound.
_P1 = family_spec("P1", 5, 0)
_ROW = {"problem_id": "P1", "variant": "JBTVA", "seed": 5, "generations": 3,
        "elapsed_ms": 1.0, "final_residual": 2.0, "converged": True, "problem_hash": 0xFF}
_INT_FIELDS = {
    "SolverConfig.max_generations": (lambda v: SolverConfig("MJBTVA", max_generations=v), 0, None),
    "SolverConfig.seed": (lambda v: SolverConfig("MJBTVA", seed=v), 0, 2**64),
    "ProblemSpec.n": (lambda v: ProblemSpec("P1", v, 0), 1, 2**30),
    "ProblemSpec.seed": (lambda v: ProblemSpec("P1", 5, v), 0, 2**64),
    "BenchPlan.repetitions": (lambda v: BenchPlan((_P1,), repetitions=v), 1, None),
    "BenchPlan.base_seed": (lambda v: BenchPlan((_P1,), base_seed=v), 0, 2**64),
    "BenchRow.seed": (lambda v: BenchRow(**{**_ROW, "seed": v}), 0, 2**64),
    "BenchRow.problem_hash": (lambda v: BenchRow(**{**_ROW, "problem_hash": v}), 0, 2**64),
    "BenchRow.generations": (lambda v: BenchRow(**{**_ROW, "generations": v}), 0, None),
}
# Every bounded real field: a constructor, its open interval (lo, hi), and a value inside.
_REAL_FIELDS = {
    "SolverConfig.threshold": (lambda v: SolverConfig("MJBTVA", threshold=v), 0.0, np.inf, 1e-7),
    "SolverConfig.fixed_omega": (lambda v: SolverConfig("MJBTVA", fixed_omega=v), 0.0, 2.0, 1.0),
}


def _refused(key, build, value):
    with pytest.raises(ValueError, match=f"^{key.partition('.')[2]} must") as err:
        build(value)
    assert str(err.value).endswith(f", got {value!r}")


@pytest.mark.parametrize("key", _INT_FIELDS)
def test_integer_field_bounds(key):
    build, lo, hi = _INT_FIELDS[key]
    build(lo)
    build(2**64 if hi is None else hi - 1)
    for bad in [lo - 1, True, 1.0] + ([] if hi is None else [hi]):
        _refused(key, build, bad)


@pytest.mark.parametrize("key", _REAL_FIELDS)
def test_real_field_bounds(key):
    build, lo, hi, inside = _REAL_FIELDS[key]
    build(inside)
    for bad in (lo, hi, np.nan, True):
        _refused(key, build, bad)
