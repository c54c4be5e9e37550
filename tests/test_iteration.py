import numpy as np
import pytest

from relaxsolve import (
    FAMILY_IDS,
    LinearSystem,
    explicit_operator,
    family_spec,
    gauss_seidel_sr_step,
    generate_problem,
    jacobi_sr_step,
)

EPS = np.finfo(np.float64).eps

SYS2 = LinearSystem(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))


def _random_system(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    np.fill_diagonal(a, rng.uniform(2.0, 4.0, n) * rng.choice([-1.0, 1.0], n))
    b = rng.uniform(-3.0, 3.0, size=n)
    return LinearSystem(a, b), rng


def _gs_row_loop(sys_, x, omega):
    """Reference forward sweep written as the obvious per-row loop."""
    out = np.array(x, dtype=np.float64)
    for i in range(sys_.n):
        acc = sys_.b[i] - sys_.a[i, :i] @ out[:i] - sys_.a[i, i + 1 :] @ x[i + 1 :]
        out[i] = (1.0 - omega) * x[i] + omega * acc / sys_.a[i, i]
    return out


def test_jacobi_step_omega_one_from_zero():
    assert np.allclose(jacobi_sr_step(SYS2, np.zeros(2), 1.0), [1.5, 1.5], atol=1e-15)


def test_jacobi_step_omega_zero_is_identity():
    sys_, rng = _random_system(7, seed=5)
    x = rng.normal(size=7)
    assert np.array_equal(jacobi_sr_step(sys_, x, 0.0), x)


def test_jacobi_step_relaxed_hand_value():
    got = jacobi_sr_step(SYS2, np.array([1.5, 1.5]), 1.5)
    assert np.allclose(got, [0.375, 0.375], atol=1e-15)


@pytest.mark.parametrize("omega", [0.3, 1.0, 1.7])
def test_jacobi_step_equals_textbook_update(omega):
    # The step is computed as x + w (b - A x) / D; the textbook relaxed
    # update is (1 - w) x + w (b - (A - D) x) / D.
    sys_, rng = _random_system(8, seed=21)
    x = rng.normal(size=8)
    d = sys_.diag
    textbook = (1.0 - omega) * x + omega * (sys_.b - (sys_.a - np.diag(d)) @ x) / d
    assert np.allclose(jacobi_sr_step(sys_, x, omega), textbook, atol=1e-13)


def test_gs_step_forward_sweep_hand_value():
    assert np.allclose(
        gauss_seidel_sr_step(SYS2, np.zeros(2), 1.0), [1.5, 0.75], atol=1e-15
    )


def test_gs_step_omega_zero_is_identity():
    sys_, rng = _random_system(6, seed=9)
    x = rng.normal(size=6)
    assert np.allclose(gauss_seidel_sr_step(sys_, x, 0.0), x, atol=1e-15)


@pytest.mark.parametrize("omega", [0.3, 1.0, 1.7])
def test_gs_exact_solution_is_fixed_point(omega):
    x_star = np.array([1.0, 1.0])
    assert np.allclose(gauss_seidel_sr_step(SYS2, x_star, omega), x_star, atol=1e-12)


@pytest.mark.parametrize("omega", [0.4, 1.0, 1.6])
def test_jacobi_exact_solution_is_fixed_point(omega):
    x_star = np.array([1.0, 1.0])
    assert np.allclose(jacobi_sr_step(SYS2, x_star, omega), x_star, atol=1e-12)


def test_gs_step_matches_row_loop_reference():
    for seed in range(20):
        sys_, rng = _random_system(7, seed=100 + seed)
        x = rng.normal(size=7)
        omega = rng.uniform(0.05, 1.95)
        got = gauss_seidel_sr_step(sys_, x, omega)
        want = _gs_row_loop(sys_, x, omega)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_explicit_operator_jacobi_hand_value():
    op = explicit_operator(SYS2, 1.0, "jacobi")
    assert np.allclose(op.h, [[0.0, -0.5], [-0.5, 0.0]], atol=1e-15)
    assert np.allclose(op.v, [1.5, 1.5], atol=1e-15)


@pytest.mark.parametrize("method", ["jacobi", "gauss_seidel"])
def test_explicit_operator_identity_at_omega_zero(method):
    sys_, _ = _random_system(5, seed=2)
    op = explicit_operator(sys_, 0.0, method)
    assert np.allclose(op.h, np.eye(5), atol=1e-14)
    assert np.allclose(op.v, np.zeros(5), atol=1e-14)


def test_sweep_equals_operator_over_random_draws():
    steps = {"jacobi": jacobi_sr_step, "gauss_seidel": gauss_seidel_sr_step}
    for seed in range(50):
        sys_, rng = _random_system(6, seed=300 + seed)
        x = rng.normal(size=6) * 3.0
        omega = rng.uniform(0.05, 1.95)
        for method, step in steps.items():
            op = explicit_operator(sys_, omega, method)
            direct = step(sys_, x, omega)
            via_op = op.h @ x + op.v
            assert np.max(np.abs(direct - via_op)) <= 1e-10
    # Every family at n = 30 over an omega grid.
    # Tolerance: rounding of n-term sums, relative to the terms' magnitude.
    rng = np.random.default_rng(17)
    for pid in FAMILY_IDS:
        sys_ = generate_problem(family_spec(pid, 30, 1))
        x = rng.normal(size=30) * 3.0
        for omega in (0.3, 0.9, 1.0, 1.5, 1.9):
            for method, step in steps.items():
                op = explicit_operator(sys_, omega, method)
                scale = np.max(np.abs(op.h) @ np.abs(x) + np.abs(op.v))
                err = np.max(np.abs(step(sys_, x, omega) - (op.h @ x + op.v)))
                assert err <= 8 * sys_.n * EPS * scale, (pid, omega, method)


@pytest.mark.parametrize("alpha", [-0.5, 0.3, 1.7])
@pytest.mark.parametrize("step", [jacobi_sr_step, gauss_seidel_sr_step])
def test_steps_are_affine_in_x(step, alpha):
    sys_, rng = _random_system(6, seed=77)
    x = rng.normal(size=6)
    y = rng.normal(size=6)
    omega = 1.3
    mixed = step(sys_, alpha * x + (1 - alpha) * y, omega)
    combo = alpha * step(sys_, x, omega) + (1 - alpha) * step(sys_, y, omega)
    assert np.max(np.abs(mixed - combo)) <= 1e-9


@pytest.mark.parametrize("step", [jacobi_sr_step, gauss_seidel_sr_step])
def test_steps_reject_wrong_length_state(step):
    with pytest.raises(ValueError, match="dimension mismatch"):
        step(SYS2, np.ones(3), 1.0)


@pytest.mark.parametrize("product", [np.array([5.0]), 5.0, [5.0, 5.0, 5.0], np.ones((2, 1))])
@pytest.mark.parametrize("step, name", [(jacobi_sr_step, "ax"), (gauss_seidel_sr_step, "ux")])
def test_steps_reject_a_carried_product_of_the_wrong_shape(step, name, product):
    # numpy would broadcast a length-1 product over every entry of x.
    with pytest.raises(ValueError, match=f"^dimension mismatch: x has shape \\(2,\\), {name} has"):
        step(SYS2, np.zeros(2), 1.0, **{name: product})
    # A sequence of x's shape is still taken.
    x = np.zeros(2)
    assert np.array_equal(step(SYS2, x, 1.0, **{name: [0.0, 0.0]}), step(SYS2, x, 1.0))


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        explicit_operator(SYS2, 1.0, "sor")
