import numpy as np
import pytest

from relaxsolve import (
    FAMILY_IDS,
    OMEGA_MARGIN,
    LinearSystem,
    SolverConfig,
    explicit_operator,
    family_spec,
    gauss_seidel_sr_step,
    generate_problem,
    jacobi_sr_step,
    run_solver,
)
from relaxsolve.iteration import (
    BLOCK_ROWS,
    BLOCKED_FROM,
    OMEGA_HI,
    OMEGA_LO,
    gauss_seidel_work,
    upper_product,
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


@pytest.mark.parametrize("x, message", [
    (np.arange(4.0), "^dimension mismatch"),
    (np.zeros((2, 1, 2)), "^dimension mismatch"),
    (np.array([1.0 + 1j, 0.0]), "^x must be real"),
    (np.zeros(3), "^dimension mismatch"),
], ids=["length-4", "three-dim", "complex", "length-3"])
def test_upper_product_checks_x_as_the_sweep_does(x, message):
    # A length-2k vector is not a stack of k states, and a complex x is not
    # cast to its real part.
    with pytest.raises(ValueError, match=message):
        upper_product(SYS2, gauss_seidel_work(SYS2, 1), x)
    with pytest.raises(ValueError, match=message):
        gauss_seidel_sr_step(SYS2, x, 1.0)


@pytest.mark.parametrize("product", [np.array([5.0]), 5.0, [5.0, 5.0, 5.0], np.ones((2, 1))])
@pytest.mark.parametrize("step, name", [(jacobi_sr_step, "ax"), (gauss_seidel_sr_step, "ux")])
def test_steps_reject_a_carried_product_of_the_wrong_shape(step, name, product):
    # numpy would broadcast a length-1 product over every entry of x.
    with pytest.raises(ValueError, match=f"^dimension mismatch: x has shape \\(2,\\), {name} has"):
        step(SYS2, np.zeros(2), 1.0, **{name: product})
    # A sequence of x's shape is still taken.
    x = np.zeros(2)
    assert np.array_equal(step(SYS2, x, 1.0, **{name: [0.0, 0.0]}), step(SYS2, x, 1.0))


# Not a finite real number, or outside the open interval (0, 2).
REFUSED_OMEGAS = [1j, np.complex128(0.5 + 1j), np.nan, np.inf, -np.inf, "1", 0.0, -0.5, 2.0, 2.5]


@pytest.mark.parametrize("omega", REFUSED_OMEGAS)
@pytest.mark.parametrize("step", [jacobi_sr_step, gauss_seidel_sr_step])
def test_steps_refuse_an_omega_that_is_not_a_finite_real(step, omega):
    # A complex factor makes a complex state, a NaN or infinite one a NaN
    # state, and outside (0, 2) neither sweep converges.
    with pytest.raises(ValueError, match="^omega must "):
        step(SYS2, np.zeros(2), omega)
    if step is gauss_seidel_sr_step:  # each row of a stack is checked
        with pytest.raises(ValueError, match="^omega must "):
            step(SYS2, np.zeros((2, 2)), np.array([1.0, omega], dtype=object))
    # Other real numbers are taken as they are.
    assert np.array_equal(step(SYS2, np.zeros(2), 1), step(SYS2, np.zeros(2), 1.0))
    assert np.array_equal(step(SYS2, np.zeros(2), np.float64(0.5)), step(SYS2, np.zeros(2), 0.5))


@pytest.mark.parametrize("omega", REFUSED_OMEGAS)
@pytest.mark.parametrize("method", ["jacobi", "gauss_seidel"])
def test_explicit_operator_refuses_what_the_steps_refuse(method, omega):
    # The operator is the step's, so it takes the step's factors only.
    with pytest.raises(ValueError, match="^omega must "):
        explicit_operator(SYS2, omega, method)


@pytest.mark.parametrize("omega", REFUSED_OMEGAS)
def test_fixed_omega_refuses_what_the_steps_refuse(omega):
    with pytest.raises(ValueError, match="^fixed_omega must "):
        SolverConfig("FIXED_GS_SR", fixed_omega=omega)


def test_steps_take_the_adaptation_clamps_extremes():
    # run_solver clamps adapted factors OMEGA_MARGIN inside (0, 2).
    lo, hi = OMEGA_LO + OMEGA_MARGIN, OMEGA_HI - OMEGA_MARGIN
    assert (lo, hi) == (1e-6, 2.0 - 1e-6)
    sys_, rng = _random_system(6, seed=9)
    x = rng.normal(size=(2, 6))
    for omega in (lo, hi):
        for method, step in (("jacobi", jacobi_sr_step), ("gauss_seidel", gauss_seidel_sr_step)):
            op = explicit_operator(sys_, omega, method)
            assert np.max(np.abs(step(sys_, x[0], omega) - (op.h @ x[0] + op.v))) <= 1e-12
    # Each row of a stack is swept as a single state at its own factor.
    out = gauss_seidel_sr_step(sys_, x, [lo, hi])
    assert np.array_equal(out[0], gauss_seidel_sr_step(sys_, x[0], lo))
    assert np.array_equal(out[1], gauss_seidel_sr_step(sys_, x[1], hi))


def test_stacked_gs_step_takes_one_omega_per_row():
    x = np.array([[0.0, 0.0], [1.0, 2.0]])
    for omega in ([1.0], [1.0, 1.0, 1.0], 1.0):
        with pytest.raises(ValueError, match="^omega has "):
            gauss_seidel_sr_step(SYS2, x, omega)


def _stack(n, seed, k=2):
    sys_ = generate_problem(family_spec("P6", n, seed))
    x = np.random.default_rng(seed).uniform(-30.0, 30.0, size=(k, n))
    return sys_, x, np.linspace(0.6, 1.4, k)


def test_blocked_gs_kernels_match_the_dense_operator():
    # At n = 600 two slots sweep in blocks of 256, 256 and 88 rows.
    sys_, x, omegas = _stack(600, 3)
    work = gauss_seidel_work(sys_, 2)
    assert [(s, e) for s, e, _ in work] == [(0, 256), (256, 512), (512, 600)]
    out = gauss_seidel_sr_step(sys_, x, omegas, work=work)
    upper = np.triu(sys_.a, 1)
    # Measured at most 6.5e-16 (max abs difference over max abs) at n = 1000;
    # the bound is that of the n-term sums the kernels and the oracle take.
    bound = sys_.n * EPS
    for row, x_row, omega in zip(out, x, omegas):
        op = explicit_operator(sys_, omega, "gauss_seidel")
        want = op.h @ x_row + op.v
        assert np.max(np.abs(row - want)) <= bound * np.max(np.abs(want))
    got, want = upper_product(sys_, work, out), out @ upper.T
    assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))
    # The work's diagonals are zero again after the step.
    assert not any(np.diagonal(block).any() for *_, block in work)


@pytest.mark.parametrize("n, spans", [(499, [(0, 499)]), (500, [(0, 256), (256, 500)])])
def test_gauss_seidel_work_layout(n, spans):
    # Two states at n >= BLOCKED_FROM sweep in blocks of BLOCK_ROWS rows;
    # each block is A's diagonal block with a zero diagonal.
    assert (BLOCKED_FROM, BLOCK_ROWS) == (500, 256)
    sys_ = generate_problem(family_spec("P6", n, 0))
    work = gauss_seidel_work(sys_, 2)
    assert [(s, e) for s, e, _ in work] == spans
    for s, e, block in work:
        want = sys_.a[s:e, s:e].copy()
        np.fill_diagonal(want, 0.0)
        assert block.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, k", [(30, 2), (256, 2), (256, 5), (499, 2), (600, 1)])
def test_one_block_sweeps_equal_per_slot_calls_bit_for_bit(n, k):
    # One slot at any n, and any stack at n < BLOCKED_FROM, runs as one block,
    # with the same calls as one slot at a time.
    sys_, x, omegas = _stack(n, 5, k)
    work = gauss_seidel_work(sys_, k)
    assert len(work) == 1
    ux = upper_product(sys_, work, x)
    out = gauss_seidel_sr_step(sys_, x, omegas, ux=ux, work=work)
    for i, omega in enumerate(omegas):
        assert upper_product(sys_, gauss_seidel_work(sys_, 1), x[i]).tobytes() == ux[i].tobytes()
        assert gauss_seidel_sr_step(sys_, x[i], omega).tobytes() == out[i].tobytes()


@pytest.mark.parametrize("variant", ["GSBTVA", "MGSBTVA"])
def test_blocked_gauss_seidel_runs_converge(variant):
    # Both slots sweep in blocks at n = 600; the run's answer must pass the
    # benchmark's check: a residual below the threshold that final_residual
    # states within the rounding of a computed residual, and a state within
    # ||A^-1|| (r + r*) of LAPACK's answer.
    sys_ = generate_problem(family_spec("P6", 600, 1))
    assert len(gauss_seidel_work(sys_, 2)) == 3
    res = run_solver(sys_, SolverConfig(variant=variant, seed=7))
    assert res.converged
    a, b, x = sys_.a, sys_.b, res.best_state
    r = np.linalg.norm(a @ x - b)
    assert r < 1e-7
    assert abs(r - res.final_residual) <= (sys_.n + 1) * EPS * (
        np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b)
    )
    x_star = np.linalg.solve(a, b)
    r_star = np.linalg.norm(a @ x_star - b)
    assert np.linalg.norm(x - x_star) <= np.linalg.norm(np.linalg.inv(a)) * (r + r_star) * (1 + 1e-9)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        explicit_operator(SYS2, 1.0, "sor")
