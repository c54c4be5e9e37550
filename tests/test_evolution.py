import functools
import itertools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relaxsolve
from relaxsolve import (
    FAMILY_IDS,
    LinearSystem,
    Population,
    SolverConfig,
    Variant,
    adapt_pair,
    basic_time_variant,
    family_spec,
    gauss_seidel_sr_step,
    generate_problem,
    init_population,
    init_relaxation_factors,
    jacobi_sr_step,
    make_stochastic_matrix,
    mutate_and_evaluate,
    parse_problem_spec,
    recombine,
    residual_norm,
    run_solver,
    select_and_reproduce,
)
from relaxsolve import evolution
from relaxsolve.evolution import (
    DIVERGENCE_BOUND,
    E_X,
    LAM,
    OMEGA_HI,
    OMEGA_LO,
    OMEGA_MARGIN,
    adapt_pair_from_steps,
)
from relaxsolve.iteration import gauss_seidel_work, upper_product
from relaxsolve.linalg import vector_norm

EPS = np.finfo(np.float64).eps

SYS2 = LinearSystem(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))

ADAPTIVE = [Variant.JBTVA, Variant.GSBTVA, Variant.MJBTVA, Variant.MGSBTVA]


def _derived_fitness_bound(sys_, x, x_new, omega, ux):
    """Rounding bound on a derived Gauss-Seidel fitness against the direct one.

    The sweep from ``x`` (with carried ``ux``) gave ``x_new``; both sides
    sum the terms of ``A x_new - b`` and ``((1-w)/w) D (x - x_new) +
    (U x_new - ux)``, and the triangular solve's backward error is
    ``n eps |D/w + L| |x_new|``.
    """
    d = np.abs(sys_.diag)
    terms = (
        np.abs(sys_.a) @ np.abs(x_new)
        + np.abs(sys_.b)
        + d * np.abs(x_new) / omega
        + abs((1.0 - omega) / omega) * d * (np.abs(x) + np.abs(x_new))
        + np.abs(ux)
    )
    return 8 * sys_.n * EPS * np.linalg.norm(terms)


def _dominant_system(n, seed, diag=50.0):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    np.fill_diagonal(a, diag)
    b = rng.uniform(-5.0, 5.0, size=n)
    return LinearSystem(a, b)


# ---------------------------------------------------------------- variants

def test_variant_classification():
    assert Variant.JBTVA.uses_recombination
    assert Variant.GSBTVA.uses_recombination
    assert not Variant.MJBTVA.uses_recombination
    assert not Variant.MGSBTVA.uses_recombination
    assert not Variant.FIXED_JACOBI_SR.uses_recombination
    assert Variant.FIXED_JACOBI_SR.is_fixed and Variant.FIXED_GS_SR.is_fixed
    assert all(not v.is_fixed for v in ADAPTIVE)
    assert Variant.JBTVA.method == "jacobi"
    assert Variant.MJBTVA.method == "jacobi"
    assert Variant.FIXED_JACOBI_SR.method == "jacobi"
    assert Variant.GSBTVA.method == "gauss_seidel"
    assert Variant.MGSBTVA.method == "gauss_seidel"
    assert Variant.FIXED_GS_SR.method == "gauss_seidel"


# ------------------------------------------------------------- validation

def test_solver_config_validation():
    good = SolverConfig(variant=Variant.JBTVA)
    assert good.threshold == 1e-7
    for threshold in (0.0, -1e-7, math.inf, math.nan):
        with pytest.raises(ValueError, match="threshold"):
            SolverConfig(variant=Variant.JBTVA, threshold=threshold)
    for cap in (-1, 2.5, 2.0, "3", True, np.bool_(True)):
        with pytest.raises(ValueError, match="^max_generations"):
            SolverConfig(variant=Variant.JBTVA, max_generations=cap)
    for seed in (-1, 2**64, 1.5, 1.0, False, True):
        with pytest.raises(ValueError, match="^seed"):
            SolverConfig(variant=Variant.JBTVA, seed=seed)
    # numpy integers are integers
    cfg = SolverConfig(variant=Variant.JBTVA, max_generations=np.int64(3), seed=np.uint64(7))
    assert (cfg.max_generations, cfg.seed) == (3, 7)
    for omega in (math.inf, -math.inf, math.nan, 0.0, -1.0, 2.0, 2.5):
        with pytest.raises(ValueError, match="fixed_omega"):
            SolverConfig(variant=Variant.FIXED_GS_SR, fixed_omega=omega)
    # A bool, a non-real or an int too large for a float is rejected at its
    # field, not with a TypeError or OverflowError, nor accepted as < inf.
    for field in ("threshold", "fixed_omega"):
        for value in ("1", None, True, np.bool_(True), 1j, 10**400, -(10**400)):
            with pytest.raises(ValueError, match=f"^{field} must be a real number"):
                SolverConfig(variant=Variant.JBTVA, **{field: value})
    cfg = SolverConfig(variant=Variant.JBTVA, threshold=np.float32(1e-6), fixed_omega=1)
    assert (cfg.threshold, cfg.fixed_omega) == (np.float32(1e-6), 1)
    # generation cap of zero is legal (a run that may not iterate)
    assert SolverConfig(variant=Variant.JBTVA, max_generations=0).max_generations == 0
    # variant given as plain string is coerced
    assert SolverConfig(variant="MGSBTVA").variant is Variant.MGSBTVA
    with pytest.raises(ValueError, match="^variant must be a Variant value, got 'nope'$"):
        SolverConfig("nope")


# --------------------------------------------------------- initialization

def test_init_relaxation_factors_midpoints():
    # The midpoints of the two halves of (OMEGA_LO, OMEGA_HI).
    w = init_relaxation_factors()
    assert w.dtype == np.float64 and w.tolist() == [0.5, 1.5]


def test_init_relaxation_factors_strictly_inside():
    w = init_relaxation_factors()
    assert np.all(w > OMEGA_LO) and np.all(w < OMEGA_HI)
    # A run adapts its omegas in place, so every call hands out a new array.
    assert init_relaxation_factors() is not w
    # The pair is the only size a run builds: there is no size to pass.
    with pytest.raises(TypeError):
        init_relaxation_factors(2)


def test_init_population_contract():
    sys_ = _dominant_system(12, seed=4)
    cfg = SolverConfig(variant=Variant.JBTVA, seed=99)
    pop1 = init_population(sys_, cfg, np.random.default_rng(cfg.seed))
    pop2 = init_population(sys_, cfg, np.random.default_rng(cfg.seed))
    assert np.array_equal(pop1.states, pop2.states)
    assert np.all(pop1.states > -30.0) and np.all(pop1.states < 30.0)
    assert np.allclose(pop1.omegas, [0.5, 1.5], atol=0)
    for i in range(pop1.size):
        assert pop1.fitness[i] == residual_norm(sys_, pop1.states[i])


def test_init_population_fixed_is_one_zero_slot_without_draws():
    sys_ = _dominant_system(12, seed=4)
    cfg = SolverConfig(variant=Variant.FIXED_GS_SR, seed=99, fixed_omega=1.3)
    rng = np.random.default_rng(cfg.seed)
    pop = init_population(sys_, cfg, rng)
    assert np.array_equal(pop.states, np.zeros((1, 12)))
    assert pop.omegas.tolist() == [1.3]
    assert pop.fitness.tolist() == [residual_norm(sys_, np.zeros(12))]
    assert rng.bit_generator.state == np.random.default_rng(cfg.seed).bit_generator.state


# ----------------------------------------------------------- time variant

def test_basic_time_variant_frozen_values():
    # 50 * ln(1 + 1/(t+50)) evaluated independently at 40-digit precision
    assert basic_time_variant(0) == pytest.approx(
        0.9901313648089856513, rel=1e-14
    )
    assert basic_time_variant(50) == pytest.approx(
        0.4975165426584041424, rel=1e-14
    )


def test_basic_time_variant_monotone_to_zero():
    vals = [basic_time_variant(t) for t in range(0, 10001)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.01
    assert basic_time_variant(10**9) < 1e-7


def test_basic_time_variant_below_one_at_zero():
    assert LAM > 10.0
    assert basic_time_variant(0) < 1.0


def test_basic_time_variant_validation():
    with pytest.raises(ValueError):
        basic_time_variant(-1)
    # NaN passed ``t < 0`` and decayed the steps to NaN.
    with pytest.raises(ValueError, match="^t must be nonnegative, got nan$"):
        basic_time_variant(math.nan)
    assert basic_time_variant(math.inf) == 0.0


def test_adapt_pair_refuses_a_nan_generation_before_drawing():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="^t must be nonnegative, got nan$"):
        adapt_pair(0.5, 1.5, 1.0, 2.0, math.nan, rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


# -------------------------------------------------------------- adaptation

def test_adapt_equal_errors_is_noop():
    rng = np.random.default_rng(0)
    for _ in range(5):
        wx, wy = rng.uniform(0.1, 1.9, size=2)
        assert adapt_pair(wx, wy, 3.0, 3.0, 7, rng) == (wx, wy)


def test_adapt_zero_noise_pulls_loser_to_midpoint():
    got = adapt_pair_from_steps(0.5, 1.5, 9.0, 1.0, 0.0, 0.0)
    assert got == (1.0, 1.5)


def test_adapt_push_toward_upper_bound():
    # winner at 1.5 >= loser's 0.5: pushed toward OMEGA_HI by p_push
    got = adapt_pair_from_steps(0.5, 1.5, 9.0, 1.0, 0.0, 0.1)
    assert got[0] == 1.0
    assert got[1] == pytest.approx(1.55, abs=1e-15)


def test_adapt_push_toward_lower_bound():
    # winner at 0.5 below loser's 1.5: pushed toward OMEGA_LO
    got = adapt_pair_from_steps(1.5, 0.5, 9.0, 1.0, 0.0, 0.1)
    assert got[0] == 1.0
    assert got[1] == pytest.approx(0.45, abs=1e-15)


def test_adapt_equal_omegas_tie_pushes_up():
    got = adapt_pair_from_steps(1.0, 1.0, 9.0, 1.0, 0.0, 0.1)
    assert got == (1.0, 1.1)


def test_adapt_loser_winner_roles_follow_errors():
    # position y loses when err_y is larger
    got = adapt_pair_from_steps(1.5, 0.5, 1.0, 9.0, 0.0, 0.1)
    assert got[1] == 1.0  # loser y pulled to midpoint
    assert got[0] == pytest.approx(1.55, abs=1e-15)  # winner x pushed up


def test_adapt_ranks_nan_error_last():
    # As in selection: NaN loses to every number, inf included.
    def adapt(err_x, err_y):
        return adapt_pair_from_steps(0.5, 1.5, err_x, err_y, 0.1, 0.2)

    nan, inf = math.nan, math.inf
    assert adapt(nan, 1.0) == adapt(inf, 1.0) == adapt(9.0, 1.0)
    assert adapt(nan, inf) == adapt(9.0, 1.0)
    assert adapt(1.0, nan) == adapt(inf, nan) == adapt(1.0, 9.0)
    assert adapt(nan, nan) == (0.5, 1.5)


_ERRORS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, 0.0]))


@settings(deadline=None, database=None)
@given(err_x=_ERRORS, err_y=_ERRORS)
def test_adapt_winner_is_the_slot_selection_keeps(err_x, err_y):
    # Without noise the loser moves to the midpoint 1.0 and the winner stays.
    got = adapt_pair_from_steps(0.5, 1.5, err_x, err_y, 0.0, 0.0)
    pop = Population(np.array([[0.0], [1.0]]), np.array([err_x, err_y]), np.array([0.5, 1.5]))
    kept = int(select_and_reproduce(pop).states[0, 0])
    assert kept == pop.best_index()
    if got == (0.5, 1.5):  # a tie: selection keeps the lower slot
        assert kept == 0
    else:
        assert got[kept] == (0.5, 1.5)[kept] and got[1 - kept] == 1.0


def test_adapt_clamps_into_margin():
    lo = OMEGA_LO + OMEGA_MARGIN
    hi = OMEGA_HI - OMEGA_MARGIN
    big = adapt_pair_from_steps(0.5, 1.5, 9.0, 1.0, 50.0, 50.0)
    assert big == (hi, hi)
    small = adapt_pair_from_steps(0.5, 1.5, 9.0, 1.0, -50.0, 0.0)
    assert small == (lo, 1.5)


def test_adapt_refuses_a_nan_step_and_clamps_an_infinite_one():
    # min(max(nan, lo), hi) is NaN, so a NaN step came back as an omega.
    for steps, name in (((math.nan, 0.0), "p_pull"), ((0.0, math.nan), "p_push")):
        for errors in ((1.0, 2.0), (2.0, 1.0), (1.0, 1.0)):
            with pytest.raises(ValueError, match=f"^{name} must not be NaN$"):
                adapt_pair_from_steps(0.5, 1.5, *errors, *steps)
    lo, hi = OMEGA_LO + OMEGA_MARGIN, OMEGA_HI - OMEGA_MARGIN
    assert adapt_pair_from_steps(0.5, 1.5, 1.0, 2.0, math.inf, math.inf) == (lo, hi)
    assert adapt_pair_from_steps(0.5, 1.5, 2.0, 1.0, -math.inf, math.inf) == (lo, hi)


@pytest.mark.parametrize("omegas,name,bad", [
    ((2.0, 2.0), "omega_x", 2.0),  # on the bound, an infinite push is inf * 0
    ((5.0, -3.0), "omega_x", 5.0),  # the clamp would hide both
    ((0.5, 0.0), "omega_y", 0.0),
    ((0.5, math.nan), "omega_y", math.nan),
])
def test_adapt_refuses_a_factor_outside_the_open_interval(omegas, name, bad):
    pattern = rf"^{name} must lie in the open interval \(0, 2\), got {bad!r}$"
    with pytest.raises(ValueError, match=pattern):
        adapt_pair_from_steps(*omegas, 1.0, 9.0, 0.0, math.inf)
    with pytest.raises(ValueError, match=pattern):
        adapt_pair_from_steps(*omegas, 1.0, 9.0, 0.0, 0.5)


def test_adapt_containment_over_random_draws():
    rng = np.random.default_rng(2024)
    lo = OMEGA_LO + OMEGA_MARGIN
    hi = OMEGA_HI - OMEGA_MARGIN
    for t in range(500):
        wx, wy = rng.uniform(lo, hi, size=2)
        ex, ey = rng.uniform(0.0, 10.0, size=2)
        nx, ny = adapt_pair(wx, wy, ex, ey, t % 40, rng)
        assert lo <= nx <= hi and lo <= ny <= hi


def test_adapt_symmetry_under_argument_swap():
    # swapping both omegas and errors (same noise) swaps the output pair
    for seed in range(10):
        rng = np.random.default_rng(seed)
        wx, wy = rng.uniform(0.1, 1.9, size=2)
        fwd = adapt_pair(wx, wy, 2.0, 5.0, 3, np.random.default_rng(seed + 77))
        rev = adapt_pair(wy, wx, 5.0, 2.0, 3, np.random.default_rng(seed + 77))
        assert fwd == (rev[1], rev[0])


def test_adapt_step_magnitude_scale_shrinks_with_t():
    # deterministic factor E * T_omega decays with the generation counter
    scale = [E_X * basic_time_variant(t) for t in range(100)]
    assert all(b < a for a, b in zip(scale, scale[1:]))


# ------------------------------------------------------------ recombination

def test_stochastic_matrix_rows_sum_to_one():
    for seed in (1, 2, 5, 8):
        r = make_stochastic_matrix(np.random.default_rng(seed))
        assert r.shape == (2, 2) and r.dtype == np.float64
        assert np.all(r >= 0.0)
        assert np.max(np.abs(r.sum(axis=1) - 1.0)) <= 1e-12
    # One rng.random((2, 2)) draw with its rows divided by their sums.
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    raw = ref.random((2, 2))
    assert make_stochastic_matrix(rng).tobytes() == (raw / raw.sum(axis=1, keepdims=True)).tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state
    with pytest.raises(TypeError):
        make_stochastic_matrix(2, rng)


def _evaluated_population(sys_, states, omegas):
    states = np.array(states, dtype=np.float64)
    fitness = np.array([residual_norm(sys_, s) for s in states])
    return Population(states=states, fitness=fitness, omegas=np.array(omegas))


def _work(sys_, variant):
    """The ``work`` a run of ``variant`` passes its mutation: its copy of A, or None."""
    return gauss_seidel_work(sys_, 2) if variant.method == "gauss_seidel" else None


def test_recombine_identity_matrix_keeps_states():
    pop = _evaluated_population(SYS2, [[1.0, 2.0], [3.0, 4.0]], [0.5, 1.5])
    out = recombine(pop, np.eye(2))
    assert np.array_equal(out.states, pop.states)
    assert out.fitness is None
    assert np.array_equal(out.omegas, pop.omegas)


def test_recombine_averaging_matrix():
    u, v = np.array([1.0, 3.0]), np.array([5.0, -1.0])
    pop = _evaluated_population(SYS2, [u, v], [0.5, 1.5])
    out = recombine(pop, np.full((2, 2), 0.5))
    mid = (u + v) / 2.0
    assert np.allclose(out.states[0], mid, atol=0) and np.allclose(
        out.states[1], mid, atol=0
    )


def test_recombine_preserves_shared_solution():
    x_star = np.array([1.0, 1.0])
    pop = _evaluated_population(SYS2, [x_star, x_star], [0.5, 1.5])
    r = make_stochastic_matrix(np.random.default_rng(8))
    out = recombine(pop, r)
    for s in out.states:
        assert residual_norm(SYS2, s) <= 1e-12


def test_recombine_rejects_bad_matrix():
    pop = _evaluated_population(SYS2, [[0.0, 0.0], [1.0, 1.0]], [0.5, 1.5])
    with pytest.raises(ValueError):
        recombine(pop, np.eye(3))
    with pytest.raises(ValueError):
        recombine(pop, np.array([[0.7, 0.2], [0.5, 0.5]]))
    # Rows that are NaN, infinite or negative, whatever their sum.
    for bad in ([[np.nan, 0.5], [0.5, 0.5]], [[np.inf, -np.inf], [0.5, 0.5]],
                [[1.5, -0.5], [0.5, 0.5]], [[0.5, np.nan], [0.5, 0.5]]):
        with pytest.raises(ValueError):
            recombine(pop, np.array(bad))


def test_recombine_refuses_arrays_that_disagree_on_the_slot_count():
    # Two states beside one omega came back as a population; three product
    # rows for two states ended in numpy's "shapes not aligned".
    cases = [Population(np.ones((2, 2)), None, np.array([0.5])),
             Population(np.ones((2, 2)), None, np.array([0.5, 1.5]), np.ones((3, 2)))]
    for pop in cases:
        with pytest.raises(ValueError, match="^population arrays disagree on the slot count$"):
            recombine(pop, np.eye(2))


# ---------------------------------------------------------------- mutation

def test_mutation_matches_single_sweep():
    # Eight slots at n = 30: a product taken in another order in the derived
    # Gauss-Seidel fitness changes at least one slot's norm here, though a
    # single slot's norm often rounds alike.
    sys30 = generate_problem(family_spec("P1", 30, seed=4))
    states30 = np.random.default_rng(8).uniform(-30.0, 30.0, size=(8, 30))
    for sys_, states, omegas in (
        (SYS2, [[0.0, 0.0], [0.2, -0.4]], [1.0, 1.0]),
        (sys30, states30, np.linspace(0.2, 1.8, 8).tolist()),
    ):
        pop = _evaluated_population(sys_, states, omegas)
        work = gauss_seidel_work(sys_, len(states))
        out_j = mutate_and_evaluate(pop, sys_, None)
        out_g = mutate_and_evaluate(pop, sys_, work)
        for i, omega in enumerate(omegas):
            assert np.array_equal(
                out_j.states[i], jacobi_sr_step(sys_, pop.states[i], omega)
            )
            assert np.array_equal(
                out_g.states[i], gauss_seidel_sr_step(sys_, pop.states[i], omega)
            )
            assert out_j.fitness[i] == residual_norm(sys_, out_j.states[i])
            x, x_new = pop.states[i], out_g.states[i]
            ux = np.triu(sys_.a, 1) @ x
            assert abs(out_g.fitness[i] - residual_norm(sys_, x_new)) <= (
                _derived_fitness_bound(sys_, x, x_new, omega, ux)
            )
            # The slot-wide derived fitness is bit for bit the per-slot formula.
            derived = ((1.0 - omega) / omega) * sys_.diag * (x - x_new) + (
                upper_product(sys_, work, x_new) - upper_product(sys_, work, x)
            )
            assert out_g.fitness[i] == vector_norm(derived)


@pytest.mark.parametrize("pid", FAMILY_IDS)
def test_derived_gauss_seidel_fitness_matches_direct_residual(pid):
    # One slot per omega; the first round sweeps without carried
    # products, the second with carried ones, the third with recombined.
    sys_ = generate_problem(family_spec(pid, 30, seed=2))
    rng = np.random.default_rng(17)
    omegas = np.array([0.3, 0.9, 1.0, 1.5, 1.9])
    pop = Population(rng.uniform(-30.0, 30.0, size=(5, 30)), None, omegas)
    work = gauss_seidel_work(sys_, len(omegas))
    for round_ in range(3):
        out = mutate_and_evaluate(pop, sys_, work)
        carried = pop.products
        if carried is None:
            carried = pop.states @ np.triu(sys_.a, 1).T
        for x, x_new, omega, ux, fit in zip(
            pop.states, out.states, omegas, carried, out.fitness
        ):
            bound = _derived_fitness_bound(sys_, x, x_new, omega, ux)
            assert abs(fit - residual_norm(sys_, x_new)) <= bound
        pop = out
        if round_ == 1:  # five slots: a row-stochastic matrix of their own
            r = rng.random((5, 5))
            pop = recombine(pop, r / r.sum(axis=1, keepdims=True))


def test_mutation_equal_states_different_omegas_diverge():
    pop = _evaluated_population(SYS2, [[0.0, 0.0], [0.0, 0.0]], [0.5, 1.5])
    out = mutate_and_evaluate(pop, SYS2, None)
    assert np.allclose(out.states[0], [0.75, 0.75], atol=1e-15)
    assert np.allclose(out.states[1], [2.25, 2.25], atol=1e-15)


def test_mutation_fixed_point_at_solution():
    x_star = np.array([1.0, 1.0])
    pop = _evaluated_population(SYS2, [x_star, x_star], [0.5, 1.5])
    out = mutate_and_evaluate(pop, SYS2, gauss_seidel_work(SYS2, 2))
    assert np.allclose(out.states, [x_star, x_star], atol=1e-12)
    assert np.all(out.fitness <= 1e-12)


@pytest.mark.parametrize("variant", [Variant.MJBTVA, Variant.MGSBTVA])
def test_mutation_needs_the_runs_work_argument(variant):
    # A run makes its one copy of A; a stage called without it makes none.
    # The sweep follows ``work`` alone, so no variant can be passed beside it.
    pop = _evaluated_population(SYS2, [[0.0, 0.0], [1.0, 2.0]], [0.5, 1.5])
    with pytest.raises(TypeError, match="work"):
        mutate_and_evaluate(pop, SYS2)
    with pytest.raises(TypeError, match="positional"):
        mutate_and_evaluate(pop, SYS2, variant, _work(SYS2, variant))


@pytest.mark.parametrize("variant", ADAPTIVE)
def test_stages_leave_their_input_population_unchanged(variant):
    # The stages share their input's omegas array with their output, so
    # none of them may write into the arrays it reads.
    rng = np.random.default_rng(9)
    sys_ = _dominant_system(6, seed=2)
    work = _work(sys_, variant)
    pop = _evaluated_population(sys_, rng.uniform(-30.0, 30.0, (2, 6)), [0.3, 1.7])
    pop = mutate_and_evaluate(pop, sys_, work)  # carries products from here
    r = make_stochastic_matrix(rng)
    stages = [
        lambda p: recombine(p, r),
        lambda p: mutate_and_evaluate(p, sys_, work),
        select_and_reproduce,
    ]
    for stage in stages:
        before = [a.tobytes() for a in pop]
        out = stage(pop)
        assert [a.tobytes() for a in pop] == before
        assert out.omegas is pop.omegas
        pop = out if out.fitness is not None else mutate_and_evaluate(out, sys_, work)


@pytest.mark.parametrize("variant", [Variant.MJBTVA, Variant.MGSBTVA])
def test_stages_refuse_arrays_that_disagree_on_the_slot_count(variant):
    # Zipping or indexing by the states would drop or misread slots.
    work = _work(SYS2, variant)
    refused = pytest.raises(ValueError, match="^population arrays disagree on the slot count$")
    for omegas in ([0.5], [0.5, 1.0, 1.5]):
        with refused:
            mutate_and_evaluate(Population(np.zeros((2, 2)), None, np.array(omegas)), SYS2, work)
    pop = _evaluated_population(SYS2, [[0.0, 0.0], [1.0, 2.0]], [0.5, 1.5])
    pop = mutate_and_evaluate(pop, SYS2, work)  # carries products from here
    for bad in (
        pop._replace(products=np.vstack([pop.products, pop.products[:1]])),
        pop._replace(products=pop.products[:1]),
    ):
        with refused:
            mutate_and_evaluate(bad, SYS2, work)
        with refused:
            select_and_reproduce(bad)
    for fitness in (pop.fitness[:1], np.append(pop.fitness, 0.0)):
        with refused:
            select_and_reproduce(pop._replace(fitness=fitness))


# --------------------------------------------------------------- selection

def test_selection_duplicates_best_of_two():
    pop = _evaluated_population(SYS2, [[9.0, 9.0], [1.0, 1.0]], [0.5, 1.5])
    assert pop.fitness[0] > pop.fitness[1]
    out = select_and_reproduce(pop)
    assert np.array_equal(out.states[0], pop.states[1])
    assert np.array_equal(out.states[1], pop.states[1])
    assert np.array_equal(out.omegas, pop.omegas)


def test_selection_tie_break_prefers_lower_slot():
    pop = _evaluated_population(SYS2, [[2.0, 0.0], [0.0, 2.0]], [0.5, 1.5])
    assert pop.fitness[0] == pop.fitness[1]
    out = select_and_reproduce(pop)
    assert np.array_equal(out.states[0], pop.states[0])
    assert np.array_equal(out.states[1], pop.states[0])


def test_selection_never_discards_best():
    sys_ = _dominant_system(6, seed=13)
    rng = np.random.default_rng(5)
    for _ in range(20):
        states = rng.uniform(-30, 30, size=(2, 6))
        pop = _evaluated_population(sys_, states, [0.5, 1.5])
        out = select_and_reproduce(pop)
        assert out.fitness.tolist() == [pop.fitness.min()] * 2


@pytest.mark.parametrize(
    "fitness, best",
    [([math.nan, 1.0], 1), ([1.0, math.nan], 0), ([2.0, 2.0], 0), ([math.nan, math.nan], 0),
     ([math.inf, math.nan], 0), ([3.0, math.nan, 1.0, 1.0], 2), ([math.nan, math.inf], 1)],
)
def test_best_index_is_the_slot_selection_keeps(fitness, best):
    # One ranking: lower fitness first, ties to the lower slot, NaN last.
    # It ranks any slot count; selection takes only a pair.
    size = len(fitness)
    pop = Population(np.arange(size * 2.0).reshape(size, 2), np.array(fitness),
                     np.linspace(0.5, 1.5, size))
    assert pop.best_index() == best
    if size == 2:
        out = select_and_reproduce(pop)
        assert np.array_equal(out.states, pop.states[[best, best]])
        assert out.fitness.tobytes() == pop.fitness[[best, best]].tobytes()


@pytest.mark.parametrize("variant", ADAPTIVE)
def test_generation_0_is_judged_on_the_best_ranked_slot(monkeypatch, variant):
    # Slot 1 has already converged; slot 0's NaN must not hide it.
    sys_ = _dominant_system(4, seed=1)
    x1 = np.linalg.solve(sys_.a, sys_.b)
    start = Population(np.array([np.full(4, np.nan), x1]), np.array([math.nan, 1e-9]),
                       init_relaxation_factors())
    monkeypatch.setattr(evolution, "init_population", lambda *args: start)
    res = run_solver(sys_, SolverConfig(variant=variant, seed=0))
    assert res.converged and not res.diverged
    assert res.generations == 0 and res.trace == [(0, 1e-9)]
    assert res.best_state.tobytes() == x1.tobytes()


def test_selection_requires_evaluation():
    pop = Population(
        states=np.zeros((2, 2)), fitness=None, omegas=np.array([0.5, 1.5])
    )
    with pytest.raises(ValueError):
        select_and_reproduce(pop)
    with pytest.raises(ValueError, match="^population has not been evaluated$"):
        pop.best_index()


def test_selection_refuses_any_slot_count_but_a_pair():
    # A run selects only in its adaptive pair; a fixed run's one slot skips selection.
    for size in (1, 3, 4):
        states = np.arange(size * 2.0).reshape(size, 2)
        pop = _evaluated_population(SYS2, states, np.linspace(0.5, 1.5, size))
        with pytest.raises(ValueError, match=f"^selection takes a pair of slots, got {size}$"):
            select_and_reproduce(pop)


# ------------------------------------------------------- carried products

@pytest.mark.parametrize(
    "variant, share",
    [
        pytest.param(Variant.JBTVA, False, id="JBTVA"),
        pytest.param(Variant.GSBTVA, False, id="GSBTVA"),
        pytest.param(Variant.JBTVA, True, id="JBTVA-shared"),
        pytest.param(Variant.MJBTVA, True, id="MJBTVA-shared"),
    ],
)
def test_carried_products_match_recomputation(variant, share):
    # Rows of ``products`` are A x (Jacobi) or U x (Gauss-Seidel); after
    # every stage they must equal a fresh product of the states up to the
    # rounding of n-term sums. In the first generation a recombining pair
    # mixes two distinct starts and selection drops one of them. From then
    # on both slots hold copies of one survivor, so with ``share`` two
    # Jacobi slots step from its shared product A delta, as in a run;
    # without it they take A x' directly.
    sys_ = generate_problem(family_spec("P7", 30, 0))
    m = sys_.a if variant.method == "jacobi" else np.triu(sys_.a, 1)
    work = _work(sys_, variant)
    rng = np.random.default_rng(4)
    states = rng.uniform(-30.0, 30.0, size=(2, sys_.n))
    pop = _evaluated_population(sys_, states, init_relaxation_factors())
    assert pop.products is None

    def check(pop, scale):
        err = np.max(np.abs(pop.products - pop.states @ m.T))
        assert err <= 8 * sys_.n * EPS * scale

    for t in range(4):
        shared = share and pop.products is not None
        scale = np.max(np.abs(pop.states) @ np.abs(m).T)
        if variant.uses_recombination:
            pop = recombine(pop, make_stochastic_matrix(rng))
            if t == 0:
                assert not np.array_equal(pop.states[0], pop.states[1])
        if pop.products is not None:
            check(pop, scale)
        carried = pop.products
        pop = mutate_and_evaluate(pop, sys_, work, shared=shared)
        scale = np.max(np.abs(pop.states) @ np.abs(m).T)
        check(pop, scale)
        if shared:
            a_delta = sys_.a @ ((sys_.b - carried[0]) / sys_.diag)
            want = [p + w * a_delta for p, w in zip(carried, pop.omegas)]
            assert np.array_equal(pop.products, want)
        elif variant.method == "jacobi":
            assert np.array_equal(pop.products, [sys_.a @ s for s in pop.states])
        if variant.method == "jacobi":
            assert pop.fitness.tolist() == [np.linalg.norm(p - sys_.b) for p in pop.products]
        kept = pop.states[pop.best_index()]
        pop = select_and_reproduce(pop)
        assert np.array_equal(pop.states, [kept, kept])
        check(pop, scale)
    if work is not None:  # every step zeroes what it wrote
        assert not any(np.diagonal(block).any() for *_, block in work)


def test_shared_product_needs_carried_jacobi_products():
    pop = _evaluated_population(SYS2, [[0.0, 0.0], [0.0, 0.0]], [0.5, 1.5])
    with pytest.raises(ValueError, match="shared"):
        mutate_and_evaluate(pop, SYS2, None, shared=True)
    work = gauss_seidel_work(SYS2, 2)
    pop = mutate_and_evaluate(pop, SYS2, work)
    with pytest.raises(ValueError, match="shared"):
        mutate_and_evaluate(pop, SYS2, work, shared=True)


def test_refresh_keeps_shared_runs_on_the_direct_path(monkeypatch):
    # P8's residual falls by some 13 decades in a run, while the rounding
    # that the shared products A x + w A delta carry on piles up; without
    # the refresh most of these runs end a dozen generations or more later
    # than with products recomputed every generation.
    systems = [generate_problem(family_spec("P8", 200, seed)) for seed in range(8)]

    def generations():
        return [
            run_solver(sys_, SolverConfig(variant=Variant.MJBTVA, seed=seed)).generations
            for seed, sys_ in enumerate(systems)
        ]

    got = generations()
    real = evolution.mutate_and_evaluate
    monkeypatch.setattr(
        evolution, "mutate_and_evaluate", lambda *args, shared: real(*args)
    )
    assert got == generations()


# --------------------------------------------------------------- full runs

def test_preconverged_population_stops_at_zero_generations():
    sys_ = _dominant_system(8, seed=3)
    cfg = SolverConfig(variant=Variant.JBTVA, seed=1, threshold=1e9)
    res = run_solver(sys_, cfg)
    assert res.converged and res.generations == 0
    assert res.trace == [(0, res.final_residual)]


def test_generation_cap_zero_reports_unconverged():
    sys_ = _dominant_system(8, seed=3)
    cfg = SolverConfig(variant=Variant.JBTVA, seed=1, max_generations=0)
    res = run_solver(sys_, cfg)
    assert not res.converged and res.generations == 0


@pytest.mark.parametrize("variant", ADAPTIVE)
def test_adaptive_variants_solve_dominant_system(variant):
    sys_ = _dominant_system(10, seed=42)
    x_star = np.linalg.solve(sys_.a, sys_.b)
    res = run_solver(sys_, SolverConfig(variant=variant, seed=5))
    assert res.converged
    assert res.final_residual < 1e-7
    assert np.linalg.norm(res.best_state - x_star) <= 1e-5
    assert res.final_residual == residual_norm(sys_, res.best_state)


@pytest.mark.parametrize(
    "variant", [Variant.FIXED_JACOBI_SR, Variant.FIXED_GS_SR]
)
def test_fixed_variants_solve_dominant_system(variant):
    sys_ = _dominant_system(10, seed=42)
    x_star = np.linalg.solve(sys_.a, sys_.b)
    res = run_solver(sys_, SolverConfig(variant=variant, seed=0, fixed_omega=1.0))
    assert res.converged and res.final_residual < 1e-7
    assert res.final_residual == residual_norm(sys_, res.best_state)
    assert np.linalg.norm(res.best_state - x_star) <= 1e-5
    assert res.recombine_calls == 0
    assert res.final_omegas == [1.0]


def test_fixed_variant_starts_from_zero_vector(monkeypatch):
    # The zero start is exact: A 0 and U 0 are 0 and A 0 - b is -b, so the
    # start reads no matrix. Its ||b|| may overflow, without a warning.
    huge_b = LinearSystem(np.eye(3), np.full(3, 1e200))
    fixed = [Variant.FIXED_JACOBI_SR, Variant.FIXED_GS_SR]
    for variant, sys_ in itertools.product(fixed, [_dominant_system(6, seed=8), huge_b]):
        zeros = np.zeros(sys_.n)
        with np.errstate(over="ignore"):
            direct = residual_norm(sys_, zeros)
        calls = []
        monkeypatch.setattr(evolution, "residual_norm", lambda *a: calls.append(a))
        pop = init_population(sys_, SolverConfig(variant=variant), np.random.default_rng(0))
        monkeypatch.undo()
        assert calls == []
        assert pop.products.tolist() == [zeros.tolist()]
        assert pop.fitness.tolist() == [direct]
        res = run_solver(sys_, SolverConfig(variant=variant, max_generations=0))
        assert res.trace == [(0, direct)] and np.array_equal(res.best_state, zeros)


@pytest.mark.parametrize("variant", Variant)
def test_mutation_of_overflowing_states_is_warning_free(variant):
    states = np.array([[1e300, -1e300], [1e308, 1e308]])
    pop = Population(states, None, np.array([0.5, 1.5]))
    out = mutate_and_evaluate(pop, SYS2, _work(SYS2, variant))
    assert not np.isfinite(out.fitness).all()


# Off-diagonal dominant: every relaxed sweep at omega = 0.9 diverges on it.
_DIVERGENT = LinearSystem(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1.0, 1.0]))


def _textbook_run(sys_, cfg):
    """The algorithm as the paper states it, for any variant, over public functions.

    Each slot sweeps from its own state with no carried product and is
    ranked by its own direct residual: none of ``run_solver``'s carried
    products, derived fitnesses, shared Jacobi product or refreshes. The
    draws come in ``run_solver``'s order and the same rule ends the run.
    Yields per generation the fitnesses before selection, the best one, a
    rounding bound from the states the sweeps read and wrote, and the omegas.
    """
    variant = cfg.variant
    gauss_seidel = variant.method == "gauss_seidel"
    step = gauss_seidel_sr_step if gauss_seidel else jacobi_sr_step
    rng = np.random.default_rng(cfg.seed)
    if variant.is_fixed:
        x, omegas = np.zeros((1, sys_.n)), [cfg.fixed_omega]
    else:
        x, omegas = rng.uniform(evolution.INIT_LO, evolution.INIT_HI, (2, sys_.n)), [0.5, 1.5]
    abs_a, abs_b, d = np.abs(sys_.a), np.abs(sys_.b), np.abs(sys_.diag)
    for t in range(cfg.max_generations + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            parents = x
            if t:
                if variant.uses_recombination:
                    parents = make_stochastic_matrix(rng) @ x
                x = np.array([step(sys_, p, w) for p, w in zip(parents, omegas)])
            fitness = [residual_norm(sys_, s) for s in x]
            # Either route sums the terms of A x' - b from A x, A x' and, for
            # Gauss-Seidel, ((1-w)/w) D (x - x'), where |1 - w| < 1.
            s = np.abs(parents) + np.abs(x)
            terms = s @ abs_a.T + abs_b
            if gauss_seidel:
                terms += 2 * d * s / np.array(omegas)[:, None]
            bound = sys_.n * EPS * np.linalg.norm(terms, axis=1).max()
            i = int(np.argsort(fitness, kind="stable")[0])
            if t and not variant.is_fixed:
                omegas = list(adapt_pair(*omegas, *fitness, t - 1, rng))
                x = x[[i, i]]
        yield fitness, fitness[i], bound, omegas
        if _verdict(fitness[i], cfg):
            return


def _verdict(residual, cfg):
    """How a trace entry ends a run: "converged", "diverged" or None."""
    if residual < cfg.threshold:
        return "converged"
    return None if residual <= DIVERGENCE_BOUND else "diverged"


def _winner(err_x, err_y):
    """The slot that ``adapt_pair`` and selection favour, or None for a tie."""
    if err_x == err_y or math.isnan(err_x) and math.isnan(err_y):
        return None
    return int(err_x > err_y or math.isnan(err_x))


@functools.cache
def _family_system(pid, n, seed):
    return generate_problem(family_spec(pid, n, seed))


def _textbook_grid():
    small = [("converged", _dominant_system(10, seed=42), 10000), ("diverged", _DIVERGENT, 10000),
             ("capped", _dominant_system(10, seed=42), 3)]
    for case, sys_, cap in small:
        for v in Variant:
            cfg = SolverConfig(v, seed=3, max_generations=cap, fixed_omega=0.9)
            yield pytest.param(lambda sys_=sys_: sys_, cfg, id=f"{case}-{v.value}")
    # Two Gauss-Seidel slots sweep in blocks at n = 600; P2 at n = 200, seed
    # 1 parts at near-ties; P8 at n = 200 falls far enough to refresh.
    runs = [(pid, 30, seed, v) for pid in FAMILY_IDS for seed in range(3) for v in Variant]
    runs += [(pid, 600, seed, v) for pid, seed in (("P6", 0), ("P6", 1), ("P6", 2), ("P7", 0))
             for v in (Variant.GSBTVA, Variant.MGSBTVA, Variant.FIXED_GS_SR, Variant.MJBTVA)]
    runs += [("P2", 200, 1, v) for v in ADAPTIVE + [Variant.FIXED_GS_SR]]
    runs += [("P8", 200, seed, v) for seed in range(2) for v in Variant]
    for pid, n, seed, v in runs:
        yield pytest.param(functools.partial(_family_system, pid, n, seed),
                           SolverConfig(v, seed=seed), id=f"{pid}-n{n}-seed{seed}-{v.value}")


# A ranking may part where the two direct fitnesses are NEAR_TIE bounds apart,
# an end decision where the direct residual is one bound from the threshold.
# Entries may differ by DRIFT times the bounds summed so far: a shared Jacobi
# product carries its rounding on, and a refresh leaves it in the state.
NEAR_TIE = 2
DRIFT = 4


@pytest.mark.parametrize("system, cfg", _textbook_grid())
def test_run_solver_matches_textbook_loop(monkeypatch, system, cfg):
    # Where the loops make the same rankings and end decisions, they agree up
    # to rounding; the first decision where they part must be a near-tie, and
    # nothing is compared after it.
    sys_ = system()
    pairs, equal_parents = [], []

    def adapt(*args):
        pairs.append(args[2:4])
        return adapt_pair(*args)

    def mix(pop, r):
        equal_parents.append(pop.states[0].tobytes() == pop.states[1].tobytes())
        return recombine(pop, r)

    monkeypatch.setattr(evolution, "adapt_pair", adapt)
    monkeypatch.setattr(evolution, "recombine", mix)
    out = run_solver(sys_, cfg)
    assert out.trace[-1] == (out.generations, residual_norm(sys_, out.best_state))
    recombining = cfg.variant.uses_recombination
    assert out.recombine_calls == len(equal_parents) == (out.generations if recombining else 0)
    # Selection copies the survivor into both slots, so from the second
    # generation on recombination mixes two equal states.
    assert equal_parents[1:] == [True] * (out.recombine_calls - 1)
    trace, budget = [], 0.0
    for (t, got), (fitness, want, bound, omegas) in zip(out.trace, _textbook_run(sys_, cfg)):
        budget += bound
        ranked = t and not cfg.variant.is_fixed and _winner(*pairs[t - 1]) != _winner(*fitness)
        ended = _verdict(got, cfg) != _verdict(want, cfg)
        if ranked or ended:
            edge = min(abs(want - cfg.threshold), abs(want - DIVERGENCE_BOUND))
            assert (ranked and abs(fitness[0] - fitness[1]) <= NEAR_TIE * bound
                    or ended and edge <= bound), (
                f"the runs part at generation {t}, not at a near-tie: run_solver "
                f"{pairs[t - 1] if ranked else got}, textbook {fitness}, bound {bound:.3g}")
            return
        assert abs(got - want) <= DRIFT * budget, f"generation {t}: {got!r} against {want!r}"
        trace.append((t, want))
    assert (out.generations, out.final_omegas) == (trace[-1][0], omegas)
    if cfg.variant is Variant.FIXED_JACOBI_SR:
        assert repr(out.trace) == repr(trace)


@pytest.mark.parametrize("variant", ADAPTIVE + [Variant.FIXED_GS_SR])
def test_derived_convergence_is_confirmed_directly(monkeypatch, variant):
    # A derived fitness below the threshold only stops the run if the
    # directly computed residual of the best state is below it too. The
    # first derived entry is generation 1's for Gauss-Seidel and
    # generation 2's, the first shared one, for adaptive Jacobi; a Jacobi
    # run carries the confirming product on.
    sys_ = _dominant_system(10, seed=42)
    real = evolution.mutate_and_evaluate
    faked, calls = [], []

    def under_report(pop, *args, **kwargs):
        calls.append(pop)
        out = real(pop, *args, **kwargs)
        if not faked and (variant.method == "gauss_seidel" or kwargs["shared"]):
            faked.append((len(calls), out.states[0].copy()))
            fitness = out.fitness.copy()
            fitness[0] = 0.0
            return Population(out.states, fitness, out.omegas, out.products)
        return out

    monkeypatch.setattr(evolution, "mutate_and_evaluate", under_report)
    res = run_solver(sys_, SolverConfig(variant=variant, seed=5))
    g, x = faked[0]
    assert g == (1 if variant.method == "gauss_seidel" else 2)
    direct = residual_norm(sys_, x)
    assert direct >= 1e-7
    assert res.trace[g][1] == direct
    assert res.converged and res.generations > g
    assert res.final_residual == residual_norm(sys_, res.best_state) < 1e-7
    if variant is Variant.MJBTVA:
        assert np.array_equal(calls[g].products, [sys_.a @ x] * 2)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize(
    "case, sys_, max_generations",
    [
        ("converged", _dominant_system(10, seed=42), 10000),
        ("diverged", _DIVERGENT, 10000),
        ("capped", _dominant_system(10, seed=42), 2),
    ],
)
def test_final_residual_is_direct_residual_of_best_state(
    variant, case, sys_, max_generations
):
    cfg = SolverConfig(variant=variant, seed=3, max_generations=max_generations)
    res = run_solver(sys_, cfg)
    assert (res.converged, res.diverged) == (case == "converged", case == "diverged")
    assert res.final_residual == residual_norm(sys_, res.best_state)
    assert res.trace[-1] == (res.generations, res.final_residual)


# (generations, converged, diverged) per variant, in Variant order, at
# seed 1 for both the instance and the run. Only integers and booleans
# are pinned, so the outcomes hold across BLAS builds. The committed
# outcome grid (tests/outcome_grid.txt) pins every family at n = 30 and
# 200 at the default cap; this case pins a run that the cap ends.
GOLDEN_OUTCOMES = {
    ("P3", 30, 20): [(20, False, False)] * 6,
}


@pytest.mark.parametrize("pid, n, cap", list(GOLDEN_OUTCOMES))
def test_golden_outcomes(pid, n, cap):
    sys_ = generate_problem(family_spec(pid, n, seed=1))
    got = []
    for variant in Variant:
        res = run_solver(sys_, SolverConfig(variant=variant, seed=1, max_generations=cap))
        got.append((res.generations, res.converged, res.diverged))
    assert got == GOLDEN_OUTCOMES[pid, n, cap]


def test_run_determinism_bit_identical():
    sys_ = _dominant_system(15, seed=6)
    cfg = SolverConfig(variant=Variant.GSBTVA, seed=123)
    r1 = run_solver(sys_, cfg)
    r2 = run_solver(sys_, cfg)
    assert r1.generations == r2.generations
    assert repr(r1.trace).encode() == repr(r2.trace).encode()
    assert r1.final_omegas == r2.final_omegas
    assert np.array_equal(r1.best_state, r2.best_state)


# Prints, per run, the bits that must not depend on the BLAS thread count.
_JACOBI_BITS_SCRIPT = """
from relaxsolve import SolverConfig, Variant, family_spec, generate_problem, run_solver
for pid, n in (("P1", 30), ("P6", 64)):
    sys_ = generate_problem(family_spec(pid, n, seed=1))
    for variant in (Variant.JBTVA, Variant.MJBTVA, Variant.FIXED_JACOBI_SR):
        res = run_solver(sys_, SolverConfig(variant=variant, seed=1))
        print(pid, variant.value, repr(res.trace), res.best_state.tobytes().hex())
"""


def test_jacobi_bits_do_not_depend_on_blas_threads():
    # Jacobi runs use only A @ x, whose bits OpenBLAS keeps at any thread
    # split; Gauss-Seidel's dtrmv does not, so it is left out here.
    src = os.path.dirname(os.path.dirname(relaxsolve.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _JACOBI_BITS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout.splitlines())
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]


def test_modified_variants_never_recombine():
    sys_ = _dominant_system(10, seed=9)
    for variant in (Variant.MJBTVA, Variant.MGSBTVA):
        res = run_solver(sys_, SolverConfig(variant=variant, seed=2))
        assert res.recombine_calls == 0
    full = run_solver(sys_, SolverConfig(variant=Variant.JBTVA, seed=2))
    assert full.recombine_calls == full.generations > 0


def test_divergence_is_flagged_not_raised():
    # off-diagonal dominates: spectral radius > 1 for every omega in (0,2)
    bad = LinearSystem(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1.0, 1.0]))
    for variant in (Variant.FIXED_JACOBI_SR, Variant.JBTVA):
        res = run_solver(bad, SolverConfig(variant=variant, seed=1))
        assert res.diverged and not res.converged
        assert not res.final_residual <= 1e12


def test_overflowing_start_diverges_without_a_warning():
    # Off-diagonal entries near 1e300 overflow the squared norm of the
    # very first residual.
    spec = parse_problem_spec(
        "id=custom\nn=4\nseed=0\ndiag=const:1.0\n"
        "offdiag=uniform:-1e300,1e300\nrhs=const:1.0\n"
    )
    sys_ = generate_problem(spec)
    for variant in Variant:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_solver(sys_, SolverConfig(variant=variant, seed=0))
        assert res.diverged and not res.converged, variant
        if variant.is_fixed:
            # The fixed variants start at x = 0, whose residual is ||b|| = 2.
            assert res.trace[0] == (0, 2.0) and res.generations == 1, variant
        else:
            # The starting residual has overflowed: the run stops before
            # generation 1.
            assert res.generations == 0 and res.trace == [(0, math.inf)], variant


@st.composite
def _any_systems(draw):
    """Small systems, dominant or not, some scaled until residuals overflow."""
    n = draw(st.integers(1, 8))
    a = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n * n, max_size=n * n)))
    a = a.reshape(n, n)
    diag = draw(st.lists(st.floats(0.1, 100.0), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    np.fill_diagonal(a, np.multiply(diag, signs))
    b = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    scale = 10.0 ** draw(st.sampled_from([0, 0, 0, 10, 150, 299, 300]))
    return LinearSystem(a * scale, b)


@settings(max_examples=40, deadline=None, database=None)
@given(_any_systems(), st.integers(0, 60), st.integers(0, 2**64 - 1))
def test_run_solver_properties_on_arbitrary_systems(sys_, max_generations, seed):
    for variant in Variant:
        cfg = SolverConfig(variant=variant, seed=seed, max_generations=max_generations)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_solver(sys_, cfg)
        assert all(OMEGA_LO < w < OMEGA_HI for w in res.final_omegas)
        assert [g for g, _ in res.trace] == list(range(res.generations + 1))
        assert not (res.converged and res.diverged)
        if res.converged:
            assert res.final_residual < cfg.threshold
        elif not res.diverged:
            assert res.generations == max_generations
        if res.diverged:
            assert not res.final_residual <= DIVERGENCE_BOUND
        if not res.trace[0][1] <= DIVERGENCE_BOUND:
            assert res.generations == 0
        with np.errstate(over="ignore", invalid="ignore"):
            direct = residual_norm(sys_, res.best_state)
        assert res.final_residual == direct or (
            math.isnan(res.final_residual) and math.isnan(direct)
        )


def test_trace_is_consecutive_from_zero():
    sys_ = _dominant_system(10, seed=14)
    res = run_solver(sys_, SolverConfig(variant=Variant.MJBTVA, seed=4))
    gens = [g for g, _ in res.trace]
    assert gens == list(range(len(gens)))
    assert res.trace[-1][1] == res.final_residual
    assert len(res.trace) == res.generations + 1


def test_omegas_stay_contained_through_run():
    sys_ = _dominant_system(10, seed=20)
    res = run_solver(sys_, SolverConfig(variant=Variant.JBTVA, seed=11))
    for w in res.final_omegas:
        assert OMEGA_LO + OMEGA_MARGIN <= w <= OMEGA_HI - OMEGA_MARGIN


def test_run_solver_rejects_non_config():
    sys_ = _dominant_system(4, seed=1)
    with pytest.raises(ValueError, match="cfg must be a SolverConfig"):
        run_solver(sys_, {"variant": "JBTVA"})
    with pytest.raises(ValueError, match="sys must be a LinearSystem"):
        run_solver(np.eye(3), SolverConfig(Variant.MJBTVA))
