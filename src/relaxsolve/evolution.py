"""Hybrid evolutionary loop that self-adapts relaxation factors.

A population of candidate solution vectors is evolved by, per generation:
optional recombination through a random row-stochastic matrix, mutation
(one relaxed Jacobi or Gauss-Seidel sweep per individual, each with its
own slot-resident relaxation factor), fitness evaluation (residual norm),
pairwise stochastic adaptation of the relaxation factors with a step size
that decays over generations, and truncation selection with duplication.

The four adaptive variants evolve two slots and differ only in the
mutation sweep (Jacobi vs Gauss-Seidel) and in whether the recombination
stage runs at all. The ``FIXED_*`` baselines run through the same loop
as a one-slot population that starts at the zero vector: with one slot
there is no pair to adapt, and selection is skipped, so the relaxation
factor stays constant.

Each slot carries the matrix product its next sweep needs: ``A x`` for a
Jacobi slot, ``U x`` for a Gauss-Seidel slot (U the strict upper
triangle of A). Recombination maps the products with the same matrix as
the states, and selection copies them with the states. Per generation a
slot then reads A once. A Jacobi slot reads it for its residual
``A x' - b``, whose product ``A x'`` it carries on. A Gauss-Seidel slot
reads the lower triangle in its forward substitution and the upper one
for ``U x'``, and derives its residual from the sweep's own products.
Its trace entries are such derived values, except a confirmed
convergence and the last entry, which are direct residuals. A
Gauss-Seidel run holds one n-by-n work copy of A to solve in.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .iteration import (
    gauss_seidel_sr_step,
    gauss_seidel_work,
    jacobi_sr_step,
    upper_product,
)
from .linalg import LinearSystem, residual_norm, vector_norm

__all__ = [
    "OMEGA_MARGIN",
    "Population",
    "RunResult",
    "SolverConfig",
    "Variant",
    "adapt_pair",
    "adapt_pair_from_steps",
    "basic_time_variant",
    "init_population",
    "init_relaxation_factors",
    "make_stochastic_matrix",
    "mutate_and_evaluate",
    "recombine",
    "run_solver",
    "select_and_reproduce",
]

# Constants of the time-variant adaptation rule. E_X scales the signed
# step that pulls a loser's relaxation factor toward the winner's; E_Y
# scales the nonnegative step that pushes the winner's factor away from
# the loser, toward the interval boundary on its own side. LAM sets how
# fast both steps decay with the generation counter (it must exceed 10).
E_X = 0.125
E_Y = 0.03125
LAM = 50.0

# All relaxation factors live in the open interval (OMEGA_LO, OMEGA_HI);
# adapted ones are clamped OMEGA_MARGIN inside it.
OMEGA_LO = 0.0
OMEGA_HI = 2.0
OMEGA_MARGIN = 1e-6

# Standard deviation of the Gaussian noise behind the adaptation steps.
NOISE_SD = 0.25

# Adaptive variants draw their initial states uniformly from this box.
INIT_LO = -30.0
INIT_HI = 30.0

# A run whose best residual exceeds this bound (or turns non-finite)
# stops as diverged.
DIVERGENCE_BOUND = 1e12


class Variant(str, Enum):
    """Solver variants: adaptive hybrids and fixed-factor baselines."""

    JBTVA = "JBTVA"
    GSBTVA = "GSBTVA"
    MJBTVA = "MJBTVA"
    MGSBTVA = "MGSBTVA"
    FIXED_JACOBI_SR = "FIXED_JACOBI_SR"
    FIXED_GS_SR = "FIXED_GS_SR"

    @property
    def uses_recombination(self) -> bool:
        return self in (Variant.JBTVA, Variant.GSBTVA)

    @property
    def is_fixed(self) -> bool:
        return self in (Variant.FIXED_JACOBI_SR, Variant.FIXED_GS_SR)

    @property
    def method(self) -> str:
        """The underlying sweep: ``"jacobi"`` or ``"gauss_seidel"``."""
        if self in (Variant.JBTVA, Variant.MJBTVA, Variant.FIXED_JACOBI_SR):
            return "jacobi"
        return "gauss_seidel"


@dataclass(frozen=True)
class SolverConfig:
    """Full configuration of one solver run."""

    variant: Variant
    threshold: float = 1e-7
    max_generations: int = 10000
    seed: int = 0
    fixed_omega: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        # An infinite threshold would count every run as converged.
        if not 0.0 < self.threshold < math.inf:
            raise ValueError(
                f"threshold must be positive and finite, got {self.threshold!r}"
            )
        if self.max_generations < 0:
            raise ValueError("max_generations must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        # Neither relaxed sweep converges for a factor outside (0, 2): SOR
        # by Kahan's bound, JOR because the eigenvalues of its iteration
        # matrix I - w D^-1 A average 1 - w.
        if not 0.0 < self.fixed_omega < 2.0:
            raise ValueError(
                f"fixed_omega must lie in the open interval (0, 2), got {self.fixed_omega!r}"
            )


@dataclass(frozen=True)
class Population:
    """N population slots: states, their fitnesses, slot-resident omegas.

    ``fitness`` is None while the states have been changed but not yet
    re-evaluated. Relaxation factors belong to slots, not to individuals:
    selection copies states around but never moves omegas. Row i of
    ``products`` is the product slot i's next sweep reuses, ``A x_i``
    (Jacobi) or ``U x_i`` (Gauss-Seidel); it is None until a sweep has
    computed it.
    """

    states: np.ndarray
    fitness: np.ndarray | None
    omegas: np.ndarray
    products: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.states.shape[0]

    def best_index(self) -> int:
        if self.fitness is None:
            raise ValueError("population has not been evaluated")
        return int(np.argmin(self.fitness))


@dataclass(frozen=True)
class RunResult:
    """Outcome of one solver run.

    ``trace`` holds one ``(generation, best_residual)`` pair per
    generation starting at 0. A Gauss-Seidel run's entries are derived
    fitnesses, except a confirmed convergence and the last entry, which
    are direct residuals. ``final_residual`` is the direct residual of
    ``best_state``. ``elapsed_ms`` is wall time around the iteration loop
    only. ``recombine_calls`` counts executed recombination stages, which
    is zero for the modified variants and the fixed baselines.
    """

    generations: int
    elapsed_ms: float
    final_residual: float
    converged: bool
    diverged: bool
    trace: list[tuple[int, float]]
    final_omegas: list[float]
    best_state: np.ndarray
    recombine_calls: int


def init_relaxation_factors(n_pop: int) -> np.ndarray:
    """Evenly spaced midpoint factors covering the open omega interval.

    With spacing ``d = (OMEGA_HI - OMEGA_LO) / n_pop`` the factors are
    ``OMEGA_LO + d/2, OMEGA_LO + 3d/2, ...``; all lie strictly inside the
    interval.
    """
    if n_pop < 1:
        raise ValueError("n_pop must be at least 1")
    d = (OMEGA_HI - OMEGA_LO) / n_pop
    return OMEGA_LO + d * (np.arange(n_pop) + 0.5)


def init_population(
    sys: LinearSystem, cfg: SolverConfig, rng: np.random.Generator
) -> Population:
    """The evaluated generation-0 population of a run.

    Adaptive variants get two states drawn uniformly from
    ``[INIT_LO, INIT_HI)``, with midpoint omegas. Fixed variants get
    one slot at the zero vector with omega ``cfg.fixed_omega`` and draw
    nothing.
    """
    if cfg.variant.is_fixed:
        states = np.zeros((1, sys.n))
        omegas = np.array([cfg.fixed_omega], dtype=np.float64)
    else:
        states = rng.uniform(INIT_LO, INIT_HI, size=(2, sys.n))
        omegas = init_relaxation_factors(2)
    fitness = np.array([residual_norm(sys, s) for s in states])
    return Population(states=states, fitness=fitness, omegas=omegas)


def basic_time_variant(t: int, lam: float) -> float:
    """Decay factor ``lam * ln(1 + 1/(t + lam))`` for adaptation step sizes.

    Strictly decreasing in the generation counter ``t``, tending to zero;
    below 1 already at ``t = 0`` for every ``lam > 10``.
    """
    if not lam > 10.0:
        raise ValueError("lam must be greater than 10")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return lam * math.log1p(1.0 / (t + lam))


def adapt_pair_from_steps(
    omega_x: float,
    omega_y: float,
    err_x: float,
    err_y: float,
    p_pull: float,
    p_push: float,
) -> tuple[float, float]:
    """Deterministic core of the pairwise adaptation rule.

    The higher-error member of the pair (the loser) is pulled toward the
    winner: its factor becomes ``(0.5 + p_pull) * (omega_x + omega_y)``.
    The winner is pushed away from the loser: its factor moves by
    ``p_push`` times the distance to the boundary on its side of the
    loser (the upper boundary when its factor is >= the loser's, else the
    lower). Equal errors leave both factors untouched. Results are
    clamped ``OMEGA_MARGIN`` inside the open interval.

    ``p_pull`` is signed; ``p_push`` is expected nonnegative. Tests
    inject the steps directly; ``adapt_pair`` derives them from Gaussian
    noise and the time-variant decay.
    """
    if err_x == err_y:
        return omega_x, omega_y
    lo = OMEGA_LO + OMEGA_MARGIN
    hi = OMEGA_HI - OMEGA_MARGIN
    if err_x > err_y:
        loser, winner = omega_x, omega_y
    else:
        loser, winner = omega_y, omega_x
    new_loser = (0.5 + p_pull) * (omega_x + omega_y)
    if winner >= loser:
        new_winner = winner + p_push * (OMEGA_HI - winner)
    else:
        new_winner = winner + p_push * (OMEGA_LO - winner)
    new_loser = min(max(new_loser, lo), hi)
    new_winner = min(max(new_winner, lo), hi)
    if err_x > err_y:
        return new_loser, new_winner
    return new_winner, new_loser


def adapt_pair(
    omega_x: float,
    omega_y: float,
    err_x: float,
    err_y: float,
    t: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Stochastic pairwise adaptation of two relaxation factors.

    Draws two Gaussians with mean 0 and standard deviation ``NOISE_SD``
    (the first for the pull step, the second for the push step), scales
    them by ``E_X`` / ``E_Y`` and the time-variant decay at generation
    ``t``, and applies ``adapt_pair_from_steps``. The two come from one
    size-2 draw, which yields the same values as two scalar draws.
    """
    g_pull, g_push = rng.normal(0.0, NOISE_SD, size=2).tolist()
    t_omega = basic_time_variant(t, LAM)
    p_pull = E_X * g_pull * t_omega
    p_push = E_Y * abs(g_push) * t_omega
    return adapt_pair_from_steps(omega_x, omega_y, err_x, err_y, p_pull, p_push)


def make_stochastic_matrix(n_pop: int, rng: np.random.Generator) -> np.ndarray:
    """Random row-stochastic matrix: uniform(0,1) entries, rows normalized."""
    if n_pop < 1:
        raise ValueError("n_pop must be at least 1")
    r = rng.uniform(0.0, 1.0, size=(n_pop, n_pop))
    return r / r.sum(axis=1, keepdims=True)


def recombine(pop: Population, r: np.ndarray) -> Population:
    """Replace every state by a convex combination of the parent states.

    ``r`` must be row-stochastic: nonnegative, each row summing to 1
    within 1e-12. Offspring i is ``sum_j r_ij * state_j``, and its carried
    product is the same combination of the parents' products (the sweep's
    products are linear in the state). Slot omegas are untouched;
    fitnesses are invalidated.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (pop.size, pop.size):
        raise ValueError(
            f"stochastic matrix shape {r.shape} does not match population "
            f"size {pop.size}"
        )
    rows = r.tolist()  # a NaN or infinite entry fails its row's sum test
    if not all(min(row) >= 0.0 and abs(sum(row) - 1.0) <= 1e-12 for row in rows):
        raise ValueError("matrix rows must be nonnegative and sum to 1 within 1e-12")
    products = None if pop.products is None else r.dot(pop.products)
    return Population(r.dot(pop.states), None, pop.omegas, products)


def mutate_and_evaluate(
    pop: Population,
    sys: LinearSystem,
    variant: Variant,
    work: np.ndarray | None = None,
) -> Population:
    """One relaxed sweep per slot with its own omega, then re-evaluate.

    The sweep is Jacobi or Gauss-Seidel according to the variant, and
    reuses the slot's carried product when there is one. A Jacobi slot's
    fitness is the direct ``||A x' - b||`` and it carries ``A x'``. A
    Gauss-Seidel slot carries ``U x'`` and derives its fitness, up to
    rounding, as ``||((1-w)/w) D (x - x') + (U x' - U x)||`` (w in (0, 2)).
    ``work`` is the run's ``gauss_seidel_work`` copy of A; a Gauss-Seidel
    call without one makes its own. Norms are ``linalg.vector_norm``,
    bit for bit ``np.linalg.norm``. Non-finite states are propagated
    as-is; the run loop's divergence check deals with them.
    """
    jacobi = variant.method == "jacobi"
    if not jacobi and work is None:
        work = gauss_seidel_work(sys)
    carried = [None] * pop.size if pop.products is None else pop.products
    states = np.empty(pop.states.shape)
    products = np.empty(pop.states.shape)
    fitness = []
    with np.errstate(over="ignore", invalid="ignore"):
        for x, omega, product, new, new_product in zip(
            pop.states, pop.omegas.tolist(), carried, states, products
        ):
            if jacobi:
                new[:] = jacobi_sr_step(sys, x, omega, ax=product)
                np.dot(sys.a, new, out=new_product)
                fitness.append(vector_norm(new_product - sys.b))
            else:
                ux = upper_product(work, x) if product is None else product
                new[:] = gauss_seidel_sr_step(sys, x, omega, ux=ux, work=work)
                new_product[:] = upper_product(work, new)
                r = ((1.0 - omega) / omega) * sys.diag * (x - new)
                fitness.append(vector_norm(r + (new_product - ux)))
    return Population(states, np.array(fitness), pop.omegas, products)


def select_and_reproduce(pop: Population) -> Population:
    """Keep the best half of the population, each copied into two slots.

    Ranking is by fitness with ties broken by lower slot index; survivor
    k occupies slots 2k and 2k+1. Slot omegas stay where they are, so
    the copies of one survivor run under different relaxation factors in
    the next generation. Carried products move with their states.
    """
    if pop.fitness is None:
        raise ValueError("population must be evaluated before selection")
    if pop.size % 2 != 0:
        raise ValueError("population size must be even")
    keep = pop.fitness.argsort(kind="stable")[: pop.size // 2].repeat(2)
    products = None if pop.products is None else pop.products[keep]
    return Population(pop.states[keep], pop.fitness[keep], pop.omegas, products)


def run_solver(sys: LinearSystem, cfg: SolverConfig) -> RunResult:
    """Run one solver configuration to convergence, cap, or divergence.

    Terminates when the best residual drops below ``cfg.threshold``
    (converged; a derived Gauss-Seidel value must be confirmed by a direct
    residual), the generation counter reaches ``cfg.max_generations``,
    or the best fitness exceeds ``DIVERGENCE_BOUND`` or turns non-finite
    (diverged). All randomness comes from one PCG64 generator seeded with
    ``cfg.seed``; the draw order is: initial states, then per
    generation a stochastic matrix (recombining variants only) followed
    by two Gaussians per adapted pair. Fixed variants draw nothing.
    Identical configurations produce identical traces.
    """
    if not isinstance(cfg, SolverConfig):
        raise ValueError("cfg must be a SolverConfig")
    variant = cfg.variant
    recombining = variant.uses_recombination
    adaptive = not variant.is_fixed
    rng = np.random.default_rng(cfg.seed)
    pop = init_population(sys, cfg, rng)
    derived = variant.method == "gauss_seidel"
    work = gauss_seidel_work(sys) if derived else None
    best = float(pop.fitness.min())
    trace = [(0, best)]
    t = 0
    converged = best < cfg.threshold
    diverged = False
    recombine_calls = 0
    t0 = time.perf_counter()
    while not converged and not diverged and t < cfg.max_generations:
        if recombining:
            pop = recombine(pop, make_stochastic_matrix(pop.size, rng))
            recombine_calls += 1
        pop = mutate_and_evaluate(pop, sys, variant, work)
        if adaptive:  # a one-slot run has no pair to adapt, nothing to select
            omegas, fitness = pop.omegas.tolist(), pop.fitness.tolist()
            for p in range(0, len(omegas) - 1, 2):
                omegas[p], omegas[p + 1] = adapt_pair(
                    omegas[p], omegas[p + 1], fitness[p], fitness[p + 1], t, rng
                )
            pop = Population(pop.states, pop.fitness, np.array(omegas), pop.products)
            pop = select_and_reproduce(pop)
        t += 1
        # Slot 0 holds the best state: selection ranks it first, and a
        # fixed run has no other slot.
        best = pop.fitness.item(0)
        if derived and best < cfg.threshold:
            best = residual_norm(sys, pop.states[0])
        trace.append((t, best))
        converged = best < cfg.threshold
        diverged = not converged and not best <= DIVERGENCE_BOUND
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    if derived and not converged:
        with np.errstate(over="ignore", invalid="ignore"):
            best = residual_norm(sys, pop.states[pop.best_index()])
        trace[-1] = (t, best)
    return RunResult(
        generations=t,
        elapsed_ms=elapsed_ms,
        final_residual=best,
        converged=converged,
        diverged=diverged,
        trace=trace,
        final_omegas=[float(w) for w in pop.omegas],
        best_state=np.array(pop.states[pop.best_index()], dtype=np.float64),
        recombine_calls=recombine_calls,
    )
