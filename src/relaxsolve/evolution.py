"""Hybrid evolutionary loop that self-adapts relaxation factors.

A population of candidate solution vectors is evolved by, per generation:
optional recombination through a random row-stochastic matrix, mutation
(one relaxed Jacobi or Gauss-Seidel sweep per individual, each with its
own slot-resident relaxation factor), fitness evaluation (residual norm),
pairwise stochastic adaptation of the relaxation factors with a step size
that decays over generations, and selection of the better slot into both.

The four adaptive variants evolve two slots and differ only in the
mutation sweep (Jacobi vs Gauss-Seidel) and in whether the recombination
stage runs at all. The ``FIXED_*`` baselines run through the same loop
as a one-slot population that starts at the zero vector, with exact zero
products and residual ``||b||``: one slot has no pair to adapt and skips
selection, so the relaxation factor stays constant.

Each slot carries the matrix product its next sweep needs: ``A x`` for a
Jacobi slot, ``U x`` for a Gauss-Seidel slot (U the strict upper
triangle of A). Recombination maps the products with the same matrix as
the states, and selection copies them with the states. The Gauss-Seidel
slots sweep as one stack, over the run's copies of A's diagonal blocks
and A's other blocks, each block row read once for all slots to solve and
once for ``U x'``; each slot derives its residual from these.
A Jacobi slot reads A for ``A x'``, but from generation 2 on an adaptive
run's slots hold one survivor, and one product ``A d`` of its step
``d = (b - A x) / D`` gives each ``A x' = A x + w A d``. Of these derived
trace entries, one that ends the run is a direct residual, and so is an
adaptive Jacobi one below ``REFRESH_RATIO`` of the peak since the last.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .iteration import (
    OMEGA_HI,
    OMEGA_LO,
    gauss_seidel_sr_step,
    gauss_seidel_work,
    jacobi_sr_step,
    upper_product,
)
from .linalg import U64_LIMIT, LinearSystem, checked_int, checked_real, residual_norm, vector_norm

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
# fast both steps decay with the generation counter.
E_X = 0.125
E_Y = 0.03125
LAM = 50.0

# Adapted relaxation factors are clamped this far inside (OMEGA_LO, OMEGA_HI).
OMEGA_MARGIN = 1e-6

# Standard deviation of the Gaussian noise behind the adaptation steps.
NOISE_SD = 0.25

# Adaptive variants draw their initial states uniformly from this box.
INIT_LO = -30.0
INIT_HI = 30.0

# A run whose best residual exceeds this bound (or turns non-finite)
# stops as diverged.
DIVERGENCE_BOUND = 1e12

# An adaptive Jacobi run recomputes its shared product directly once its
# residual falls below this share of the peak since the last direct one.
REFRESH_RATIO = 1e-4


class Variant(str, Enum):
    """Solver variants: adaptive hybrids and fixed-factor baselines."""

    JBTVA = "JBTVA"
    GSBTVA = "GSBTVA"
    MJBTVA = "MJBTVA"
    MGSBTVA = "MGSBTVA"
    FIXED_JACOBI_SR = "FIXED_JACOBI_SR"
    FIXED_GS_SR = "FIXED_GS_SR"

    # Plain value strings: comparing them skips the enum's member lookups.
    @property
    def uses_recombination(self) -> bool:
        return self._value_ in ("JBTVA", "GSBTVA")

    @property
    def is_fixed(self) -> bool:
        return self._value_ in ("FIXED_JACOBI_SR", "FIXED_GS_SR")

    @property
    def method(self) -> str:
        """The underlying sweep: ``"jacobi"`` or ``"gauss_seidel"``."""
        if self._value_ in ("JBTVA", "MJBTVA", "FIXED_JACOBI_SR"):
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
        try:
            object.__setattr__(self, "variant", Variant(self.variant))
        except ValueError:
            raise ValueError(f"variant must be a Variant value, got {self.variant!r}") from None
        # An infinite threshold would count every run as converged.
        checked_real("threshold", self.threshold, 0.0, math.inf)
        checked_int("max_generations", self.max_generations, 0)
        checked_int("seed", self.seed, 0, U64_LIMIT)
        checked_real("fixed_omega", self.fixed_omega, OMEGA_LO, OMEGA_HI)


class Population(NamedTuple):
    """A run's slots, an adaptive pair or one fixed slot: states, fitnesses, omegas.

    A ``NamedTuple``, which builds in half a dataclass's time: its fields
    stay bound, but its arrays are mutable. ``run_solver`` writes adapted
    omegas and refreshed products into them in place; each stage hands its
    input's ``omegas`` array to its output. ``fitness`` is None while the
    states are not yet re-evaluated. Omegas belong to slots: selection
    moves states, never omegas. Row i of ``products`` is the product slot
    i's next sweep reuses, ``A x_i`` (Jacobi) or ``U x_i`` (Gauss-Seidel);
    None until a sweep computes it, except at a fixed start (exactly 0).
    """

    states: np.ndarray
    fitness: np.ndarray | None
    omegas: np.ndarray
    products: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.states.shape[0]

    def best_index(self) -> int:
        """The slot selection ranks first: lowest fitness, lower slot, NaN last."""
        if self.fitness is None:
            raise ValueError("population has not been evaluated")
        return int(self.fitness.argsort(kind="stable")[0])


@dataclass(frozen=True)
class RunResult:
    """Outcome of one solver run.

    ``trace`` holds one ``(generation, best_residual)`` pair per
    generation starting at 0. Gauss-Seidel entries from generation 1 on
    and adaptive Jacobi ones from generation 2 on are derived fitnesses,
    but refreshed ones and the last are direct residuals: ``final_residual``
    is the last, the direct residual of ``best_state``. ``elapsed_ms`` is
    wall time around the iteration loop only. ``recombine_calls`` counts
    executed recombination stages, zero for the M* and fixed variants.
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


def init_relaxation_factors() -> np.ndarray:
    """The pair's starting factors 0.5 and 1.5: the midpoints of the omega interval's halves."""
    return OMEGA_LO + (OMEGA_HI - OMEGA_LO) * np.array([0.25, 0.75])


def init_population(
    sys: LinearSystem, cfg: SolverConfig, rng: np.random.Generator
) -> Population:
    """The evaluated generation-0 population of a run.

    Adaptive variants get a pair of states drawn uniformly from
    ``[INIT_LO, INIT_HI)`` under ``init_relaxation_factors()``. Fixed
    variants get one slot at the zero vector with omega ``cfg.fixed_omega``,
    draw nothing and take no product: ``A 0`` and ``U 0`` are exactly 0,
    the residual ``||b||``. An overflowed residual is kept as inf or nan.
    """
    if cfg.variant.is_fixed:
        omegas = np.array([cfg.fixed_omega], dtype=np.float64)
        with np.errstate(over="ignore"):
            fitness = np.array([vector_norm(sys.b)])
        return Population(np.zeros((1, sys.n)), fitness, omegas, np.zeros((1, sys.n)))
    states = rng.uniform(INIT_LO, INIT_HI, size=(2, sys.n))
    with np.errstate(over="ignore", invalid="ignore"):
        fitness = np.array([residual_norm(sys, s) for s in states])
    return Population(states, fitness, init_relaxation_factors())


def basic_time_variant(t: int) -> float:
    """Decay factor ``LAM * ln(1 + 1/(t + LAM))`` for adaptation step sizes.

    Strictly decreasing in the generation counter ``t``, tending to zero;
    ``LAM > 10`` keeps it below 1 already at ``t = 0``.
    """
    if not t >= 0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    return LAM * math.log1p(1.0 / (t + LAM))


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
    lower). Errors rank as in selection: a NaN error loses to every
    number, inf included. Equal errors, and two NaN errors, leave both
    factors untouched. Results are clamped ``OMEGA_MARGIN`` inside the open
    interval, infinite steps included; a NaN step, or a factor outside
    (``OMEGA_LO``, ``OMEGA_HI``), is a ValueError.

    ``p_pull`` is signed; ``p_push`` is expected nonnegative. Tests
    inject the steps directly; ``adapt_pair`` derives them from Gaussian
    noise and the time-variant decay.
    """
    if not (type(omega_x) is type(omega_y) is float
            and OMEGA_LO < omega_x < OMEGA_HI and OMEGA_LO < omega_y < OMEGA_HI):
        checked_real("omega_x", omega_x, OMEGA_LO, OMEGA_HI)
        checked_real("omega_y", omega_y, OMEGA_LO, OMEGA_HI)
    if p_pull != p_pull or p_push != p_push:
        raise ValueError(f"{'p_pull' if p_pull != p_pull else 'p_push'} must not be NaN")
    if err_x == err_y or math.isnan(err_x) and math.isnan(err_y):
        return omega_x, omega_y
    lo = OMEGA_LO + OMEGA_MARGIN
    hi = OMEGA_HI - OMEGA_MARGIN
    x_loses = err_x > err_y or math.isnan(err_x)
    if x_loses:
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
    if x_loses:
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
    t_omega = basic_time_variant(t)  # before the draw: a refused t draws nothing
    g_pull, g_push = rng.normal(0.0, NOISE_SD, size=2).tolist()
    p_pull = E_X * g_pull * t_omega
    p_push = E_Y * abs(g_push) * t_omega
    return adapt_pair_from_steps(omega_x, omega_y, err_x, err_y, p_pull, p_push)


def make_stochastic_matrix(rng: np.random.Generator) -> np.ndarray:
    """Random row-stochastic 2x2 matrix: uniform [0, 1) entries, rows normalized in place."""
    r = rng.random((2, 2))
    return np.divide(r, np.add.reduce(r, axis=1, keepdims=True), out=r)


def recombine(pop: Population, r: np.ndarray) -> Population:
    """Replace every state by a convex combination of the parent states.

    ``r`` must be row-stochastic: nonnegative, each row summing to 1
    within 1e-12. Offspring i is ``sum_j r_ij * state_j``, and its carried
    product is the same combination of the parents' products (the sweep's
    products are linear in the state). Slot omegas are untouched;
    fitnesses are invalidated. ValueError unless omegas and carried
    products have one row per state.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (pop.size, pop.size):
        raise ValueError(
            f"stochastic matrix shape {r.shape} does not match population "
            f"size {pop.size}"
        )
    if len(pop.omegas) != pop.size or pop.products is not None and len(pop.products) != pop.size:
        raise ValueError("population arrays disagree on the slot count")
    for row in r.tolist():  # a NaN or infinite entry fails its row's sum test
        if not (min(row) >= 0.0 and abs(sum(row) - 1.0) <= 1e-12):
            raise ValueError("matrix rows must be nonnegative and sum to 1 within 1e-12")
    products = None if pop.products is None else r.dot(pop.products)
    return Population(r.dot(pop.states), None, pop.omegas, products)


def mutate_and_evaluate(
    pop: Population, sys: LinearSystem, work: list | None, *, shared: bool = False
) -> Population:
    """One relaxed sweep per slot with its own omega, then re-evaluate.

    ``work`` is the run's ``gauss_seidel_work`` blocks of A: one sweep call
    Gauss-Seidel on them for all slots; with ``work`` None the sweep is
    Jacobi. A slot reuses its carried product when it has one. A Jacobi slot carries
    ``A x'``, its fitness is ``||A x' - b||``. With ``shared`` (all slots
    hold one state and product, up to recombination's rounding)
    ``A x' = A x + w A d`` for slot 0's ``d = (b - A x) / D``, one product
    for all. A Gauss-Seidel slot carries ``U x'`` and derives its fitness
    as ``||((1-w)/w) D (x - x') + (U x' - U x)||`` (w in (0, 2)). One
    ``linalg.vector_norm`` of the residual rows gives every fitness, each
    bit for bit ``np.linalg.norm`` of its row. Non-finite
    states propagate as-is, without warnings; the run loop's divergence
    check deals with them. ValueError unless omegas and carried products
    have one row per state.
    """
    return _sweep_and_evaluate(pop, sys, work, shared)


@np.errstate(over="ignore", invalid="ignore")
def _sweep_and_evaluate(pop, sys, work, shared):
    # Cheaper as a decorator than a with block; never on a traced name (it sets __wrapped__).
    if shared and (work is not None or pop.products is None):
        raise ValueError("shared needs a Jacobi population with carried products")
    carried = [None] * pop.size if pop.products is None else pop.products
    if not len(pop.states) == len(pop.omegas) == len(carried):
        raise ValueError("population arrays disagree on the slot count")
    if work is None:
        slots = zip(pop.states, pop.omegas.tolist(), carried)
        states = np.array([jacobi_sr_step(sys, x, w, ax=ax) for x, w, ax in slots])
        if shared:
            products = np.multiply.outer(pop.omegas, sys.a.dot((sys.b - carried[0]) / sys.diag))
            products += carried
        else:
            products = np.array([sys.a.dot(x) for x in states])
        return Population(states, vector_norm(products - sys.b), pop.omegas, products)
    x, w = pop.states, pop.omegas
    ux = upper_product(sys, work, x) if pop.products is None else pop.products
    states = gauss_seidel_sr_step(sys, x, w, ux=ux, work=work)
    products = upper_product(sys, work, states)
    r = x - states
    r *= np.multiply.outer((1.0 - w) / w, sys.diag)
    r += products - ux
    return Population(states, vector_norm(r), pop.omegas, products)


def select_and_reproduce(pop: Population) -> Population:
    """Copy the better slot of a pair into both slots.

    The better slot is the one ``best_index`` ranks first: lower fitness,
    slot 0 on a tie, NaN last. Slot omegas stay where they are, so the two
    copies run under different relaxation factors in the next generation.
    Carried products move with their states. ValueError unless the
    population is an evaluated pair whose fitness and carried products
    have one row per state.
    """
    if pop.size != 2:
        raise ValueError(f"selection takes a pair of slots, got {pop.size}")
    keep = (pop.best_index(),) * 2
    if len(pop.fitness) != 2 or pop.products is not None and len(pop.products) != 2:
        raise ValueError("population arrays disagree on the slot count")
    products = None if pop.products is None else pop.products.take(keep, 0)
    return Population(pop.states.take(keep, 0), pop.fitness.take(keep), pop.omegas, products)


def run_solver(sys: LinearSystem, cfg: SolverConfig) -> RunResult:
    """Run one solver configuration to convergence, cap, or divergence.

    Every trace entry, generation 0 included, is judged by one rule: the
    run converges when the best residual is below ``cfg.threshold``,
    diverges when it exceeds ``DIVERGENCE_BOUND`` or turns non-finite,
    and is capped at ``cfg.max_generations``. A derived entry that would
    end the run is first replaced by the direct residual of its state,
    which then decides. All randomness comes from one PCG64
    generator seeded with ``cfg.seed``; the draw order is: initial
    states, then per generation a stochastic matrix (recombining variants
    only) followed by two Gaussians for the adapted pair. Fixed variants draw
    nothing. Identical configurations produce identical traces.
    """
    if not isinstance(sys, LinearSystem):
        raise ValueError("sys must be a LinearSystem")
    if not isinstance(cfg, SolverConfig):
        raise ValueError("cfg must be a SolverConfig")
    variant = cfg.variant
    recombining = variant.uses_recombination
    adaptive = not variant.is_fixed
    rng = np.random.default_rng(cfg.seed)
    pop = init_population(sys, cfg, rng)
    gauss_seidel = variant.method == "gauss_seidel"
    work = gauss_seidel_work(sys, pop.size) if gauss_seidel else None
    trace = []
    peak = 0.0
    t0 = time.perf_counter()
    for t in range(cfg.max_generations + 1):
        shared = t > 1 and adaptive and not gauss_seidel
        if t:
            if recombining:
                pop = recombine(pop, make_stochastic_matrix(rng))
            pop = mutate_and_evaluate(pop, sys, work, shared=shared)
            if adaptive:  # one slot has no pair to adapt, nothing to select
                w, f = pop.omegas.tolist(), pop.fitness.tolist()
                pop.omegas[0], pop.omegas[1] = adapt_pair(w[0], w[1], f[0], f[1], t - 1, rng)
                pop = select_and_reproduce(pop)
        # After selection slot 0 is best (a fixed run has only slot 0). A derived
        # fitness that would end the run, or a shared one far down, yields to a direct one.
        i = 0 if t else pop.best_index()
        best = pop.fitness.item(i)
        ends = t == cfg.max_generations or not cfg.threshold <= best <= DIVERGENCE_BOUND
        if shared and (ends or best < REFRESH_RATIO * peak):
            with np.errstate(over="ignore", invalid="ignore"):
                pop.products[:] = sys.a.dot(pop.states[0])  # all slots hold it
                best, shared = vector_norm(pop.products[0] - sys.b), False
        elif gauss_seidel and t and ends:
            with np.errstate(over="ignore", invalid="ignore"):
                best = residual_norm(sys, pop.states[i])
        peak = max(peak, best) if shared else best
        trace.append((t, best))
        converged = best < cfg.threshold
        diverged = not converged and not best <= DIVERGENCE_BOUND
        if converged or diverged:
            break
    return RunResult(
        generations=t,
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
        final_residual=best,
        converged=converged,
        diverged=diverged,
        trace=trace,
        final_omegas=[float(w) for w in pop.omegas],
        best_state=np.array(pop.states[i], dtype=np.float64),
        recombine_calls=t if recombining else 0,
    )
