"""Input-space inversion attacks producing per-class prediction vectors.

Both attacks synthesize, for each class t, an input the model considers
maximally t-like, then record the model's full softmax response to it
(the inverted prediction vector, IPV). A class the model has genuinely
unlearned admits no high-confidence input, so its IPV is flatter and its
peak probability lower; the screening module turns that contrast into a
prediction of the forgotten set.

White-box: multi-start gradient descent on
``CE(M(x), t) + lam_l2*||x||^2 + lam_tv*TV(x)``, starting from standard
Gaussian draws and keeping the final iterate with the lowest
cross-entropy. TV only applies to image inputs; vector data uses 0.

Black-box: a genetic algorithm over [0,1]^d that sees nothing but the
model's output vector. Fitness is P(t|x); parents are drawn by roulette
with a small floor, recombined by single-point crossover, mutated in one
uniformly chosen coordinate with a decaying Gaussian step, and the top
``elite`` individuals survive unchanged, which makes best fitness
monotone per generation.

All randomness flows from per-(seed, attack, class) substreams, so IPV
sets are bit-reproducible and per-class runs are order-independent.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import rng as rngmod
from .models import ModelArtifact

WB_INITS = 5
WB_ITERATIONS = 300
WB_LR = 0.1
WB_L2 = 1e-4
WB_TV_IMAGES = 1e-4

GA_POPULATION = 64
GA_GENERATIONS = 150
GA_SIGMA0 = 0.5
GA_DECAY = 0.98
GA_ELITE = 2

# the valid input space both attacks probe: [0,1]^d
VALID_LO = 0.0
VALID_HI = 1.0

FITNESS_FLOOR = 1e-12


class InversionError(ValueError):
    """Black-box search met an undefined state: a non-finite oracle output
    or a population that lost its best individual."""


class AllInitsDiverged(RuntimeError):
    """Every white-box restart hit a non-finite loss."""


@dataclass(frozen=True)
class InversionConfigWB:
    """Multi-start gradient inversion settings.

    ``lam_tv`` should stay 0 for vector inputs; the smoothness penalty
    only makes sense on images. ``box`` projects every iterate into
    [lo, hi]^d, the same valid-input-space constraint the black-box
    search obeys; None leaves the descent unconstrained. Keeping the
    search inside the valid box is what exposes multi-class forgetting:
    unconstrained descent wanders into far-off regions where even a
    forgotten class's logit can still dominate.
    """

    k_inits: int = WB_INITS
    iterations: int = WB_ITERATIONS
    lr: float = WB_LR
    lam_l2: float = WB_L2
    lam_tv: float = 0.0
    box: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if self.k_inits < 1:
            raise ValueError(f"need at least one init, got {self.k_inits}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.lam_l2 < 0 or self.lam_tv < 0:
            raise ValueError("regularization weights must be non-negative")
        if self.box is not None:
            lo, hi = self.box
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"box must be a finite (lo, hi) pair, got {self.box}")


def default_wb_config(model: ModelArtifact, seed: int, **overrides) -> InversionConfigWB:
    """Benchmark WB config: TV on for images only, search in [0,1]^d."""
    lam_tv = WB_TV_IMAGES if len(model.spec.input_shape) == 3 else 0.0
    overrides.setdefault("box", (VALID_LO, VALID_HI))
    return InversionConfigWB(seed=seed, lam_tv=lam_tv, **overrides)


@dataclass(frozen=True)
class GAConfig:
    """Black-box genetic search settings.

    ``query_budget`` caps oracle calls per class (final readout query
    included); ``mutation_rate`` switches from one-coordinate mutation
    to an independent per-coordinate rate.
    """

    population: int = GA_POPULATION
    generations: int = GA_GENERATIONS
    sigma0: float = GA_SIGMA0
    decay: float = GA_DECAY
    elite: int = GA_ELITE
    seed: int = 0
    query_budget: int | None = None
    mutation_rate: float | None = None

    def __post_init__(self):
        if self.population < 4:
            raise ValueError(f"population must be >= 4, got {self.population}")
        if not 0 < self.decay < 1:
            raise ValueError(f"decay must lie in (0, 1), got {self.decay}")
        if not 1 <= self.elite < self.population:
            raise ValueError(f"elite count {self.elite} must lie in "
                             f"[1, population)")
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        if self.sigma0 < 0:
            raise ValueError(f"sigma0 must be >= 0, got {self.sigma0}")
        if self.query_budget is not None and self.query_budget < 1:
            raise ValueError(f"query budget must be >= 1, got {self.query_budget}")
        if self.mutation_rate is not None and not 0 <= self.mutation_rate <= 1:
            raise ValueError(f"mutation rate must lie in [0, 1]")


@dataclass(frozen=True)
class InvertedPredictionVector:
    """The model's full softmax response to one synthesized input."""

    target: int
    probs: np.ndarray
    max_prob: float
    fitness: float
    queries: int
    truncated: bool = False

    def __post_init__(self):
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probs sum to {total}, not a distribution")
        if self.max_prob != float(self.probs.max()):
            raise ValueError("max_prob must equal max(probs)")
        if self.queries < 0:
            raise ValueError("query count cannot be negative")


def _ipv(target: int, probs: np.ndarray, fitness: float, queries: int,
         truncated: bool = False) -> InvertedPredictionVector:
    probs = np.asarray(probs, dtype=np.float64).copy()
    probs.flags.writeable = False
    return InvertedPredictionVector(target, probs, float(probs.max()),
                                    float(fitness), queries, truncated)


class QueryOracle:
    """Input -> softmax vector handle, counting every call.

    Wraps a model artifact (the usual case) or any callable; black-box
    code touches nothing but ``__call__`` and the counter.
    """

    def __init__(self, target, input_shape: tuple | None = None,
                 n_classes: int | None = None):
        if isinstance(target, ModelArtifact):
            self._fn = target.predict_proba
            self.input_shape = target.spec.input_shape
            self.n_classes = target.spec.n_classes
        else:
            self._fn = target
            self.input_shape = input_shape
            self.n_classes = n_classes
        self.queries = 0

    def __call__(self, x) -> np.ndarray:
        self.queries += 1
        return np.asarray(self._fn(np.asarray(x, dtype=np.float64)),
                          dtype=np.float64)


# ---------------------------------------------------------------------------
# white-box


def wb_descend(model: ModelArtifact, target: int, x0: np.ndarray,
               cfg: InversionConfigWB):
    """Gradient-descend the inversion loss from one starting point.

    Returns (x_final, initial_loss, final_loss, converged). A non-finite
    loss at any step aborts the run with converged=False. With a box
    configured, the start and every iterate are projected into it.
    """
    layers, params = model.layers, model.params
    x = np.asarray(x0, dtype=np.float64)
    if cfg.box is not None:
        x = np.clip(x, *cfg.box)
    initial = None
    for _ in range(cfg.iterations):
        value, grad = ad.loss_and_grad_input(layers, params, x, target,
                                             cfg.lam_l2, cfg.lam_tv)
        if initial is None:
            initial = value
        if not np.isfinite(value):
            return x, initial, value, False
        x = x - cfg.lr * grad
        if cfg.box is not None:
            x = np.clip(x, *cfg.box)
    final = ad.loss_total(layers, params, x, target, cfg.lam_l2,
                          cfg.lam_tv).item()
    if initial is None:
        initial = final
    return x, initial, final, bool(np.isfinite(final))


def invert_whitebox(model: ModelArtifact, target: int,
                    cfg: InversionConfigWB | None = None
                    ) -> InvertedPredictionVector:
    """Best-of-K gradient inversion; keeps the lowest-CE final iterate.

    Diverged restarts are dropped without replacement so the compute
    budget stays fixed; AllInitsDiverged if none survive.
    """
    cfg = cfg or InversionConfigWB()
    if not 0 <= target < model.spec.n_classes:
        raise ValueError(f"target {target} outside [0, {model.spec.n_classes})")
    gen = rngmod.stream(cfg.seed, rngmod.STREAM_INVERT_WB, target)
    best_ce, best_probs = np.inf, None
    for _ in range(cfg.k_inits):
        x0 = gen.standard_normal(model.spec.input_shape)
        x, _, _, converged = wb_descend(model, target, x0, cfg)
        if not converged:
            continue
        probs = model.predict_proba(x)
        ce = -np.log(max(float(probs[target]), 1e-300))
        if ce < best_ce:
            best_ce, best_probs = ce, probs
    if best_probs is None:
        raise AllInitsDiverged(
            f"all {cfg.k_inits} inits diverged for class {target}")
    return _ipv(target, best_probs, float(best_probs[target]), queries=0)


# ---------------------------------------------------------------------------
# black-box


def ga_fitness(oracle: QueryOracle, x: np.ndarray, target: int) -> float:
    """P(target|x) through the oracle; costs exactly one query.

    Raises InversionError when the oracle's answer is NaN or infinite.
    """
    value = float(oracle(x)[target])
    if not math.isfinite(value):
        raise InversionError(f"oracle returned fitness {value} for class {target}")
    return value


def ga_sigma(cfg: GAConfig, generation: int) -> float:
    """Mutation scale at a generation: sigma0 * decay**g."""
    return cfg.sigma0 * cfg.decay ** generation


def ga_crossover(p1: np.ndarray, p2: np.ndarray, cut: int) -> np.ndarray:
    """Single-point recombination: first ``cut`` genes from p1, rest p2."""
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    if p1.shape != p2.shape or p1.ndim != 1:
        raise ValueError("parents must be equal-length 1-D chromosomes")
    if not 0 <= cut <= len(p1):
        raise ValueError(f"cut {cut} outside [0, {len(p1)}]")
    return np.concatenate([p1[:cut], p2[cut:]])


def ga_mutate(child: np.ndarray, sigma_g: float, gen: np.random.Generator,
              rate: float | None = None) -> np.ndarray:
    """Gaussian perturbation clamped back into [0,1]^d.

    Default form touches one uniformly chosen coordinate; ``rate``
    switches to independent per-coordinate mutation.
    """
    child = np.asarray(child, dtype=np.float64).copy()
    if rate is None:
        j = int(gen.integers(len(child)))
        child[j] += sigma_g * gen.standard_normal()
    else:
        mask = gen.uniform(size=len(child)) < rate
        child += sigma_g * gen.standard_normal(len(child)) * mask
    return np.clip(child, 0.0, 1.0)


class _BudgetExhausted(Exception):
    pass


def invert_blackbox(oracle: QueryOracle, target: int,
                    cfg: GAConfig | None = None,
                    input_shape: tuple | None = None,
                    history: list | None = None
                    ) -> InvertedPredictionVector:
    """Genetic search for the input maximizing P(target|x).

    Chromosomes live in [0,1]^d (d from the oracle's input shape unless
    overridden). One query per fitness evaluation, plus one final query
    reading the best individual's full output vector. A query budget
    reserves that final query and truncates the search when spent, so the
    per-class total never exceeds the budget.

    When ``history`` is a list, the best population fitness is appended
    once after the initial evaluation and once per completed generation;
    elitism makes that sequence non-decreasing. A non-finite fitness or
    readout from the oracle, or a generation that loses the best fitness,
    raises InversionError.
    """
    cfg = cfg or GAConfig()
    shape = input_shape if input_shape is not None else oracle.input_shape
    if shape is None:
        raise ValueError("oracle carries no input shape; pass input_shape")
    dim = int(np.prod(shape))
    if dim < 2:
        raise ValueError("chromosomes need at least 2 dimensions")
    gen = rngmod.stream(cfg.seed, rngmod.STREAM_INVERT_BB, target)
    search_budget = None if cfg.query_budget is None else cfg.query_budget - 1
    used = 0

    def evaluate(x: np.ndarray) -> float:
        nonlocal used
        if search_budget is not None and used >= search_budget:
            raise _BudgetExhausted
        used += 1
        return ga_fitness(oracle, x.reshape(shape), target)

    population = gen.uniform(VALID_LO, VALID_HI, size=(cfg.population, dim))
    fitness = np.zeros(cfg.population)
    best_x, best_fit = population[0].copy(), -np.inf
    truncated = False
    try:
        for i in range(cfg.population):
            fitness[i] = evaluate(population[i])
            if fitness[i] > best_fit:
                best_fit, best_x = fitness[i], population[i].copy()
        if history is not None:
            history.append(float(fitness.max()))
        for g in range(cfg.generations):
            sigma_g = ga_sigma(cfg, g)
            elite_idx = np.argsort(-fitness, kind="stable")[:cfg.elite]
            floored = np.maximum(fitness, FITNESS_FLOOR)
            weights = floored / floored.sum()
            children = np.empty((cfg.population - cfg.elite, dim))
            child_fit = np.empty(cfg.population - cfg.elite)
            for i in range(len(children)):
                i1, i2 = gen.choice(cfg.population, size=2, p=weights)
                cut = int(gen.integers(1, dim))
                child = ga_crossover(population[i1], population[i2], cut)
                children[i] = ga_mutate(child, sigma_g, gen,
                                        rate=cfg.mutation_rate)
                child_fit[i] = evaluate(children[i])
                if child_fit[i] > best_fit:
                    best_fit, best_x = child_fit[i], children[i].copy()
            prev_best = fitness.max()
            population = np.concatenate([population[elite_idx], children])
            fitness = np.concatenate([fitness[elite_idx], child_fit])
            if fitness.max() < prev_best:
                raise InversionError(
                    f"elitism violated for class {target} in generation {g}")
            if history is not None:
                history.append(float(fitness.max()))
    except _BudgetExhausted:
        truncated = True
    probs = oracle(best_x.reshape(shape))
    used += 1
    if not np.isfinite(probs).all():
        raise InversionError(f"oracle readout for class {target} is not finite")
    if best_fit == -np.inf:
        # budget of 1: the only query is the final readout
        best_fit = float(probs[target])
    return _ipv(target, probs, best_fit, used, truncated)


def build_ipv_set(attack: str, target, cfg=None,
                  input_shape: tuple | None = None,
                  n_classes: int | None = None) -> list:
    """One inversion per class, ordered by class index.

    ``attack`` is "wb" (target: model) or "bb" (target: model or
    QueryOracle). A model passed to "bb" is wrapped in a fresh oracle.
    """
    if attack == "wb":
        if not isinstance(target, ModelArtifact):
            raise TypeError("white-box inversion needs the model itself")
        return [invert_whitebox(target, t, cfg)
                for t in range(target.spec.n_classes)]
    if attack == "bb":
        oracle = target if isinstance(target, QueryOracle) else QueryOracle(target)
        n = n_classes if n_classes is not None else oracle.n_classes
        if n is None:
            raise ValueError("oracle carries no class count; pass n_classes")
        return [invert_blackbox(oracle, t, cfg, input_shape=input_shape)
                for t in range(n)]
    raise ValueError(f"unknown attack {attack!r}, expected 'wb' or 'bb'")
