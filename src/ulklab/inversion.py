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
``invert_whitebox`` takes a list of classes, and every restart of every
class descends as one row of a single batch in autodiff's rows mode, so
each row's bits equal those of a lone descent (``wb_descend``). A row
stops at its first non-finite loss (the restart is dropped) or
non-finite iterate (the inversion fails as a lone descent would).

Black-box: a genetic algorithm over [0,1]^d that sees nothing but the
model's output vector. Fitness is P(t|x); parents are drawn by roulette
with a small floor, recombined by single-point crossover, mutated in one
uniformly chosen coordinate with a decaying Gaussian step, and the top
``elite`` individuals survive unchanged, which makes best fitness
monotone per generation. A generation's children get the draws of
breeding them one after another from the class's stream: they are
decoded from one raw block of the Philox stream and built with array
operations, with a hand-off to the generator's own calls for any child
the block cannot decode (``ga_breed``). The generation is then scored in
one batched oracle call; the best individual is the first to reach the
highest fitness, as in a child-by-child scan.

All randomness flows from per-(seed, attack, class) substreams, so IPV
sets are bit-reproducible and per-class runs are order-independent.
"""

import base64
import functools
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
            raise ValueError(f"mutation rate must lie in [0, 1], got "
                             f"{self.mutation_rate}")


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
        if not np.isfinite(self.probs).all():
            raise ValueError("probs must be finite")
        if (self.probs < 0.0).any() or (self.probs > 1.0).any():
            raise ValueError("probs must lie in [0, 1]")
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
    """Input -> softmax vector handle, counting every row it answers.

    Wraps a model artifact (the usual case) or any callable of one input,
    which needs ``input_shape`` and ``n_classes``; black-box code touches
    nothing but ``__call__``, the counter and those two.
    ``oracle(x)`` answers one input and counts one query. ``oracle(xs,
    rows=True)`` answers a batch with one vector per row and counts one
    query per row. A model answers a batch in autodiff's rows mode, so
    each vector is bit-equal to that row's lone answer; a callable answers
    it one row at a time.
    """

    def __init__(self, target, input_shape: tuple | None = None,
                 n_classes: int | None = None):
        if isinstance(target, ModelArtifact):
            self._answer = target.predict_proba
            self.input_shape = target.spec.input_shape
            self.n_classes = target.spec.n_classes
        elif input_shape is None or n_classes is None:
            raise ValueError("a callable oracle needs input_shape and n_classes")
        else:
            def answer(x, rows):
                return [np.asarray(target(r), dtype=np.float64) for r in x] \
                    if rows else target(x)
            self._answer = answer
            self.input_shape = input_shape
            self.n_classes = n_classes
        self.queries = 0

    def __call__(self, x, rows: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self.queries += len(x) if rows else 1
        return np.asarray(self._answer(x, rows=rows), dtype=np.float64)


# ---------------------------------------------------------------------------
# white-box

# how a descent row ended: converged, dropped at a non-finite loss, or
# stopped at a non-finite iterate (which fails the whole inversion)
_CONVERGED, _DIVERGED, _NON_FINITE = 0, 1, 2


def _descend_rows(model: ModelArtifact, targets: np.ndarray, x: np.ndarray,
                  cfg: InversionConfigWB):
    """Gradient-descend the inversion loss from the starting rows ``x``
    (n, *input_shape), row i towards class ``targets[i]``.

    Runs ``cfg.iterations`` steps and one last evaluation. Returns (x,
    initial, final, state) with one entry per row; a row that ends
    ``_DIVERGED`` or ``_NON_FINITE`` keeps its last finite iterate.
    """
    layers, params = model.layers, model.params
    x = np.array(x, dtype=np.float64)
    if cfg.box is not None:
        x = np.clip(x, *cfg.box)
    initial, final = np.full(len(x), np.nan), np.full(len(x), np.nan)
    state = np.full(len(x), _CONVERGED)
    live = np.arange(len(x))
    for step in range(cfg.iterations + 1):
        finite = np.isfinite(x[live]).all(axis=tuple(range(1, x.ndim)))
        state[live[~finite]] = _NON_FINITE
        live = live[finite]
        if not live.size:
            break
        value, grad = ad.loss_and_grad_input(layers, params, x[live], targets[live],
                                             cfg.lam_l2, cfg.lam_tv)
        if step == 0:
            initial[live] = value
        final[live] = value
        ok = np.isfinite(value)
        state[live[~ok]] = _DIVERGED
        if step == cfg.iterations:
            break
        live = live[ok]
        stepped = x[live] - cfg.lr * grad[ok]
        x[live] = stepped if cfg.box is None else np.clip(stepped, *cfg.box)
    return x, initial, final, state


def wb_descend(model: ModelArtifact, target: int, x0: np.ndarray,
               cfg: InversionConfigWB):
    """Gradient-descend the inversion loss from one starting point.

    Returns (x_final, initial_loss, final_loss, converged). A non-finite
    loss at any step aborts the run with converged=False; a non-finite
    iterate raises forward's ValueError. With a box configured, the start
    and every iterate are projected into it.
    """
    x, initial, final, state = _descend_rows(
        model, np.array([target]), np.asarray(x0, dtype=np.float64)[None], cfg)
    if state[0] == _NON_FINITE:
        raise ValueError(ad.NON_FINITE_INPUT)
    return x[0], float(initial[0]), float(final[0]), bool(state[0] == _CONVERGED)


def invert_whitebox(model: ModelArtifact, targets,
                    cfg: InversionConfigWB | None = None) -> list:
    """Best-of-K gradient inversion of each class in ``targets``, with all
    classes' restarts descended as one batch; one IPV per class, in order.

    Each class draws its K starts from its own stream and keeps its
    lowest-CE final iterate, so its IPV is the one it gets alone. Diverged
    restarts are dropped without replacement so the compute budget stays
    fixed. Classes are checked in order: the first with a non-finite iterate
    raises forward's ValueError, the first with no surviving restart
    AllInitsDiverged.
    """
    cfg = cfg or InversionConfigWB()
    k = cfg.k_inits
    for t in targets:
        if not 0 <= t < model.spec.n_classes:
            raise ValueError(f"target {t} outside [0, {model.spec.n_classes})")
    x0 = np.concatenate([
        rngmod.stream(cfg.seed, rngmod.STREAM_INVERT_WB, t).standard_normal(
            (k,) + tuple(model.spec.input_shape)) for t in targets])
    x, _, _, state = _descend_rows(model, np.repeat(targets, k), x0, cfg)
    probs = np.zeros((len(x), model.spec.n_classes))
    done = np.flatnonzero(state == _CONVERGED)
    if done.size:
        probs[done] = model.predict_proba(x[done], rows=True)
    ipvs = []
    for j, t in enumerate(targets):
        rows = range(j * k, (j + 1) * k)
        if (state[j * k:(j + 1) * k] == _NON_FINITE).any():
            raise ValueError(ad.NON_FINITE_INPUT)
        best_ce, best = np.inf, None
        for r in rows:
            if state[r] != _CONVERGED:
                continue
            ce = -np.log(max(float(probs[r, t]), 1e-300))
            if ce < best_ce:
                best_ce, best = ce, r
        if best is None:
            raise AllInitsDiverged(f"all {k} inits diverged for class {t}")
        ipvs.append(_ipv(t, probs[best], float(probs[best, t]), queries=0))
    return ipvs


# ---------------------------------------------------------------------------
# black-box


def ga_sigma(cfg: GAConfig, generation: int) -> float:
    """Mutation scale at a generation: sigma0 * decay**g."""
    return cfg.sigma0 * cfg.decay ** generation


def ga_breed(population: np.ndarray, fitness: np.ndarray, n_children: int,
             sigma_g: float, gen: np.random.Generator,
             rate: float | None = None) -> np.ndarray:
    """One generation's children, drawn from ``gen`` as if bred one after
    another.

    Per child: two roulette parents with weights proportional to the
    floored fitness, drawn as ``cdf.searchsorted(gen.random(2),
    side="right")`` (the draw ``Generator.choice`` makes with those
    weights); a single-point crossover cut from ``gen.integers(1, d)``
    taking genes [0, cut) from the first parent and the rest from the
    second; then a Gaussian mutation of one uniformly chosen coordinate,
    or with ``rate`` of each coordinate independently. The children are
    clamped into [0,1]^d.

    With one-coordinate mutation, d >= 3 and a Philox ``gen`` whose
    tables pass ``ziggurat_tables``'s check, the draws are replayed: one
    ``random_raw`` block of four words a child is decoded as those calls
    would read it (``_decode_block``), and the children are built with
    array operations. At the first child the block cannot decode (a
    Lemire retry check or a ziggurat slow path), the generator is rewound
    to that child, which is bred by the calls themselves, and replay
    resumes once no half word is buffered. Every other case breeds child
    by child. Both give the same bits and leave ``gen`` at the same place
    in its stream.
    """
    floored = np.maximum(fitness, FITNESS_FLOOR)
    cdf = (floored / floored.sum()).cumsum()
    cdf /= cdf[-1]
    dim = population.shape[1]
    children = np.empty((n_children, dim))
    bits = gen.bit_generator
    tables = None
    if rate is None and dim >= 3 and isinstance(bits, np.random.Philox):
        tables = ziggurat_tables()
    if tables is None:
        _breed_loop(children, population, cdf, sigma_g, gen, rate)
        return np.clip(children, 0.0, 1.0, out=children)
    done = 0
    while done < n_children:
        state = bits.state
        if not state["has_uint32"]:
            parents, cut, coord, z, fast = _decode_block(
                bits.random_raw(4 * (n_children - done)), cdf, dim, *tables)
            k = len(fast) if fast.all() else int(fast.argmin())
            head = np.arange(dim) < cut[:k, None]
            block = np.where(head, population[parents[:k, 0]],
                             population[parents[:k, 1]])
            block[np.arange(k), coord[:k]] += sigma_g * z[:k]
            children[done:done + k] = block
            done += k
            if done == n_children:
                break
            # rewind to child k, whose draws the block cannot give
            bits.state = state
            bits.random_raw(4 * k)
        _breed_loop(children[done:done + 1], population, cdf, sigma_g, gen, rate)
        done += 1
    return np.clip(children, 0.0, 1.0, out=children)


def _breed_loop(children, population, cdf, sigma_g, gen, rate):
    """Breed each row of ``children`` in turn with the generator's calls."""
    dim = population.shape[1]
    random, integers, normal = gen.random, gen.integers, gen.standard_normal
    for child in children:
        i1, i2 = cdf.searchsorted(random(2), side="right").tolist()
        cut = int(integers(1, dim))
        child[:cut] = population[i1, :cut]
        child[cut:] = population[i2, cut:]
        if rate is None:
            child[int(integers(dim))] += sigma_g * normal()
        else:
            mask = gen.uniform(size=dim) < rate
            child += sigma_g * normal(dim) * mask


def _decode_block(raw, cdf, dim, ki, wi):
    """One-coordinate breeding's draws, decoded from raw Philox words
    (a uint64 array).

    Each child reads four words: two doubles ``(r >> 11) * 2**-53`` for
    its parents; one word whose low and high halves give the cut
    ``integers(1, dim)`` and the mutated coordinate ``integers(dim)`` by
    Lemire's method; and one ziggurat word for ``standard_normal``.
    Returns (parents (m, 2), cut, coord, z, fast). Only where ``fast`` is
    set are these the calls' draws: there, neither Lemire draw needs its
    retry check and the normal takes the ziggurat's fast path.
    """
    raw = raw.reshape(-1, 4)
    parents = cdf.searchsorted((raw[:, :2] >> 11) * 2.0 ** -53, side="right")
    ranges = np.array([dim - 1, dim], dtype=np.uint64)
    scaled = (raw[:, 2:3] >> np.array([0, 32], dtype=np.uint64) & 0xFFFFFFFF) * ranges
    drawn = (scaled >> 32).astype(np.intp)
    z, fast = _decode_normals(raw[:, 3], ki, wi)
    fast &= ((scaled & 0xFFFFFFFF) >= ranges).all(axis=1)
    return parents, drawn[:, 0] + 1, drawn[:, 1], z, fast


def _decode_normals(words, ki, wi):
    """NumPy's ziggurat on raw words: layer ``r & 0xff``, sign bit 8 and a
    52-bit magnitude above it; ``ki``/``wi`` are indexed by the low nine
    bits (``wi`` negated above 255). Returns (z, fast); z is the
    generator's value where ``fast`` is set."""
    rabs = words >> 9 & 0xFFFFFFFFFFFFF
    layer = words & 0x1FF
    return rabs * wi[layer], rabs < ki[layer]


@functools.cache
def ziggurat_tables():
    """NumPy's standard-normal ziggurat tables (ki, wi), or None when they
    do not reproduce ``Generator.standard_normal``. Checked once per
    process, on first use.

    The check feeds the generator one crafted word at a time through
    Philox's buffer: for every layer and both signs, the largest
    magnitude on the fast path, the smallest off it, and one from a fixed
    stream. Each word must be marked fast exactly when the generator
    takes no further word for it, and then decode to the generator's
    value.
    """
    raw = np.frombuffer(base64.b64decode(_ZIGGURAT), dtype="<u8")
    ki, wi = np.tile(raw[:256], 2), raw[256:].view("<f8")
    wi = np.concatenate([wi, -wi])
    bits = np.random.Philox(0)
    magnitudes = np.concatenate([np.maximum(ki, 1) - 1, ki,
                                 bits.random_raw(512) >> 12])
    words = magnitudes << 9 | np.arange(3 * 512, dtype=np.uint64) & 0x1FF
    normal = np.random.Generator(bits).standard_normal
    state = bits.state
    state["buffer_pos"] = 0
    got, alone = np.empty(len(words)), np.empty(len(words), dtype=bool)
    for i, word in enumerate(words.tolist()):
        state["buffer"] = np.array([word, 1, 2, 3], dtype=np.uint64)
        bits.state = state
        got[i] = normal()
        alone[i] = bits.random_raw() == 1
    z, fast = _decode_normals(words, ki, wi)
    if np.array_equal(fast, alone) and got[fast].tobytes() == z[fast].tobytes():
        return ki, wi
    return None


def invert_blackbox(oracle: QueryOracle, target: int,
                    cfg: GAConfig | None = None,
                    history: list | None = None
                    ) -> InvertedPredictionVector:
    """Genetic search for the input maximizing P(target|x).

    Chromosomes live in [0,1]^d (d from the oracle's input shape). One
    query per fitness evaluation, plus one final query reading the best
    individual's full output vector. The initial population and each
    generation's children are scored in one oracle call each. A query budget reserves that final query and truncates the
    search when spent: only the prefix of a batch the budget still covers
    is scored, so the per-class total never exceeds the budget.

    When ``history`` is a list, the best population fitness is appended
    once after the initial evaluation and once per completed generation;
    elitism makes that sequence non-decreasing. A non-finite fitness (the
    first in row order is reported) or readout from the oracle, or a
    generation that loses the best fitness, raises InversionError.
    """
    cfg = cfg or GAConfig()
    shape = oracle.input_shape
    dim = int(np.prod(shape))
    if dim < 2:
        raise ValueError("chromosomes need at least 2 dimensions")
    gen = rngmod.stream(cfg.seed, rngmod.STREAM_INVERT_BB, target)
    search_budget = np.inf if cfg.query_budget is None else cfg.query_budget - 1
    used = 0
    population = gen.uniform(VALID_LO, VALID_HI, size=(cfg.population, dim))
    best_x, best_fit = population[0].copy(), -np.inf

    def score(xs: np.ndarray) -> np.ndarray:
        """Fitness of the prefix of xs the budget covers; tracks the best."""
        nonlocal used, best_x, best_fit
        m = int(min(len(xs), search_budget - used))
        if m == 0:
            return np.empty(0)
        fit = oracle(xs[:m].reshape((m,) + tuple(shape)), rows=True)[:, target]
        used += m
        bad = np.flatnonzero(~np.isfinite(fit))
        if bad.size:
            raise InversionError(f"oracle returned fitness {float(fit[bad[0]])} "
                                 f"for class {target}")
        i = int(np.argmax(fit))
        if fit[i] > best_fit:
            best_fit, best_x = float(fit[i]), xs[i].copy()
        return fit

    fitness = score(population)
    truncated = len(fitness) < cfg.population
    if not truncated and history is not None:
        history.append(float(fitness.max()))
    for g in range(0 if truncated else cfg.generations):
        elite_idx = np.argsort(-fitness, kind="stable")[:cfg.elite]
        children = ga_breed(population, fitness, cfg.population - cfg.elite,
                            ga_sigma(cfg, g), gen, rate=cfg.mutation_rate)
        child_fit = score(children)
        if len(child_fit) < len(children):
            truncated = True
            break
        prev_best = fitness.max()
        population = np.concatenate([population[elite_idx], children])
        fitness = np.concatenate([fitness[elite_idx], child_fit])
        if fitness.max() < prev_best:
            raise InversionError(
                f"elitism violated for class {target} in generation {g}")
        if history is not None:
            history.append(float(fitness.max()))
    probs = oracle(best_x.reshape(shape))
    used += 1
    if not np.isfinite(probs).all():
        raise InversionError(f"oracle readout for class {target} is not finite")
    if best_fit == -np.inf:
        # budget of 1: the only query is the final readout
        best_fit = float(probs[target])
    return _ipv(target, probs, best_fit, used, truncated)


def build_ipv_set(attack: str, target, cfg=None) -> list:
    """One inversion per class, ordered by class index.

    ``attack`` is "wb" (target: model) or "bb" (target: model or
    QueryOracle). A model passed to "bb" is wrapped in a fresh oracle.
    """
    if attack == "wb":
        if not isinstance(target, ModelArtifact):
            raise TypeError("white-box inversion needs the model itself")
        return invert_whitebox(target, range(target.spec.n_classes), cfg)
    if attack == "bb":
        oracle = target if isinstance(target, QueryOracle) else QueryOracle(target)
        return [invert_blackbox(oracle, t, cfg) for t in range(oracle.n_classes)]
    raise ValueError(f"unknown attack {attack!r}, expected 'wb' or 'bb'")


# NumPy's ziggurat tables for the standard normal (random/src/distributions/
# ziggurat_constants.h): ki_double then wi_double, 256 little-endian
# 64-bit words each.
_ZIGGURAT = (
    "au8lgD3zDgAAAAAAAAAAAKjG+5i+CAwAQoG9+lSjDQDq7sF+9lEOAH730+lVsg4Aucp+gUvvDgCqRPoKRxkPABjL"
    "/2HtNw8AXCVhlUZPDwCWoxvkpWEPAKSWU3V6cA8AmkQo7LJ8DwDTV2MM8YYPAN4lg1emjw8A2tBNxySXDwAJ9dsH"
    "qZ0PAHT6gfVgow8A+Etb3m+oDwDcVNNg8awPAA+5GGf7sA8AxnRTjZ+0DwB3/mYj7LcPAA7loensug8A7QsEnau9"
    "DwBXbP9gMMAPAEiiNxCCwg8A0VvieqbEDwAx7nqXosYPAKSWKKl6yA8Ahd5LXjLKDwAaIwLpzMsPAMQ5+BJNzQ8A"
    "meyPTbXODwAwyR2/B9APAObE1k1G0Q8AUPTiqHLSDwAeyfBPjtMPAHi0kJma1A8AUw+SuJjVDwDsmY7AidYPADLo"
    "yKlu1w8A6Ah7VEjYDwCMLK2LF9kPANKtpwfd2Q8AjF4QcJnaDwAgLsBdTdsPAND8W1z52w8AfZq5653cDwCdchiB"
    "O90PAJAvNIjS3Q8AZJ82ZGPeDwBOUY1w7t4PAC60pgF03w8AQO2ZZfTfDwDyJLzkb+APAFiiJcLm4A8ATLgoPFnh"
    "DwCZP7yMx+EPAKoc2+kx4g8AkRvahZjiDwCGQbWP++IPAEqNVTNb4w8AKgDQmbfjDwB/rZ7pEOQPADR31EZn5A8A"
    "XAlM07rkDwAkldKuC+UPAHi8TvdZ5Q8AEhLkyKXlDwCJhhM+7+UPAHgQ2W825g8AeNXGdXvmDwCqER5mvuYPAPL0"
    "5VX/5g8AAqcAWT7nDwA5nj6Ce+cPAKJwcOO25w8AQ0J3jfDnDwCM8FOQKOgPADoXNfte6A8AZAiE3JPoDwC8zvBB"
    "x+gPAPZOfTj56A8AHZuHzCnpDwDqiNMJWekPAKKak/uG6Q8AZkhxrLPpDwDVtpQm3+kPAHzmq3MJ6g8ApGbxnDLq"
    "DwAslTKrWuoPABp01aaB6g8A8Bzel6fqDwAg2fOFzOoPADzmZXjw6g8AE+wvdhPrDwBKKv6FNesPALRiMa5W6w8A"
    "+oTi9HbrDwAUIOZflusPAHydz/S06w8A0En0uNLrDwA+Lm6x7+sPAOi9HuML7A8AFVqxUifsDwDTr50EQuwPAJbx"
    "Kf1b7A8A9O5sQHXsDwC0DFDSjewPABIfkbal7A8A/ifE8LzsDwAV+1SE0+wPALPIiHTp7A8At5F/xP7sDwAohTV3"
    "E+0PAANJhI8n7Q8ATC8kEDvtDwBuWK37Te0PAN3DmFRg7Q8A6E9BHXLtDwCCqeRXg+0PAMgspAaU7Q8ABLeFK6Tt"
    "DwC0anTIs+0PAFJmQd/C7Q8AUm6kcdHtDwDTijyB3+0PAICZkA/t7Q8AFNQPHvrtDwDESxKuBu4PAAZa2cAS7g8A"
    "4AaQVx7uDwAkZUtzKe4PALzkChU07g8APJu4PT7uDwD0ginuR+4PAIawHSdR7g8AQX9A6VnuDwAutCg1Yu4PAPGX"
    "WAtq7g8Aegc+bHHuDwCCezJYeO4PALoGe89+7g8AskpI0oTuDwBDY7Zgiu4PAFHIzHqP7g8A2iV+IJTuDwDqKahR"
    "mO4PAFxIEw6c7g8A9HNyVZ/uDwCuzGInou4PAKxCa4Ok7g8AcS38aKbuDwD61m7Xp+4PAAr6BM6o7g8AOzPoS6nu"
    "DwAQZClQqe4PAF4HwNmo7g8AVHaJ56fuDwAkHUh4pu4PAIOeooqk7g8A2uQiHaLuDwAkIDUun+4PAC6vJryb7g8A"
    "5PIkxZfuDwA6CjxHk+4PABZ1VUCO7g8Aepw2rojuDwD9PX+Ogu4PAIi4p9577g8A/zf/m3TuDwBevanDbO4PAH4A"
    "nlJk7g8AiCijRVvuDwC2V06ZUe4PAM8GAEpH7g8AUCzhUzzuDwDYKuCyMO4PAAWCrWIk7g8AWjy4XhfuDwBHFCqi"
    "Ce4PAMxJ4yf77Q8AbCF26uvtDwB+BCLk2+0PANM5zg7L7Q8A9CwEZLntDwDJOOncpu0PAI3pN3KT7Q8ANqg4HH/t"
    "DwArwLnSae0PAACuBo1T7Q8AIqTeQTztDwDYL2rnI+0PAETmL3MK7Q8ANP4H2u/sDwC4tw4Q1OwPALRulQi37A8A"
    "wTAStpjsDwB4qQ0KeewPAP4xD/VX7A8AYsmGZjXsDwA1s7RMEewPANBvjpTr6w8AkragKcTrDwDcDO71musPAEKF"
    "yeFv6w8Anh+t00LrDwBLLQuwE+sPAOkCGlni6g8AVyKZrq7qDwAm446NeOoPAOVz/c8/6g8A9tmNTATqDwA7Vi/W"
    "xekPAKRHqTuE6Q8AKEcdRz/pDwDWxXa99ugPAOboxF2q6A8A6rF64FnoDwBAqZD2BOgPAMAzgkir5w8ApWofdUzn"
    "DwACoioQ6OYPANirtqB95g8AfjA4nwzmDwBC9zhzlOUPAIByl3AU5Q8AWPQ21IvkDwA3Hv2/+eMPAJyx7jVd4w8A"
    "/uQvErXiDwBXVZkDAOIPABSDeII84Q8AsGfuxGjgDwCqcSuwgt8PAKr+fsWH3g8A/TvGCXXdDwATvynlRtwPAIIC"
    "Lvj42g8Adbqy4YXZDwAEz0jv5tcPAAtlva0T1g8AEvDiSQHUDwCsx7SnodEPAJ4fdgTizg8AshFe2KjLDwAiLc1u"
    "0scPAO0iHi8rww8AOrjAgWW9DwA0VADEBrYPAHQoKlhArA8AmEUBHpeeDwD8HaRI+okPACww8PfFZg8AShwzS1oa"
    "DwB52RV4O0nPPMb2/eMLjYs8tFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8vNBMLgwjmjz3YTgvTQCcPHRydFovrJ08"
    "w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI89ZFXwD88ozwvsaLBnr2jPFWb"
    "/43vOaQ8p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzECpjw9fKNh0mumPHAFAJKi0qY8pvhG09o2pzx3KrMQ"
    "rZinPEP1Rq1F+Kc8dwpDU8xVqDyadnueZLGoPJjPTqkuC6k86h4sgkdjqTxGxTiOybmpPCynpNzMDqo8Wc13bWdi"
    "qjwwFhBurbSqPJxsE22xBas8KXpCh4RVqzw6n1KONqSrPDKCvyrW8as8805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8"
    "SLeADp8erTwQH+QpnWetPMO4IwDOr608U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJrjwmYvCE5w2vPIj2"
    "2FT2Ua88rteHnm2VrzysLvp9U9ivPOw0QuBWDbA8mo859UAusDz8pRae6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyE"
    "fa+wPH/MS2Y9z7A8awgWS8jusDzuFZUyIA6xPL4PMQdHLbE8QZGOnz5MsTweIMS/CGuxPDTaeBqnibE8iG3uURuo"
    "sTzLKvj4ZsaxPC7U4JOL5LE8n6BAmYoCsjzpxsRyZSCyPB/D6X0dPrI8+2upDLRbsjx/0x1mKnmyPBvXGceBlrI8"
    "2i64YruzsjxTuOFi2NCyPI6py+jZ7bI810huDcEKszwwufThjiezPKFeJnBERLM81VLKuuJgszxqWAW+an2zPGSy"
    "sm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8dJ7gceUKtDxddKYt+ya0PKQwPOgAQ7Q8XcfKc/detDw2w2ae"
    "33q0PC+PSDK6lrQ8XUEC9oeytDzcEbOsSc60PAWmOBYA6rQ8YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndY"
    "tTx4X1UOAHS1PBSFDsaBj7U8WRskI/2qtTw9c33Rcsa1PNOML3vj4bU8OF6fyE/9tTzDH6NguBi2PKKwougdNLY8"
    "Cya3BIFPtjxylslX4mq2PDcxsYNChrY8sbJQKaKhtjy7Q7PoAb22PFLTKGFi2LY8VPhhMcTztjzraIv3Jw+3PMYU"
    "aVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8k726yE2YtzwJFIs8yrO3PPsi2/NMz7c8595zjNbqtzwf6oak"
    "Zwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdHX8OQuDxDwAWSjqy4PJwMoatlyLg8J2pEUUnk"
    "uDyPtXMpOgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5YlS5PO7VcLuOcLk8MSouicuMuTy/mT+TGam5PCzZ1Yx5xbk8"
    "EXRvK+zhuTxK0vomcv65PJI2+TkMG7o8W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI8Z8+Vqu6PM71"
    "Ws14yLo8NrOL4bTlujwaocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5BtVu7PCeJP7l9ebs8PPfl8WSXuzxuJYXb"
    "a7W7PKLALmuT07s8g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wIZmy8PBem6+Bmi7w8q6I2vY+q"
    "vDyQ1jvH4cm8PDfgaDBe6bw8bo+LMgYJvTwg7zcQ2yi9PEfGMxXeSL08I/HnlhBpvTyl+9f0c4m9PHBuIJkJqr08"
    "Dkn8+NLKvTw3LlKV0eu9PBzSSfsGDb489kbqxHQuvjyI0cGZHFC+PCX+ly8Acr48Cr8qSyGUvjwIb/fAgba+PDqn"
    "EHYj2b48qewBYQj8vjwhU8KKMh+/PG1Ntw+kQr88aAHJIF9mvzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjB"
    "Wfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTAPMf1Pk7aR8A8frOt9jtbwDxoJqcj0G7APBcuY4+YgsA8VKLoCJeW"
    "wDzEwHF1zarAPEjU7tE9v8A8MD2qNOrTwDyTZRHP1OjAPLafpu///cA8QXAgBG4TwTw1XbubISnBPG0JxGkdP8E8"
    "Oy5gSGRVwTzz7p07+WvBPGES0nTfgsE8rOtOVhqawTyOL393rbHBPJSmcamcycE8Oa7k++vhwTwB2eLCn/rBPIHM"
    "BJ28E8I87tNvekctwjwknKykRUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8l9uWMdTQwjz1eKmx"
    "De7CPO6uVtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8CkFWkrOKwzz6iK5wdazDPKYEF7Mnz8M8dfRgqtvy"
    "wzza5bmcpBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51zt8Q8AonNDSXjxDxBrOlTnxDFPEJ+OlIRQMU8"
    "G+RKqbFxxTzZjXGLwKXFPP7QOiSK3MU8TB6Gz2kWxjzqagB7zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMG"
    "CVaVecc8jM7W9C3Uxzw08ikFAznIPBR8qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmC"
    "tDvNPA=="
)
