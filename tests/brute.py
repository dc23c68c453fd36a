"""Exhaustive reference implementations the fast code must match.

Everything here trades speed for obviousness: direct loops over every
candidate cut, split, or partition, with statistics computed from
definitions rather than running sums.
"""

import numpy as np


def youden_all_cuts(scores, labels):
    """All (threshold, orientation) pairs achieving the maximum J.

    Returns (best_j, set of (threshold, orientation)). Orientation "low"
    predicts 1 for score <= threshold, "high" for score > threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    distinct = np.unique(scores)
    cuts = [(a + b) / 2.0 for a, b in zip(distinct[:-1], distinct[1:])]
    if not cuts:
        return 0.0, {(float(distinct[0]), "low")}
    best_j, argmax = -np.inf, set()
    for cut in cuts:
        tpr = (pos <= cut).mean()
        fpr = (neg <= cut).mean()
        for orient, j in (("low", tpr - fpr), ("high", fpr - tpr)):
            if j > best_j + 1e-12:
                best_j, argmax = j, {(float(cut), orient)}
            elif abs(j - best_j) <= 1e-12:
                argmax.add((float(cut), orient))
    return best_j, argmax


def kmeans2_best_split(scores):
    """Minimum within-cluster SSE over every contiguous sorted 2-split.

    Returns (best_sse, leftmost best split index i) where the clusters
    are sorted[:i] and sorted[i:]. SSE computed from np.var directly.
    """
    s = np.sort(np.asarray(scores, dtype=np.float64), kind="stable")
    n = len(s)
    best_sse, best_i = np.inf, None
    for i in range(1, n):
        sse = np.var(s[:i]) * i + np.var(s[i:]) * (n - i)
        if sse < best_sse - 1e-15:
            best_sse, best_i = sse, i
    return best_sse, best_i


def gini(y):
    y = np.asarray(y)
    if len(y) == 0:
        return 0.0
    p1 = (y == 1).mean()
    return 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)


def stump_best_splits(x, y):
    """All (feature, threshold) minimizing weighted Gini, by direct scan.

    Returns (best_gain, set of (feature, threshold)); empty set when no
    split improves the parent impurity.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    parent = gini(y)
    best_gain, argmax = 0.0, set()
    for f in range(d):
        vals = np.unique(x[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (a + b) / 2.0
            mask = x[:, f] <= thr
            w = (mask.sum() * gini(y[mask]) + (~mask).sum() * gini(y[~mask])) / n
            gain = parent - w
            if gain > best_gain + 1e-12:
                best_gain, argmax = gain, {(f, float(thr))}
            elif gain > 1e-12 and abs(gain - best_gain) <= 1e-12:
                argmax.add((f, float(thr)))
    return best_gain, argmax


def all_two_partitions(n):
    """Every split of range(n) into two non-empty unordered groups."""
    for bits in range(1, 2 ** (n - 1)):
        left = [i for i in range(n) if bits & (1 << i)]
        right = [i for i in range(n) if not bits & (1 << i)]
        yield left, right


def best_two_partition_sse(rows):
    """Exhaustive minimum-SSE 2-partition of vectors (or scalars)."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[:, None]
    best, best_parts = np.inf, None
    for left, right in all_two_partitions(len(rows)):
        sse = 0.0
        for part in (left, right):
            sub = rows[part]
            sse += ((sub - sub.mean(axis=0)) ** 2).sum()
        if sse < best - 1e-15:
            best, best_parts = sse, (frozenset(left), frozenset(right))
    return best, best_parts


# ---------------------------------------------------------------------------
# inversion, one restart, one step, one child and one query at a time


def _lone_tv(x):
    return (np.diff(x, axis=0) ** 2).sum() + (np.diff(x, axis=1) ** 2).sum()


def _lone_tv_grad(x):
    dh, dw, dx = np.diff(x, axis=0), np.diff(x, axis=1), np.zeros_like(x)
    dx[1:, :, :] += 2.0 * dh
    dx[:-1, :, :] -= 2.0 * dh
    dx[:, 1:, :] += 2.0 * dw
    dx[:, :-1, :] -= 2.0 * dw
    return dx


def lone_proba(model, x):
    """Softmax output for one sample, run as a batch of one (x @ W)."""
    from ulklab import autodiff as ad
    return ad.softmax(ad.forward(model.layers, model.params, x[None]).data)[0]


def lone_inversion_loss(model, x, target, lam_l2, lam_tv):
    """CE(M(x), target) + lam_l2*||x||^2 + lam_tv*TV(x) and its input
    gradient for one sample, through the batch path on a batch of one.
    A non-finite x raises forward's ValueError."""
    from ulklab import autodiff as ad
    out = ad.forward(model.layers, model.params, x[None])
    loss = ad.softmax_cross_entropy(out, np.array([target]), "sum")
    dz = ad.softmax(out.data)
    dz[0, target] -= 1.0
    grad = out.backward(dz)[0]
    if lam_l2 > 0.0:
        loss = loss + (x ** 2).sum() * lam_l2
        grad = grad + 2.0 * x * lam_l2
    if lam_tv > 0.0:
        loss = loss + _lone_tv(x) * lam_tv
        grad = grad + _lone_tv_grad(x) * lam_tv
    return float(loss), grad


def whitebox_sequential(model, target, cfg):
    """Best-of-K gradient inversion of one class, restart after restart.

    A restart stops at its first non-finite loss and is dropped; the
    lowest-CE survivor wins, the first one on ties. Returns (probs,
    fitness); raises AllInitsDiverged when no restart survives.
    """
    from ulklab import inversion as inv
    from ulklab import rng as rngmod
    gen = rngmod.stream(cfg.seed, rngmod.STREAM_INVERT_WB, target)
    best_ce, best_probs = np.inf, None
    for _ in range(cfg.k_inits):
        x = gen.standard_normal(model.spec.input_shape)
        if cfg.box is not None:
            x = np.clip(x, *cfg.box)
        converged = True
        for _ in range(cfg.iterations):
            value, grad = lone_inversion_loss(model, x, target, cfg.lam_l2, cfg.lam_tv)
            if not np.isfinite(value):
                converged = False
                break
            x = x - cfg.lr * grad
            if cfg.box is not None:
                x = np.clip(x, *cfg.box)
        if converged:
            value, _ = lone_inversion_loss(model, x, target, cfg.lam_l2, cfg.lam_tv)
            converged = bool(np.isfinite(value))
        if not converged:
            continue
        probs = lone_proba(model, x)
        ce = -np.log(max(float(probs[target]), 1e-300))
        if ce < best_ce:
            best_ce, best_probs = ce, probs
    if best_probs is None:
        raise inv.AllInitsDiverged(
            f"all {cfg.k_inits} inits diverged for class {target}")
    return best_probs, float(best_probs[target])


class _BudgetSpent(Exception):
    pass


def blackbox_sequential(oracle, target, cfg, shape, history=None):
    """The genetic search child by child, one oracle query per fitness.

    Parents come from ``Generator.choice`` with the floored fitness as
    weights, crossover and mutation act on one child at a time, and a
    budget stops the search at the first query it does not cover.
    Returns (probs, fitness, queries, truncated).
    """
    import math

    from ulklab import inversion as inv
    from ulklab import rng as rngmod
    dim = int(np.prod(shape))
    gen = rngmod.stream(cfg.seed, rngmod.STREAM_INVERT_BB, target)
    budget = None if cfg.query_budget is None else cfg.query_budget - 1
    used = 0

    def evaluate(x):
        nonlocal used
        if budget is not None and used >= budget:
            raise _BudgetSpent
        used += 1
        value = float(oracle(x.reshape(shape))[target])
        if not math.isfinite(value):
            raise inv.InversionError(
                f"oracle returned fitness {value} for class {target}")
        return value

    population = gen.uniform(0.0, 1.0, size=(cfg.population, dim))
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
            sigma_g = cfg.sigma0 * cfg.decay ** g
            elite_idx = np.argsort(-fitness, kind="stable")[:cfg.elite]
            floored = np.maximum(fitness, 1e-12)
            weights = floored / floored.sum()
            children = np.empty((cfg.population - cfg.elite, dim))
            child_fit = np.empty(cfg.population - cfg.elite)
            for i in range(len(children)):
                i1, i2 = gen.choice(cfg.population, size=2, p=weights)
                cut = int(gen.integers(1, dim))
                child = np.concatenate([population[i1][:cut], population[i2][cut:]])
                if cfg.mutation_rate is None:
                    j = int(gen.integers(dim))
                    child[j] += sigma_g * gen.standard_normal()
                else:
                    mask = gen.uniform(size=dim) < cfg.mutation_rate
                    child += sigma_g * gen.standard_normal(dim) * mask
                children[i] = np.clip(child, 0.0, 1.0)
                child_fit[i] = evaluate(children[i])
                if child_fit[i] > best_fit:
                    best_fit, best_x = child_fit[i], children[i].copy()
            population = np.concatenate([population[elite_idx], children])
            fitness = np.concatenate([fitness[elite_idx], child_fit])
            if history is not None:
                history.append(float(fitness.max()))
    except _BudgetSpent:
        truncated = True
    probs = oracle(best_x.reshape(shape))
    used += 1
    if best_fit == -np.inf:
        best_fit = float(probs[target])
    return probs, float(best_fit), used, truncated


def ledger_sums_sequential(deltas, flags):
    """(sum of every batch's deltas, sum of the flagged batches' deltas).

    ``deltas`` holds one per-layer {key: array} list per batch, frozen
    layers as empty dicts. Each sum starts from zeros and adds the batches
    in order, the sequence a ledger that stores every delta would run.
    No batches give two empty sums.
    """
    if not deltas:
        return [], []
    sums = []
    for only_flagged in (False, True):
        total = [{k: np.zeros_like(v) for k, v in layer.items()} for layer in deltas[0]]
        for batch, flagged in zip(deltas, flags):
            if only_flagged and not flagged:
                continue
            for layer_total, layer_delta in zip(total, batch):
                for k, v in layer_delta.items():
                    layer_total[k] += v
        sums.append(total)
    return sums[0], sums[1]
