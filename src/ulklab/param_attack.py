"""Parameter-space attacks on an unlearned classifier.

The attacker holds small label-pure sample sets for every class. For each
subset it trains an auxiliary model: the target's feature extractor is
frozen and a freshly initialized head is fit on the subset alone. Heads
trained on classes the target still knows end up aligned with the
target's own head; heads trained on a forgotten class have to relearn it
from scratch and land somewhere else. Two feature sets expose that gap:

- dot features: the scalar ``<w_target, w_aux>`` per auxiliary model,
  consistently smaller when the auxiliary class was forgotten;
- diff features: the vector ``w_aux - w_target``, classified coordinate-
  wise by a small decision tree.

Scalar features are screened by a Youden-index threshold or exact 1-D
k-means; per class, a majority vote over its auxiliary rows decides
whether the class lands in the predicted forgotten set.
"""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import rng as rngmod
from .data import (UNLEARN_CANDIDATE, ForgetTask, LabeledDataset,
                   per_class_subsets)
from .models import (ModelArtifact, ParameterVector, aux_init, head_vector,
                     source_id)
from .training import TrainConfig, frozen_features
from .training import train  # noqa: F401  (perfbench patches it by this name)

DEFAULT_SUBSET_SIZE = 20
DEFAULT_MODELS_PER_CLASS = 50
DEFAULT_TREE_DEPTH = 4
SPLIT_BLOCK = 32  # features per pass of the split search; bounds its memory
AUX_EPOCHS = 15
AUX_LR = 0.1

ORIENT_LOW = "low"
ORIENT_HIGH = "high"


@dataclass(frozen=True)
class AuxHead:
    """One trained auxiliary head and the subset it was fit on."""

    vector: ParameterVector
    class_id: int
    aux_id: int
    role: str


@dataclass(frozen=True)
class DotFeatureSet:
    values: np.ndarray
    labels: np.ndarray
    class_ids: np.ndarray
    aux_ids: np.ndarray

    def __post_init__(self):
        n = len(self.values)
        if not (len(self.labels) == len(self.class_ids) == len(self.aux_ids) == n):
            raise ValueError("feature columns must share one length")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 (rest) or 1 (unlearn)")

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class DiffFeatureSet:
    vectors: np.ndarray
    labels: np.ndarray
    class_ids: np.ndarray
    aux_ids: np.ndarray

    def __post_init__(self):
        if self.vectors.ndim != 2:
            raise ValueError("diff vectors must form a 2-D matrix")
        n = len(self.vectors)
        if not (len(self.labels) == len(self.class_ids) == len(self.aux_ids) == n):
            raise ValueError("feature columns must share one length")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 (rest) or 1 (unlearn)")

    def __len__(self):
        return len(self.vectors)


def train_aux_models(target: ModelArtifact, subsets: list,
                     cfg: TrainConfig) -> list:
    """Fit one frozen-feature auxiliary head per subset.

    Head inits are drawn from per-(class, index) streams of ``cfg.seed``
    (``models.aux_init``), so the batch is deterministic and no two clones
    share an init. The heads of one class whose subsets share a size train
    in lockstep as one stacked problem. Each head still takes exactly the
    steps that ``train(clone_frozen_head_template(...), ...)`` gives it
    alone, so the vectors match that path bit for bit. Output order
    follows ``subsets``. The head is the target's final (dense) layer.
    """
    n_classes = target.spec.n_classes
    counters: dict = defaultdict(int)
    groups: dict = defaultdict(list)
    for pos, sub in enumerate(subsets):
        if len(sub.x) == 0:
            raise ValueError(f"class {sub.class_id} subset is empty")
        if not 0 <= sub.class_id < n_classes:
            raise ValueError(f"labels outside [0,{n_classes})")
        groups[(sub.class_id, len(sub.x))].append((pos, counters[sub.class_id]))
        counters[sub.class_id] += 1
    out = [None] * len(subsets)
    boundary = target.feature_boundary
    head = target.layers[boundary]
    for (class_id, k), members in groups.items():
        m = len(members)
        feats = np.empty((m, k, head.in_dim))
        w = np.empty((m, head.in_dim, head.out_dim))
        b = np.empty((m, head.out_dim))
        sources = []
        for j, (pos, idx) in enumerate(members):
            feats[j] = frozen_features(
                target, np.ascontiguousarray(subsets[pos].x, dtype=np.float64),
                boundary)
            params, prov = aux_init(target.spec, cfg.seed, class_id, idx)
            w[j], b[j] = params[boundary]["W"], params[boundary]["b"]
            sources.append(source_id(prov))
        _train_heads(feats, w, b, class_id, cfg)
        vectors = np.concatenate([w.reshape(m, -1), b], axis=1)
        for (pos, idx), vec, source in zip(members, vectors, sources):
            out[pos] = AuxHead(ParameterVector(vec, source), class_id, idx,
                               subsets[pos].role)
    return out


def _train_heads(feats: np.ndarray, w: np.ndarray, b: np.ndarray,
                 class_id: int, cfg: TrainConfig) -> None:
    """Minibatch SGD on the mean CE of ``class_id`` for stacked dense heads.

    ``feats`` is (m, k, h); ``w`` (m, h, T) and ``b`` (m, T) are updated in
    place. Every head sees the batch order that ``train`` draws for a
    k-row dataset and the same per-slice arithmetic as
    ``autodiff.grad_params`` and ``autodiff.apply_update``.
    """
    k = feats.shape[1]
    gen = rngmod.stream(cfg.seed, rngmod.STREAM_BATCH)
    step = -1.0 * cfg.lr
    vel_w = vel_b = None
    for _ in range(cfg.epochs):
        order = gen.permutation(k)
        for lo in range(0, k, cfg.batch_size):
            x = feats[:, order[lo:lo + cfg.batch_size]]
            dz = ad.softmax(x @ w + b[:, None, :])
            dz[:, :, class_id] -= 1.0
            dz /= x.shape[1]
            g_w = np.swapaxes(x, 1, 2) @ dz
            g_b = dz.sum(axis=1)
            if cfg.optimizer == "sgd-momentum":
                if vel_w is None:
                    vel_w, vel_b = np.zeros_like(g_w), np.zeros_like(g_b)
                for vel, g in ((vel_w, g_w), (vel_b, g_b)):
                    vel *= cfg.momentum
                    vel += g
                    np.multiply(vel, step, out=g)
            else:
                g_w *= step
                g_b *= step
            w += g_w
            b += g_b


def aux_config(seed: int, epochs: int = AUX_EPOCHS, lr: float = AUX_LR,
               batch_size: int = DEFAULT_SUBSET_SIZE) -> TrainConfig:
    return TrainConfig(epochs=epochs, lr=lr, batch_size=batch_size, seed=seed)


def _label_of(head: AuxHead) -> int:
    return 1 if head.role == UNLEARN_CANDIDATE else 0


def dot_features(w_target: ParameterVector, aux: list,
                 cosine: bool = False) -> DotFeatureSet:
    """One scalar row per auxiliary head: its dot product with the target."""
    wt = w_target.values
    if cosine:
        wt = wt / np.linalg.norm(wt)
    values = []
    for head in aux:
        wa = head.vector.values
        if cosine:
            wa = wa / np.linalg.norm(wa)
        values.append(float(wt @ wa))
    return DotFeatureSet(np.asarray(values),
                         np.asarray([_label_of(h) for h in aux]),
                         np.asarray([h.class_id for h in aux]),
                         np.asarray([h.aux_id for h in aux]))


def diff_features(w_target: ParameterVector, aux: list) -> DiffFeatureSet:
    """One vector row per auxiliary head: ``w_aux - w_target``."""
    rows = np.stack([head.vector.values for head in aux])
    rows -= w_target.values
    return DiffFeatureSet(rows,
                          np.asarray([_label_of(h) for h in aux]),
                          np.asarray([h.class_id for h in aux]),
                          np.asarray([h.aux_id for h in aux]))


@dataclass(frozen=True)
class YoudenResult:
    """Best TPR - FPR cut over score midpoints.

    ``orientation`` is the side carrying label 1: "low" marks
    ``score <= threshold`` as 1, "high" marks ``score > threshold``.
    ``degenerate`` flags J == 0 (no cut separates better than chance).
    """

    threshold: float
    orientation: str
    j_stat: float
    degenerate: bool

    def predict(self, scores) -> np.ndarray:
        scores = np.asarray(scores, dtype=np.float64)
        if self.orientation == ORIENT_LOW:
            return (scores <= self.threshold).astype(np.int64)
        return (scores > self.threshold).astype(np.int64)


def youden_threshold(scores, labels) -> YoudenResult:
    """Threshold maximizing Youden's J over midpoints of sorted scores.

    Ties prefer the lower threshold, then the "low" orientation.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError("scores and labels must be equal-length 1-D")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("youden threshold needs both labels present")
    distinct = np.unique(scores)
    if len(distinct) == 1:
        return YoudenResult(float(distinct[0]), ORIENT_LOW, 0.0, True)
    cuts = (distinct[:-1] + distinct[1:]) / 2.0
    best = None
    for cut in cuts:
        low = scores <= cut
        tpr_low = (labels[low] == 1).sum() / n_pos
        fpr_low = (labels[low] == 0).sum() / n_neg
        for orient, j in ((ORIENT_LOW, tpr_low - fpr_low),
                          (ORIENT_HIGH, fpr_low - tpr_low)):
            if best is None or j > best.j_stat + 1e-12:
                best = YoudenResult(float(cut), orient, float(j), False)
    if best.j_stat <= 1e-12:
        return YoudenResult(best.threshold, best.orientation, 0.0, True)
    return best


@dataclass(frozen=True)
class KMeans1DResult:
    """Exact K=2 clustering of scalar scores.

    ``labels`` marks the smaller-centroid cluster with 1 (the unlearn
    side, matching the dot-product separation direction).
    """

    labels: np.ndarray
    boundary: float
    centroids: tuple
    sse: float


def kmeans_1d(scores) -> KMeans1DResult:
    """Optimal 2-cluster split of scalars by within-cluster SSE.

    The 1-D optimum is contiguous in sorted order, so scanning every
    split point is exact. SSE ties keep the leftmost split.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or len(scores) < 2:
        raise ValueError("kmeans_1d needs at least two scores")
    if len(np.unique(scores)) < 2:
        raise ValueError("kmeans_1d needs at least two distinct values")
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    n = len(s)
    csum = np.concatenate([[0.0], np.cumsum(s)])
    csq = np.concatenate([[0.0], np.cumsum(s * s)])

    def sse(lo, hi):
        total = csum[hi] - csum[lo]
        return (csq[hi] - csq[lo]) - total * total / (hi - lo)

    best_i, best_sse = 1, np.inf
    for i in range(1, n):
        cur = sse(0, i) + sse(i, n)
        if cur < best_sse - 1e-15:
            best_i, best_sse = i, cur
    left_mean = csum[best_i] / best_i
    right_mean = (csum[n] - csum[best_i]) / (n - best_i)
    boundary = (s[best_i - 1] + s[best_i]) / 2.0
    in_left = np.zeros(n, dtype=bool)
    in_left[order[:best_i]] = True
    labels = np.zeros(n, dtype=np.int64)
    if left_mean <= right_mean:
        labels[in_left] = 1
    else:
        labels[~in_left] = 1
    return KMeans1DResult(labels, float(boundary),
                          (float(left_mean), float(right_mean)),
                          float(best_sse))


@dataclass(frozen=True)
class TreeNode:
    """One node of a CART tree; leaves carry ``label``, splits carry both
    children."""

    label: int | None = None
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.label is not None


@dataclass(frozen=True)
class DecisionTree:
    root: TreeNode
    max_depth: int
    n_features: int


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def _best_split(x: np.ndarray, rows: np.ndarray, y: np.ndarray):
    """Exhaustive (feature, midpoint) search minimizing weighted Gini.

    Searches the node holding ``x[rows]`` with labels ``y``. CART's sorted
    prefix-count scan: per block of ``SPLIT_BLOCK`` features, sort the
    columns, count label-1 rows left of every cut with one ``cumsum`` and
    score all cuts between distinct neighbours at once. Cuts are visited
    in (feature, threshold) order and one replaces the best only when it
    gains more than 1e-12 over it, so ties prefer the lower feature index,
    then the lower threshold. Returns None when no split improves on the
    parent node.
    """
    n, d = len(rows), x.shape[1]
    parent = _gini(np.bincount(y, minlength=2))
    left = np.arange(1, n, dtype=np.float64)
    right = n - left
    total_ones = float(y.sum())
    floor, best = 1e-12, None
    for lo in range(0, d, SPLIT_BLOCK):
        cols = x[rows, lo:lo + SPLIT_BLOCK].T
        order = np.argsort(cols, axis=1, kind="stable")
        sc = np.take_along_axis(cols, order, axis=1)
        ones = np.cumsum(y[order[:, :-1]], axis=1, dtype=np.float64)
        gain = _weighted_gini(left, ones)
        gain += _weighted_gini(right, np.subtract(total_ones, ones, out=ones))
        gain /= n
        np.subtract(parent, gain, out=gain)
        gain[sc[:, 1:] == sc[:, :-1]] = -np.inf
        scan = gain.ravel()
        pos = 0
        while True:
            hits = np.flatnonzero(scan[pos:] > floor)
            if hits.size == 0:
                break
            pos += int(hits[0])
            floor = scan[pos] + 1e-12
            f, i = divmod(pos, n - 1)
            best = (lo + f, float((sc[f, i] + sc[f, i + 1]) / 2.0))
            pos += 1
    return best


def _weighted_gini(count: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """``count * _gini([count - ones, ones])``, elementwise over cuts."""
    p1 = ones / count
    p0 = count - ones
    p0 /= count
    p0 *= p0
    p1 *= p1
    p0 += p1
    np.subtract(1.0, p0, out=p0)
    p0 *= count
    return p0


def _grow(x: np.ndarray, rows: np.ndarray, y: np.ndarray, depth: int,
          max_depth: int) -> TreeNode:
    ones = int(y.sum())
    zeros = len(y) - ones
    if ones == 0 or zeros == 0 or depth == max_depth:
        # majority label; exact tie falls back to 0 (rest side)
        return TreeNode(label=1 if ones > zeros else 0)
    split = _best_split(x, rows, y)
    if split is None:
        return TreeNode(label=1 if ones > zeros else 0)
    f, thr = split
    mask = x[rows, f] <= thr
    return TreeNode(feature=f, threshold=thr,
                    left=_grow(x, rows[mask], y[mask], depth + 1, max_depth),
                    right=_grow(x, rows[~mask], y[~mask], depth + 1,
                                max_depth))


def tree_fit(features: DiffFeatureSet | np.ndarray, labels=None,
             max_depth: int = DEFAULT_TREE_DEPTH) -> DecisionTree:
    """CART with Gini impurity over raw difference vectors."""
    if isinstance(features, DiffFeatureSet):
        x, y = features.vectors, features.labels
    else:
        x, y = np.asarray(features, dtype=np.float64), np.asarray(labels)
    if x.ndim == 1:
        x = x[:, None]
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    y = y.astype(np.int64)
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 (rest) or 1 (unlearn)")
    return DecisionTree(_grow(x, np.arange(len(x)), y, 0, max_depth),
                        max_depth, x.shape[1])


def tree_predict(tree: DecisionTree, vectors) -> np.ndarray:
    x = np.asarray(vectors, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != tree.n_features:
        raise ValueError(f"expected {tree.n_features} features, got {x.shape[1]}")
    out = np.empty(len(x), dtype=np.int64)
    _route(tree.root, x, np.arange(len(x)), out)
    return out[0] if single else out


def _route(node: TreeNode, x: np.ndarray, rows: np.ndarray,
           out: np.ndarray) -> None:
    """Send ``rows`` of ``x`` down from ``node``; leaves write ``out``."""
    if node.is_leaf:
        out[rows] = node.label
        return
    go_left = x[rows, node.feature] <= node.threshold
    _route(node.left, x, rows[go_left], out)
    _route(node.right, x, rows[~go_left], out)


def infer_forgotten(row_labels, class_ids) -> frozenset:
    """Majority vote of row labels per class; exact ties stay excluded."""
    row_labels = np.asarray(row_labels)
    class_ids = np.asarray(class_ids)
    predicted = set()
    for c in np.unique(class_ids):
        votes = row_labels[class_ids == c]
        if (votes == 1).sum() * 2 > len(votes):
            predicted.add(int(c))
    return frozenset(predicted)


@dataclass(frozen=True)
class ParamAttackResult:
    predicted: frozenset
    features: DotFeatureSet | DiffFeatureSet
    detail: dict


def _candidate_subsets(dataset: LabeledDataset, task: ForgetTask,
                       k: int, m_models: int, seed: int) -> list:
    subsets = per_class_subsets(dataset, k, m_models, seed)
    return [s.as_candidate(UNLEARN_CANDIDATE)
            if s.class_id in task.forget_classes else s for s in subsets]


def _default_aux(target: ModelArtifact, dataset: LabeledDataset,
                 task: ForgetTask, seed: int, k: int, m_models: int) -> list:
    subsets = _candidate_subsets(dataset, task, k, m_models, seed)
    return train_aux_models(target, subsets, aux_config(seed))


def param_dot_attack(target: ModelArtifact, dataset: LabeledDataset,
                     task: ForgetTask, seed: int, screen: str = "youden",
                     k: int = DEFAULT_SUBSET_SIZE,
                     m_models: int = DEFAULT_MODELS_PER_CLASS,
                     cosine: bool = False,
                     aux: list | None = None) -> ParamAttackResult:
    """Dot-product feature attack, screened by Youden cut or 1-D k-means.

    The Youden route fits its cut on oracle-labeled rows (the evaluation
    protocol for separability); the k-means route never reads labels.
    Pass ``aux`` to reuse heads already trained for this target.
    """
    if screen not in ("youden", "kmeans"):
        raise ValueError(f"unknown screen {screen!r}")
    if aux is None:
        aux = _default_aux(target, dataset, task, seed, k, m_models)
    feats = dot_features(head_vector(target), aux, cosine=cosine)
    if screen == "youden":
        cut = youden_threshold(feats.values, feats.labels)
        row_pred = cut.predict(feats.values)
        detail = {"screen": "youden", "threshold": cut.threshold,
                  "orientation": cut.orientation, "j_stat": cut.j_stat,
                  "degenerate": cut.degenerate}
    else:
        km = kmeans_1d(feats.values)
        row_pred = km.labels
        detail = {"screen": "kmeans", "boundary": km.boundary,
                  "centroids": km.centroids}
    predicted = infer_forgotten(row_pred, feats.class_ids)
    return ParamAttackResult(predicted, feats, detail)


def param_diff_attack(target: ModelArtifact, dataset: LabeledDataset,
                      task: ForgetTask, seed: int,
                      max_depth: int = DEFAULT_TREE_DEPTH,
                      k: int = DEFAULT_SUBSET_SIZE,
                      m_models: int = DEFAULT_MODELS_PER_CLASS,
                      aux: list | None = None) -> ParamAttackResult:
    """Difference-vector attack classified by a depth-capped CART tree."""
    if aux is None:
        aux = _default_aux(target, dataset, task, seed, k, m_models)
    feats = diff_features(head_vector(target), aux)
    del aux  # only the features are read from here on; free the heads
    tree = tree_fit(feats, max_depth=max_depth)
    row_pred = tree_predict(tree, feats.vectors)
    train_acc = float((row_pred == feats.labels).mean())
    predicted = infer_forgotten(row_pred, feats.class_ids)
    return ParamAttackResult(predicted, feats,
                             {"screen": "tree", "max_depth": max_depth,
                              "train_accuracy": train_acc})
