"""Parameter-space attacks on an unlearned classifier.

The attacker holds small label-pure sample sets for every class. For each
subset it trains an auxiliary model: the target's feature extractor is
frozen and a freshly initialized head is fit on the subset alone. Heads
trained on classes the target still knows end up aligned with the
target's own head; heads trained on a forgotten class have to relearn it
from scratch and land somewhere else. Two features expose that gap:

- dot features: the scalar ``<w_target, w_aux>`` per auxiliary model,
  consistently smaller when the auxiliary class was forgotten;
- diff features: the vector ``w_aux - w_target``, classified coordinate-
  wise by a small decision tree.

Scalar features are screened by a Youden-index threshold or exact 1-D
k-means; per class, a majority vote over its auxiliary rows decides
whether the class lands in the predicted forgotten set.

The heads travel as one array. ``draw_aux`` fixes every head's subset (row
indices into the dataset), init, class and 0/1 label (1 for a forgotten
class), in output order. ``train_aux_models`` returns one target's trained
heads as a (heads, head size) matrix beside the label and class columns.
Both attacks take those heads: ``dot_features`` turns them into a
(heads,) array and ``diff_features`` into a (heads, head size) matrix.
"""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import rng as rngmod
from .data import ForgetTask, LabeledDataset, per_class_rows
from .models import (ModelArtifact, ModelSpec, aux_init, head_vector,
                     layers_for_spec)
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
class AuxVectors:
    """One target's trained aux heads, one row each in the layout of
    ``head_vector`` and in their draw's output order, beside each head's
    0/1 label (1 for a forgotten class) and class."""

    vectors: np.ndarray
    labels: np.ndarray
    class_ids: np.ndarray

    def __post_init__(self):
        if self.vectors.ndim != 2:
            raise ValueError("head rows must form a 2-D matrix")
        if not len(self.labels) == len(self.class_ids) == len(self.vectors):
            raise ValueError("head columns must share one length")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 (rest) or 1 (unlearn)")

    def __len__(self):
        return len(self.vectors)


@dataclass(frozen=True)
class AuxGroup:
    """The heads of one class whose subsets share a size; they train in
    lockstep. Head ``j`` fits the rows ``rows[j]`` of its draw's ``x``,
    starts from ``init[j]`` (row-major W, then b, as ``head_vector``) and
    lands at row ``positions[j]`` of the output."""

    class_id: int
    rows: np.ndarray
    positions: np.ndarray
    init: np.ndarray


@dataclass(frozen=True)
class AuxDraw:
    """Everything of an aux-head set that no target changes: the subsets,
    as row indices into ``x``, each head's init from ``aux_init`` stacked
    per group, and the label and class columns in output order.
    Training copies the stacks, so one draw serves every target of
    ``spec``; it trains under ``aux_config(seed)``.
    """

    spec: ModelSpec
    seed: int
    x: np.ndarray
    groups: tuple
    labels: np.ndarray
    class_ids: np.ndarray


def _draw(spec: ModelSpec, seed: int, x: np.ndarray, heads: list,
          forget) -> AuxDraw:
    """Group ``heads``, one (class_id, rows of ``x``) per head in output
    order, by (class, size), and draw every head's init. A head is
    labelled 1 when its class is in ``forget``."""
    n_classes = spec.n_classes
    counters: dict = defaultdict(int)
    members: dict = defaultdict(list)
    for pos, (class_id, rows) in enumerate(heads):
        if len(rows) == 0:
            raise ValueError(f"class {class_id} subset is empty")
        if not 0 <= class_id < n_classes:
            raise ValueError(f"labels outside [0,{n_classes})")
        members[(class_id, len(rows))].append((pos, counters[class_id], rows))
        counters[class_id] += 1
    layers, boundary = layers_for_spec(spec)
    n_w = layers[boundary].in_dim * layers[boundary].out_dim
    groups = []
    for (class_id, _), group in members.items():
        positions, idxs, rows = zip(*group)
        init = np.empty((len(group), n_w + layers[boundary].out_dim))
        for j, idx in enumerate(idxs):
            params = aux_init(spec, seed, class_id, idx)
            init[j, :n_w] = params[boundary]["W"].ravel()
            init[j, n_w:] = params[boundary]["b"]
        groups.append(AuxGroup(class_id, np.stack(rows), np.array(positions),
                               init))
    class_ids = np.array([c for c, _ in heads], dtype=np.int64)
    return AuxDraw(spec, seed, x, tuple(groups),
                   np.isin(class_ids, list(forget)).astype(np.int64),
                   class_ids)


def draw_aux(spec: ModelSpec, dataset: LabeledDataset, task: ForgetTask,
             seed: int, k: int = DEFAULT_SUBSET_SIZE,
             m_models: int = DEFAULT_MODELS_PER_CLASS) -> AuxDraw:
    """The draw behind the default aux-head set of every target of one
    (spec, dataset, task, seed): ``per_class_rows`` subsets, labelled 1
    for the forgotten classes."""
    return _draw(spec, seed, dataset.x,
                 per_class_rows(dataset, k, m_models, seed),
                 task.forget_classes)


def train_aux_models(target: ModelArtifact, draw: AuxDraw) -> AuxVectors:
    """Fit one frozen-feature auxiliary head per head of ``draw``, under
    ``aux_config(draw.seed)``.

    Head inits come from per-(class, index) streams (``models.aux_init``),
    so the batch is deterministic and no two clones share an init. The
    heads of one group train in lockstep as one stacked problem, on a copy
    of the group's inits. Each head still takes exactly the steps that
    ``train(clone_frozen_head_template(...), ...)`` gives it alone, so the
    rows match that path bit for bit. The head is the target's final
    (dense) layer.
    """
    if draw.spec != target.spec:
        raise ValueError("aux draw was made for another model spec")
    cfg = aux_config(draw.seed)
    boundary = target.feature_boundary
    head = target.layers[boundary]
    n_w = head.in_dim * head.out_dim
    vectors = np.empty((len(draw.labels), n_w + head.out_dim))
    for g in draw.groups:
        block = g.init.copy()
        _train_heads(_group_features(target, draw.x[g.rows], boundary),
                     block[:, :n_w].reshape(-1, head.in_dim, head.out_dim),
                     block[:, n_w:], g.class_id, cfg)
        vectors[g.positions] = block
    return AuxVectors(vectors, draw.labels, draw.class_ids)


def _group_features(target: ModelArtifact, x: np.ndarray,
                    boundary: int) -> np.ndarray:
    """Frozen features of a group's (m, k, ...) samples. Dense layers take
    the stack in one pass, each subset its own product (bit-equal to that
    subset alone); conv layers take one image batch at a time."""
    if x.ndim == 3:
        return frozen_features(target, x, boundary)
    return np.stack([frozen_features(target, s, boundary) for s in x])


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
    for _ in range(cfg.epochs):
        order = gen.permutation(k)
        for lo in range(0, k, cfg.batch_size):
            x = feats[:, order[lo:lo + cfg.batch_size]]
            dz = ad.softmax(x @ w + b[:, None, :])
            dz[:, :, class_id] -= 1.0
            dz /= x.shape[1]
            g_w = np.swapaxes(x, 1, 2) @ dz
            g_b = dz.sum(axis=1)
            g_w *= step
            g_b *= step
            w += g_w
            b += g_b


def aux_config(seed: int) -> TrainConfig:
    return TrainConfig(epochs=AUX_EPOCHS, lr=AUX_LR,
                       batch_size=DEFAULT_SUBSET_SIZE, seed=seed)


def dot_features(w_target: np.ndarray, aux: AuxVectors) -> np.ndarray:
    """The (heads,) dot products of each auxiliary head with the target.
    The stacked product takes each row on its own, bit-equal to
    ``w_target @ v`` per head; ``vectors @ w_target`` sums in another
    order."""
    return np.matmul(aux.vectors[:, None, :], w_target)[:, 0]


def diff_features(w_target: np.ndarray, aux: AuxVectors) -> np.ndarray:
    """The (heads, head size) matrix of ``w_aux - w_target`` rows."""
    return aux.vectors - w_target


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

    Ties prefer the lower threshold, then the "low" orientation. One sort
    per label counts its scores at or below every cut. The (cut,
    orientation) pairs are then scanned in order, and one replaces the best
    only when it gains more than 1e-12 over it.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError("scores and labels must be equal-length 1-D")
    pos = np.sort(scores[labels == 1])
    neg = np.sort(scores[labels == 0])
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("youden threshold needs both labels present")
    distinct = np.unique(scores)
    if len(distinct) == 1:
        return YoudenResult(float(distinct[0]), ORIENT_LOW, 0.0, True)
    cuts = (distinct[:-1] + distinct[1:]) / 2.0
    tpr = np.searchsorted(pos, cuts, side="right") / len(pos)
    fpr = np.searchsorted(neg, cuts, side="right") / len(neg)
    j = np.empty(2 * len(cuts))
    j[0::2] = tpr - fpr
    j[1::2] = fpr - tpr
    best, _ = _scan_above(j, -np.inf)  # j is finite, so j[0] opens the scan
    cut, orient = float(cuts[best // 2]), (ORIENT_LOW, ORIENT_HIGH)[best % 2]
    if j[best] <= 1e-12:
        return YoudenResult(cut, orient, 0.0, True)
    return YoudenResult(cut, orient, float(j[best]), False)


def _scan_above(scan: np.ndarray, floor: float) -> tuple:
    """Visit ``scan`` in order; an entry above ``floor`` becomes the best,
    and the floor becomes that entry + 1e-12. Returns the last best's index
    (None when no entry rose above the floor) and the final floor."""
    best, pos = None, 0
    while True:
        hits = np.flatnonzero(scan[pos:] > floor)
        if hits.size == 0:
            return best, floor
        best = pos + int(hits[0])
        floor = scan[best] + 1e-12
        pos = best + 1


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
        hit, floor = _scan_above(gain.ravel(), floor)
        if hit is not None:
            f, i = divmod(hit, n - 1)
            best = (lo + f, float((sc[f, i] + sc[f, i + 1]) / 2.0))
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


def tree_fit(features, labels, max_depth=DEFAULT_TREE_DEPTH) -> DecisionTree:
    """CART with Gini impurity over the rows of a 2-D matrix, 0/1 labels."""
    x, y = np.asarray(features, dtype=np.float64), np.asarray(labels)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError(f"features must form a 2-D matrix with one row per "
                         f"label, got shape {x.shape} for {len(y)} labels")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    y = y.astype(np.int64)
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 (rest) or 1 (unlearn)")
    return DecisionTree(_grow(x, np.arange(len(x)), y, 0, max_depth),
                        max_depth, x.shape[1])


def tree_predict(tree: DecisionTree, vectors) -> np.ndarray:
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != tree.n_features:
        raise ValueError(f"expected rows of {tree.n_features} features, "
                         f"got shape {x.shape}")
    out = np.empty(len(x), dtype=np.int64)
    _route(tree.root, x, np.arange(len(x)), out)
    return out


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
    detail: dict


def param_dot_attack(target: ModelArtifact, aux: AuxVectors,
                     screen: str = "youden") -> ParamAttackResult:
    """Dot-product feature attack on ``target`` with its trained aux heads,
    screened by Youden cut or 1-D k-means.

    The Youden route fits its cut on oracle-labeled rows (the evaluation
    protocol for separability); the k-means route never reads labels.
    """
    if screen not in ("youden", "kmeans"):
        raise ValueError(f"unknown screen {screen!r}")
    values = dot_features(head_vector(target), aux)
    if screen == "youden":
        cut = youden_threshold(values, aux.labels)
        row_pred = cut.predict(values)
        detail = {"screen": "youden", "threshold": cut.threshold,
                  "orientation": cut.orientation, "j_stat": cut.j_stat,
                  "degenerate": cut.degenerate}
    else:
        km = kmeans_1d(values)
        row_pred = km.labels
        detail = {"screen": "kmeans", "boundary": km.boundary,
                  "centroids": km.centroids}
    return ParamAttackResult(infer_forgotten(row_pred, aux.class_ids), detail)


def param_diff_attack(target: ModelArtifact, aux: AuxVectors,
                      max_depth: int = DEFAULT_TREE_DEPTH
                      ) -> ParamAttackResult:
    """Difference-vector attack on ``target`` with its trained aux heads,
    classified by a depth-capped CART tree."""
    labels, class_ids = aux.labels, aux.class_ids
    diffs = diff_features(head_vector(target), aux)
    del aux  # only the differences are read from here on; free the heads
    tree = tree_fit(diffs, labels, max_depth)
    row_pred = tree_predict(tree, diffs)
    train_acc = float((row_pred == labels).mean())
    return ParamAttackResult(infer_forgotten(row_pred, class_ids),
                             {"screen": "tree", "max_depth": max_depth,
                              "train_accuracy": train_acc})
