"""Deciding the forgotten-class set from an inverted-prediction-vector set.

Two criteria, both reading only the IPV set:

- threshold: the peak probabilities of the T vectors form a population;
  classes whose peak falls more than ``thr_alpha`` standard deviations
  below the mean (strictly below ``theta = mu - thr_alpha * sigma``) are
  flagged. No forgetting signal means sigma is small and nothing clears
  the margin.
- entropy: each vector is sorted descending (making rows comparable
  regardless of which class is the peak), the rows are 2-clustered by
  minimum within-cluster SSE, and the cluster whose ORIGINAL vectors
  carry the higher average entropy is declared forgotten. Forgotten
  classes answer with flat, high-entropy vectors; retained ones answer
  near-one-hot.

Clustering is exact (full partition enumeration) up to
``EXACT_CLUSTER_LIMIT`` rows, which covers every realistic class count;
beyond that a deterministic farthest-pair Lloyd iteration takes over.
Ties and orderings are pinned so reports are bit-reproducible.
"""

from dataclasses import dataclass

import numpy as np

EXACT_CLUSTER_LIMIT = 16
LLOYD_MAX_ITER = 100
SSE_TIE_TOL = 1e-15


@dataclass(frozen=True)
class ThresholdReport:
    """Population statistics of the per-class peaks and the resulting cut."""

    mu_max: float
    sigma_max: float
    thr_alpha: float
    theta: float
    values: np.ndarray
    targets: tuple
    predicted: frozenset


@dataclass(frozen=True)
class EntropyReport:
    """2-clustering of sorted IPV rows and the higher-entropy verdict.

    ``assignments`` aligns with the input order; cluster 0 is the one
    containing row 0. ``degenerate`` marks inputs with no clustering
    signal (identical sorted rows, or exactly tied cluster entropies);
    degenerate reports predict nothing.
    """

    assignments: np.ndarray
    h_bar: tuple
    predicted: frozenset
    sorted_matrix: np.ndarray
    sse: float
    degenerate: bool


def entropy(p) -> float:
    """Natural-log Shannon entropy; 0 log 0 taken as 0."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("entropy expects a 1-D probability vector")
    if (p < 0).any():
        raise ValueError("probabilities cannot be negative")
    pos = p[p > 0]
    return float(-(pos * np.log(pos)).sum())


def threshold_screen(values, targets, thr_alpha: float = 1.0) -> ThresholdReport:
    """Flag targets whose value sits strictly below mu - thr_alpha*sigma."""
    values = np.asarray(values, dtype=np.float64)
    targets = tuple(int(t) for t in targets)
    if len(values) != len(targets):
        raise ValueError("need one value per target")
    if len(values) < 2:
        raise ValueError("screening needs at least two classes")
    if not np.isfinite(thr_alpha):
        raise ValueError(f"thr_alpha must be finite, got {thr_alpha}")
    mu = float(values.mean())
    sigma = float(values.std())
    theta = mu - thr_alpha * sigma
    predicted = frozenset(t for t, v in zip(targets, values) if v < theta)
    return ThresholdReport(mu, sigma, float(thr_alpha), theta, values,
                           targets, predicted)


def threshold_criterion(ipv_set, thr_alpha: float = 1.0,
                        use_target_prob: bool = False) -> ThresholdReport:
    """Threshold screen over an IPV set.

    Screens each vector's peak probability by default;
    ``use_target_prob`` screens P(inversion target) instead.
    """
    if use_target_prob:
        values = [float(v.probs[v.target]) for v in ipv_set]
    else:
        values = [v.max_prob for v in ipv_set]
    return threshold_screen(values, [v.target for v in ipv_set], thr_alpha)


def _partition_sse(rows: np.ndarray, mask: np.ndarray) -> float:
    total = 0.0
    for part in (rows[mask], rows[~mask]):
        total += float(((part - part.mean(axis=0)) ** 2).sum())
    return total


def _cluster_exact(rows: np.ndarray):
    """Minimum-SSE 2-partition by full enumeration; leftmost tie wins.

    Bit i of the partition index places row i in the first group; the
    last row stays in the second, so each unordered split appears once.
    """
    n = len(rows)
    codes = np.arange(1, 1 << (n - 1), dtype=np.int64)
    member = ((codes[:, None] >> np.arange(n)) & 1).astype(np.float64)
    counts = member.sum(axis=1)
    sq = (rows ** 2).sum(axis=1)
    sums = member @ rows
    sqs = member @ sq
    left = sqs - (sums ** 2).sum(axis=1) / counts
    rcounts = n - counts
    rsums = rows.sum(axis=0) - sums
    right = (sq.sum() - sqs) - (rsums ** 2).sum(axis=1) / rcounts
    sse_all = left + right
    best = sse_all.min()
    code = codes[np.flatnonzero(sse_all <= best + SSE_TIE_TOL)[0]]
    assign = 1 - ((code >> np.arange(n)) & 1).astype(np.int64)
    return assign, _partition_sse(rows, assign == 0)


def _cluster_lloyd(rows: np.ndarray):
    """Deterministic 2-means: farthest-pair init, bounded iteration."""
    diffs = rows[:, None, :] - rows[None, :, :]
    d2 = (diffs ** 2).sum(axis=2)
    i, j = np.unravel_index(int(np.argmax(d2)), d2.shape)
    centers = np.stack([rows[i], rows[j]])
    assign = None
    for _ in range(LLOYD_MAX_ITER):
        d0 = ((rows - centers[0]) ** 2).sum(axis=1)
        d1 = ((rows - centers[1]) ** 2).sum(axis=1)
        new_assign = (d1 < d0).astype(np.int64)
        if assign is not None and (new_assign == assign).all():
            break
        assign = new_assign
        for k in (0, 1):
            part = rows[assign == k]
            if len(part):
                centers[k] = part.mean(axis=0)
    if assign.min() == assign.max():
        # farthest pair collapsed into one cell; split it off alone
        assign = np.zeros(len(rows), dtype=np.int64)
        assign[j] = 1
    return assign, _partition_sse(rows, assign == 0)


def cluster_rows(rows):
    """2-cluster row vectors; returns (assignments, sse).

    Exact for small inputs, Lloyd beyond EXACT_CLUSTER_LIMIT. Cluster 0
    always contains row 0.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or len(rows) < 2:
        raise ValueError("clustering needs a 2-D matrix with >= 2 rows")
    if len(rows) <= EXACT_CLUSTER_LIMIT:
        assign, sse = _cluster_exact(rows)
    else:
        assign, sse = _cluster_lloyd(rows)
    if assign[0] == 1:
        assign = 1 - assign
    return assign, sse


def entropy_criterion(ipv_set, use_argmax_identity: bool = False
                      ) -> EntropyReport:
    """Entropy screen over an IPV set.

    Forgotten classes are reported by their inversion-target index.
    ``use_argmax_identity`` switches to naming each flagged vector by
    its own peak class instead, which can misattribute genuinely
    forgotten classes whose peak drifted elsewhere.
    """
    if len(ipv_set) < 2:
        raise ValueError("screening needs at least two classes")
    probs = np.stack([np.asarray(v.probs, dtype=np.float64) for v in ipv_set])
    sorted_matrix = -np.sort(-probs, axis=1)
    ents = np.array([entropy(p) for p in probs])
    if (sorted_matrix == sorted_matrix[0]).all():
        flat = np.zeros(len(ipv_set), dtype=np.int64)
        h = float(ents.mean())
        return EntropyReport(flat, (h, h), frozenset(), sorted_matrix,
                             0.0, True)
    assign, sse = cluster_rows(sorted_matrix)
    h0 = float(ents[assign == 0].mean())
    h1 = float(ents[assign == 1].mean())
    if h0 == h1:
        return EntropyReport(assign, (h0, h1), frozenset(), sorted_matrix,
                             sse, True)
    flagged = assign == (0 if h0 > h1 else 1)
    if use_argmax_identity:
        ids = [int(np.argmax(p)) for p in probs]
    else:
        ids = [int(v.target) for v in ipv_set]
    predicted = frozenset(ids[i] for i in np.flatnonzero(flagged))
    return EntropyReport(assign, (h0, h1), predicted, sorted_matrix,
                         sse, False)
