import numpy as np
import pytest

from ulklab import param_attack as pa
from ulklab.data import (REST_CANDIDATE, UNLEARN_CANDIDATE, ClassSubset,
                         LabeledDataset, per_class_subsets)
from ulklab.models import (ParameterVector, clone_frozen_head_template,
                           head_vector)
from ulklab.training import TrainConfig, train

import brute


def _mk_aux(vectors, class_ids, forget=()):
    out = []
    counts = {}
    for vec, c in zip(vectors, class_ids):
        idx = counts.get(c, 0)
        counts[c] = idx + 1
        role = UNLEARN_CANDIDATE if c in forget else REST_CANDIDATE
        out.append(pa.AuxHead(ParameterVector(np.asarray(vec, dtype=np.float64),
                                              f"hand-{c}-{idx}"), c, idx, role))
    return out


def test_dot_features_self_and_orthogonal():
    w = ParameterVector(np.array([3.0, 4.0]), "target")
    aux = _mk_aux([[3.0, 4.0], [-4.0, 3.0]], [0, 1])
    feats = pa.dot_features(w, aux)
    assert feats.values[0] == pytest.approx(25.0)
    assert feats.values[1] == pytest.approx(0.0)
    assert list(feats.labels) == [0, 0]


def test_dot_features_cosine_flag():
    w = ParameterVector(np.array([2.0, 0.0]), "target")
    aux = _mk_aux([[5.0, 0.0], [0.0, 7.0]], [0, 1])
    feats = pa.dot_features(w, aux, cosine=True)
    assert feats.values[0] == pytest.approx(1.0)
    assert feats.values[1] == pytest.approx(0.0)


def test_diff_features_rows_and_labels():
    w = ParameterVector(np.array([1.0, 1.0, 1.0]), "target")
    aux = _mk_aux([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]], [0, 3], forget={3})
    feats = pa.diff_features(w, aux)
    assert feats.vectors.shape == (2, 3)
    assert np.allclose(feats.vectors[0], [0.0, 1.0, 2.0])
    assert np.allclose(feats.vectors[1], [-1.0, -1.0, -1.0])
    assert list(feats.labels) == [0, 1]


def test_youden_hand_case_perfect_separation():
    res = pa.youden_threshold([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
    assert res.j_stat == pytest.approx(1.0)
    assert res.threshold == pytest.approx(0.5)
    assert res.orientation == pa.ORIENT_LOW
    assert not res.degenerate
    assert list(res.predict([0.15, 0.85])) == [1, 0]


def test_youden_interleaved_matches_brute():
    scores = [0.1, 0.3, 0.5, 0.7, 0.2, 0.4, 0.6, 0.8]
    labels = [1, 1, 1, 1, 0, 0, 0, 0]
    res = pa.youden_threshold(scores, labels)
    best_j, argmax = brute.youden_all_cuts(scores, labels)
    assert 0 < res.j_stat < 1
    assert res.j_stat == pytest.approx(best_j)
    assert (res.threshold, res.orientation) in argmax


def test_youden_identical_scores_degenerate():
    res = pa.youden_threshold([2.0, 2.0, 2.0, 2.0], [0, 1, 0, 1])
    assert res.j_stat == 0.0
    assert res.degenerate


def test_youden_single_class_rejected():
    with pytest.raises(ValueError, match="both labels"):
        pa.youden_threshold([1.0, 2.0], [1, 1])


def test_youden_property_matches_exhaustive_oracle():
    rng = np.random.default_rng(501)
    for _ in range(200):
        n = int(rng.integers(4, 65))
        scores = np.round(rng.normal(size=n), 3)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        res = pa.youden_threshold(scores, labels)
        best_j, argmax = brute.youden_all_cuts(scores, labels)
        assert res.j_stat == pytest.approx(max(best_j, 0.0))
        if res.j_stat > 0:
            assert (res.threshold, res.orientation) in argmax
            # tie rule: the lowest threshold among optimal cuts
            assert res.threshold == pytest.approx(min(t for t, _ in argmax))


def test_youden_partition_invariant_under_monotone_maps():
    rng = np.random.default_rng(502)
    for fn in (np.exp, lambda v: 3 * v + 7, lambda v: v ** 3, np.arctan):
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        labels[:3], labels[-3:] = 1, 0
        base = pa.youden_threshold(scores, labels).predict(scores)
        mapped = pa.youden_threshold(fn(scores), labels).predict(fn(scores))
        assert np.array_equal(base, mapped)


def test_kmeans_symmetric_pairs():
    res = pa.kmeans_1d([0.0, 0.0, 10.0, 10.0])
    assert res.boundary == pytest.approx(5.0)
    assert list(res.labels) == [1, 1, 0, 0]
    assert res.centroids == (0.0, 10.0)
    assert res.sse == pytest.approx(0.0)


def test_kmeans_sse_scan_hand_case():
    res = pa.kmeans_1d([1.0, 2.0, 9.0])
    # split {1,2}|{9} has SSE 0.5; {1}|{2,9} has 24.5
    assert res.sse == pytest.approx(0.5)
    assert list(res.labels) == [1, 1, 0]


def test_kmeans_smaller_centroid_is_unlearn_side():
    res = pa.kmeans_1d([100.0, 101.0, 3.0, 2.0])
    assert list(res.labels) == [0, 0, 1, 1]


def test_kmeans_rejects_degenerate_input():
    with pytest.raises(ValueError, match="distinct"):
        pa.kmeans_1d([5.0, 5.0, 5.0])
    with pytest.raises(ValueError, match="at least two"):
        pa.kmeans_1d([5.0])


def test_kmeans_property_matches_exhaustive_oracle():
    rng = np.random.default_rng(503)
    for _ in range(200):
        n = int(rng.integers(2, 65))
        scores = np.round(rng.normal(size=n) * rng.uniform(0.5, 4), 3)
        if len(np.unique(scores)) < 2:
            continue
        res = pa.kmeans_1d(scores)
        best_sse, _ = brute.kmeans2_best_split(scores)
        assert res.sse == pytest.approx(best_sse, abs=1e-9)
        # cluster means recomputed from the returned labels must bracket
        # the boundary
        lo = scores[res.labels == 1]
        hi = scores[res.labels == 0]
        assert lo.mean() <= hi.mean()
        assert lo.max() <= res.boundary <= hi.min()


def test_stump_split_matches_brute_oracle():
    rng = np.random.default_rng(504)
    cases = []
    for _ in range(120):
        n = int(rng.integers(4, 51))
        d = int(rng.integers(1, 5))
        cases.append((np.round(rng.normal(size=(n, d)), 2),
                      rng.integers(0, 2, size=n)))
    # many ties: few distinct values, a constant column, a column copied
    # across the SPLIT_BLOCK boundary, n = 2
    for _ in range(60):
        n = int(rng.integers(2, 41))
        d = int(rng.choice([1, 3, 63, 64, 65, 130]))
        x = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        x[:, rng.integers(0, d)] = 1.5
        if d > pa.SPLIT_BLOCK:
            x[:, -1] = x[:, 2]
        cases.append((x, rng.integers(0, 2, size=n)))
    x = np.full((2, 130), 4.0)
    x[:, 100] = (1.0, 0.0)
    cases.append((x, np.array([1, 0])))
    for x, y in cases:
        if y.min() == y.max():
            y[0] = 1 - y[0]
        tree = pa.tree_fit(x, y, max_depth=1)
        best_gain, argmax = brute.stump_best_splits(x, y)
        if best_gain <= 1e-12:
            assert tree.root.is_leaf
        else:
            node = tree.root
            assert (node.feature, node.threshold) in argmax
            assert (node.feature, node.threshold) == min(argmax)


def test_tree_predict_matches_row_walk():
    rng = np.random.default_rng(508)
    x = np.round(rng.normal(size=(60, 5)), 1)
    y = (x[:, 0] + x[:, 3] > 0).astype(np.int64)
    tree = pa.tree_fit(x, y, max_depth=4)
    for row, got in zip(x, pa.tree_predict(tree, x)):
        node = tree.root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold \
                else node.right
        assert got == node.label


def test_tree_linearly_separable_is_stump():
    x = np.array([[0.1], [0.2], [0.3], [5.1], [5.2], [5.3]])
    y = np.array([0, 0, 0, 1, 1, 1])
    tree = pa.tree_fit(x, y, max_depth=4)
    assert not tree.root.is_leaf
    assert tree.root.left.is_leaf and tree.root.right.is_leaf
    assert np.array_equal(pa.tree_predict(tree, x), y)


def test_tree_pure_input_single_leaf():
    tree = pa.tree_fit(np.array([[1.0], [2.0], [3.0]]), np.array([1, 1, 1]))
    assert tree.root.is_leaf
    assert tree.root.label == 1


def test_tree_separable_within_depth_budget():
    # label 1 only in the (high, high) quadrant: two greedy cuts suffice
    rng = np.random.default_rng(505)
    centers = [(0, 0, 0), (0, 6, 0), (6, 0, 0), (6, 6, 1)]
    xs, ys = [], []
    for cx, cy, label in centers:
        pts = rng.normal(size=(12, 2)) * 0.3 + (cx, cy)
        xs.append(pts)
        ys.extend([label] * 12)
    x, y = np.concatenate(xs), np.array(ys)
    tree = pa.tree_fit(x, y, max_depth=4)
    assert np.array_equal(pa.tree_predict(tree, x), y)


def test_tree_thresholds_lie_between_observed_values():
    rng = np.random.default_rng(506)
    x = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, size=40)
    y[:2], y[-2:] = 0, 1
    tree = pa.tree_fit(x, y, max_depth=3)

    def walk(node):
        if node.is_leaf:
            return
        col = np.sort(x[:, node.feature])
        assert col[0] < node.threshold < col[-1]
        assert not np.any(col == node.threshold)
        walk(node.left)
        walk(node.right)

    walk(tree.root)


def test_tree_predict_shape_checks():
    tree = pa.tree_fit(np.array([[0.0], [1.0]]), np.array([0, 1]))
    with pytest.raises(ValueError, match="features"):
        pa.tree_predict(tree, np.zeros((2, 3)))
    assert pa.tree_predict(tree, np.array([0.2])) == 0
    with pytest.raises(ValueError, match="labels"):
        pa.tree_fit(np.array([[0.0], [1.0]]), np.array([0, 2]))


def test_infer_forgotten_majority_and_tie():
    class_ids = [0] * 5 + [1] * 5 + [2] * 4
    row_labels = [1, 1, 1, 1, 1] + [1, 1, 1, 0, 0] + [1, 1, 0, 0]
    got = pa.infer_forgotten(row_labels, class_ids)
    # class 0 unanimous, class 1 majority 3-of-5, class 2 exact tie
    assert got == frozenset({0, 1})


def test_train_aux_models_freeze_and_determinism(bundles):
    bundle = bundles(0)
    target = bundle.unlearned("rt").artifact
    subsets = per_class_subsets(bundle.dataset, k=10, m_models=1, seed=7)[:3]
    aux1 = pa.train_aux_models(target, subsets, pa.aux_config(7, epochs=4))
    aux2 = pa.train_aux_models(target, subsets, pa.aux_config(7, epochs=4))
    for a, b in zip(aux1, aux2):
        assert np.array_equal(a.vector.values, b.vector.values)
    # fresh heads differ from the target's
    assert not np.allclose(aux1[0].vector.values, head_vector(target).values)


def test_aux_model_features_bit_frozen(bundles):
    bundle = bundles(0)
    target = bundle.unlearned("rt").artifact
    sub = per_class_subsets(bundle.dataset, k=10, m_models=1, seed=7)[0]
    template = clone_frozen_head_template(target, 7, class_id=sub.class_id,
                                          index=0)
    y = np.full(len(sub.x), sub.class_id, dtype=np.int64)
    ds = LabeledDataset(sub.x, y, n_classes=10, split="aux", filtered=True)
    trained = train(template, ds, pa.aux_config(7, epochs=4)).model
    for i in range(target.feature_boundary):
        for key, val in target.params[i].items():
            assert trained.params[i][key].tobytes() == val.tobytes()


def test_aux_model_learns_its_class(bundles):
    bundle = bundles(0)
    target = bundle.unlearned("rt").artifact
    subsets = per_class_subsets(bundle.dataset, k=20, m_models=1, seed=11)
    aux_cfg = pa.aux_config(11)
    for sub in (subsets[2], subsets[8]):
        template = clone_frozen_head_template(target, 11,
                                              class_id=sub.class_id, index=0)
        y = np.full(len(sub.x), sub.class_id, dtype=np.int64)
        ds = LabeledDataset(sub.x, y, n_classes=10,
                            split="aux", filtered=True)
        trained = train(template, ds, aux_cfg).model
        mean_logits = trained.logits(sub.x).mean(axis=0)
        assert int(np.argmax(mean_logits)) == sub.class_id


def test_train_aux_models_rejects_empty_subset(bundles):
    bundle = bundles(0)
    target = bundle.unlearned("rt").artifact
    empty = ClassSubset(class_id=0, x=np.empty((0, 32)))
    with pytest.raises(ValueError, match="empty"):
        pa.train_aux_models(target, [empty], pa.aux_config(0))
    full = per_class_subsets(bundle.dataset, k=10, m_models=1, seed=7)[0]
    with pytest.raises(ValueError, match="empty"):
        pa.train_aux_models(target, [full, empty], pa.aux_config(0))
    with pytest.raises(ValueError, match="outside"):
        pa.train_aux_models(target, [ClassSubset(class_id=10, x=full.x)],
                            pa.aux_config(0))


@pytest.mark.parametrize("optimizer", ["sgd", "sgd-momentum"])
@pytest.mark.parametrize("k", [10, 20, 25])
def test_train_aux_models_matches_per_head_training(bundles, k, optimizer):
    # the lockstep heads must equal, bit for bit, each clone trained alone;
    # k = 25 at batch size 20 leaves a partial last batch
    bundle = bundles(0)
    target = bundle.unlearned("ng").artifact
    subsets = pa._candidate_subsets(bundle.dataset, bundle.task, k, 2, 3)
    subsets = subsets[1::2] + subsets[::2]
    cfg = TrainConfig(epochs=4, lr=0.1, batch_size=20, seed=3,
                      optimizer=optimizer)
    got = pa.train_aux_models(target, subsets, cfg)
    assert len(got) == len(subsets)
    seen: dict = {}
    for sub, head in zip(subsets, got):
        idx = seen.setdefault(sub.class_id, 0)
        seen[sub.class_id] += 1
        template = clone_frozen_head_template(target, cfg.seed,
                                              class_id=sub.class_id, index=idx)
        ds = LabeledDataset(sub.x, np.full(k, sub.class_id), n_classes=10,
                            split="aux", filtered=True)
        want = head_vector(train(template, ds, cfg).model)
        assert head.vector.values.tobytes() == want.values.tobytes()
        assert head.vector.source == want.source
        assert (head.class_id, head.aux_id, head.role) == \
            (sub.class_id, idx, sub.role)


def test_dot_separation_on_benchmark(bundles):
    # retrain-unlearned targets: the forgotten class's aux heads must sit
    # below every retained class's mean dot, for all five seeds
    for seed in range(5):
        bundle = bundles(seed)
        target = bundle.unlearned("rt").artifact
        subsets = pa._candidate_subsets(bundle.dataset, bundle.task,
                                        k=20, m_models=6, seed=seed)
        aux = pa.train_aux_models(target, subsets, pa.aux_config(seed))
        feats = pa.dot_features(head_vector(target), aux)
        unlearn_mean = feats.values[feats.labels == 1].mean()
        rest_mean = feats.values[feats.labels == 0].mean()
        assert unlearn_mean < rest_mean, f"seed {seed}"


def test_param_attacks_end_to_end(bundles):
    # m_models=30 keeps the unsupervised k-means route stable; the
    # supervised routes are already exact at a third of that
    bundle = bundles(0)
    target = bundle.unlearned("rt").artifact
    subsets = pa._candidate_subsets(bundle.dataset, bundle.task,
                                    k=20, m_models=30, seed=0)
    aux = pa.train_aux_models(target, subsets, pa.aux_config(0))
    youden = pa.param_dot_attack(target, bundle.dataset, bundle.task, 0,
                                 screen="youden", aux=aux)
    kmeans = pa.param_dot_attack(target, bundle.dataset, bundle.task, 0,
                                 screen="kmeans", aux=aux)
    tree = pa.param_diff_attack(target, bundle.dataset, bundle.task, 0,
                                aux=aux)
    assert youden.predicted == bundle.task.forget_classes
    assert kmeans.predicted == bundle.task.forget_classes
    assert tree.predicted == bundle.task.forget_classes
    with pytest.raises(ValueError, match="unknown screen"):
        pa.param_dot_attack(target, bundle.dataset, bundle.task, 0,
                            screen="median")
