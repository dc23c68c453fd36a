import hashlib
from dataclasses import replace

import numpy as np
import pytest

from ulklab import param_attack as pa
from ulklab.data import LabeledDataset, per_class_rows
from ulklab.models import (build, clone_frozen_head_template, cnn_spec,
                           head_vector)
from ulklab.training import train

import brute


def _mk_aux(vectors, class_ids, forget=()):
    aux_ids = [list(class_ids[:i]).count(c) for i, c in enumerate(class_ids)]
    return pa.AuxVectors(np.asarray(vectors, dtype=np.float64),
                         np.isin(class_ids, list(forget)).astype(np.int64),
                         np.asarray(class_ids), np.asarray(aux_ids))


def test_dot_features_self_and_orthogonal():
    w = np.array([3.0, 4.0])
    aux = _mk_aux([[3.0, 4.0], [-4.0, 3.0]], [0, 1])
    feats = pa.dot_features(w, aux)
    assert feats.values[0] == pytest.approx(25.0)
    assert feats.values[1] == pytest.approx(0.0)
    assert list(feats.labels) == [0, 0]


@pytest.mark.parametrize("kind", ["dot", "diff", "aux"])
def test_feature_sets_reject_misaligned_columns_and_bad_labels(kind):
    rows = np.zeros(3) if kind == "dot" else np.zeros((3, 2))
    make = {"dot": pa.DotFeatureSet, "diff": pa.DiffFeatureSet,
            "aux": pa.AuxVectors}[kind]
    ids = np.arange(3)
    assert len(make(rows, np.array([0, 1, 0]), ids, ids)) == 3
    with pytest.raises(ValueError, match="share one length"):
        make(rows, np.array([0, 1]), ids, ids)
    with pytest.raises(ValueError, match="share one length"):
        make(rows, np.array([0, 1, 0]), ids, ids[:2])
    with pytest.raises(ValueError, match="0 \\(rest\\) or 1"):
        make(rows, np.array([0, 2, 0]), ids, ids)
    if kind != "dot":
        with pytest.raises(ValueError, match="2-D"):
            make(np.zeros(3), np.array([0, 1, 0]), ids, ids)


def test_diff_features_rows_and_labels():
    w = np.array([1.0, 1.0, 1.0])
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


def _youden_tuple(res):
    return (res.threshold, res.orientation, res.j_stat, res.degenerate)


def test_youden_matches_sequential_loop_on_ties_and_constants():
    # few distinct values give many tied J; each case must equal the loop
    # bit for bit and reach the exhaustive optimum
    rng = np.random.default_rng(503)
    cases = [([2.0] * 5, [0, 1, 1, 0, 1]),
             ([1.0, 1.0, 2.0, 2.0], [1, 0, 1, 0]),
             ([0.0, 1.0, 0.0, 1.0, 2.0, 2.0], [1, 1, 0, 0, 1, 0])]
    for _ in range(300):
        n = int(rng.integers(2, 80))
        scores = rng.integers(0, int(rng.integers(1, 6)), size=n) * 0.25
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[-1] = 0, 1
        cases.append((scores, labels))
    for scores, labels in cases:
        got = _youden_tuple(pa.youden_threshold(scores, labels))
        want = brute.youden_sequential(scores, labels)
        assert got == want
        assert type(got[0]) is type(got[2]) is float
        best_j, argmax = brute.youden_all_cuts(scores, labels)
        assert got[2] == pytest.approx(max(best_j, 0.0))
        if not got[3]:
            assert got[:2] in argmax


def test_youden_matches_sequential_loop_on_infinite_and_nan_scores():
    rng = np.random.default_rng(504)
    for _ in range(100):
        scores = rng.choice([-np.inf, -1.0, 0.0, 1.0, np.inf, np.nan], size=12)
        labels = rng.integers(0, 2, size=12)
        labels[0], labels[-1] = 0, 1
        with np.errstate(invalid="ignore"):
            got = _youden_tuple(pa.youden_threshold(scores, labels))
            want = brute.youden_sequential(scores, labels)
        assert str(got) == str(want)


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
    with pytest.raises(ValueError, match="features"):
        pa.tree_predict(tree, np.array([0.2]))
    with pytest.raises(ValueError, match="labels"):
        pa.tree_fit(np.array([[0.0], [1.0]]), np.array([0, 2]))


def test_infer_forgotten_majority_and_tie():
    class_ids = [0] * 5 + [1] * 5 + [2] * 4
    row_labels = [1, 1, 1, 1, 1] + [1, 1, 1, 0, 0] + [1, 1, 0, 0]
    got = pa.infer_forgotten(row_labels, class_ids)
    # class 0 unanimous, class 1 majority 3-of-5, class 2 exact tie
    assert got == frozenset({0, 1})


def _rows_draw(bundle, k, m_models, seed):
    return pa.draw_aux(bundle.spec, bundle.dataset, bundle.task, seed, k=k,
                       m_models=m_models)


def test_train_aux_models_freeze_and_determinism(bundles):
    bundle = bundles(0)
    target = bundle.unlearned("rt").artifact
    heads = per_class_rows(bundle.dataset, k=10, m_models=1, seed=7)[:3]
    draw = pa._draw(bundle.spec, 7, bundle.dataset.x, heads, ())
    aux1 = pa.train_aux_models(target, draw)
    aux2 = pa.train_aux_models(target, draw)
    assert aux1.vectors.tobytes() == aux2.vectors.tobytes()
    # fresh heads differ from the target's
    assert not np.allclose(aux1.vectors[0], head_vector(target))


def test_aux_model_features_bit_frozen(bundles):
    bundle = bundles(0)
    target = bundle.unlearned("rt").artifact
    class_id, rows = per_class_rows(bundle.dataset, k=10, m_models=1, seed=7)[0]
    template = clone_frozen_head_template(target, 7, class_id=class_id,
                                          index=0)
    y = np.full(len(rows), class_id, dtype=np.int64)
    ds = LabeledDataset(bundle.dataset.x[rows], y, n_classes=10, split="aux",
                        filtered=True)
    trained = train(template, ds, replace(pa.aux_config(7), epochs=4)).model
    for i in range(target.feature_boundary):
        for key, val in target.params[i].items():
            assert trained.params[i][key].tobytes() == val.tobytes()


def test_aux_model_learns_its_class(bundles):
    bundle = bundles(0)
    target = bundle.unlearned("rt").artifact
    heads = per_class_rows(bundle.dataset, k=20, m_models=1, seed=11)
    aux_cfg = pa.aux_config(11)
    for class_id, rows in (heads[2], heads[8]):
        x = bundle.dataset.x[rows]
        template = clone_frozen_head_template(target, 11,
                                              class_id=class_id, index=0)
        y = np.full(len(x), class_id, dtype=np.int64)
        ds = LabeledDataset(x, y, n_classes=10, split="aux", filtered=True)
        trained = train(template, ds, aux_cfg).model
        mean_logits = trained.logits(x).mean(axis=0)
        assert int(np.argmax(mean_logits)) == class_id


def test_train_aux_models_rejects_empty_subset(bundles):
    bundle = bundles(0)
    spec, x = bundle.spec, bundle.dataset.x
    empty = (0, np.arange(0))
    with pytest.raises(ValueError, match="empty"):
        pa._draw(spec, 0, x, [empty], ())
    full = per_class_rows(bundle.dataset, k=10, m_models=1, seed=7)[0]
    with pytest.raises(ValueError, match="empty"):
        pa._draw(spec, 0, x, [full, empty], ())
    with pytest.raises(ValueError, match="outside"):
        pa._draw(spec, 0, x, [(10, full[1])], ())


def _per_head_reference(target, x, heads, seed):
    """Each head of ``heads`` trained alone from its template, in order."""
    seen: dict = {}
    for class_id, rows in heads:
        idx = seen.setdefault(class_id, 0)
        seen[class_id] += 1
        template = clone_frozen_head_template(target, seed, class_id=class_id,
                                              index=idx)
        ds = LabeledDataset(x[rows], np.full(len(rows), class_id),
                            n_classes=target.spec.n_classes, split="aux",
                            filtered=True)
        yield class_id, idx, head_vector(train(template, ds,
                                               pa.aux_config(seed)).model)


# the ids keep the names these cases carried beside their momentum twins
@pytest.mark.parametrize("k", [10, 20, 25], ids=["10-sgd", "20-sgd", "25-sgd"])
def test_train_aux_models_matches_per_head_training(bundles, k):
    # the lockstep heads must equal, bit for bit, each clone trained alone;
    # k = 25 at batch size 20 leaves a partial last batch
    bundle = bundles(0)
    target = bundle.unlearned("ng").artifact
    heads = per_class_rows(bundle.dataset, k, 2, 3)
    heads = heads[1::2] + heads[::2]
    forget = bundle.task.forget_classes
    got = pa.train_aux_models(target, pa._draw(bundle.spec, 3, bundle.dataset.x,
                                               heads, forget))
    assert len(got) == len(heads)
    for i, (class_id, idx, want) in enumerate(
            _per_head_reference(target, bundle.dataset.x, heads, 3)):
        assert got.vectors[i].tobytes() == want.tobytes()
        assert (got.class_ids[i], got.aux_ids[i], got.labels[i]) == \
            (class_id, idx, int(class_id in forget))


def test_train_aux_models_on_a_cnn_matches_per_head_training():
    # image subsets take the frozen conv layers one subset at a time
    target = build(cnn_spec(12, 12, 1, 4), 0)
    x = np.random.default_rng(505).random((18, 12, 12, 1))
    heads = [(1, np.arange(0, 6)), (2, np.arange(6, 12)), (1, np.arange(12, 18))]
    got = pa.train_aux_models(target, pa._draw(target.spec, 5, x, heads, ()))
    refs = list(_per_head_reference(target, x, heads, 5))
    assert [idx for _, idx, _ in refs] == [0, 0, 1]
    for row, (_, _, want) in zip(got.vectors, refs):
        assert row.tobytes() == want.tobytes()


# SHA-256 of the 500 default head vectors of seed 0's rt target, forget {3}
AUX_HEADS_SEED0_RT = "d32e9fdeeef31a02c67aa311f4161df9a8d5332157f6f04f3a7751af36a91162"


def _default_heads(bundle, seed):
    return pa.train_aux_models(bundle.unlearned("rt").artifact,
                               pa.draw_aux(bundle.spec, bundle.dataset,
                                           bundle.task, seed))


def test_aux_heads_are_pinned(bundles):
    bundle = bundles(0)
    assert bundle.forget == frozenset({3})
    aux = _default_heads(bundle, 0)
    assert len(aux) == 500
    assert hashlib.sha256(aux.vectors.tobytes()).hexdigest() == AUX_HEADS_SEED0_RT


def test_dot_features_equal_per_head_products_bit_for_bit(bundles):
    # the stacked product must sum each row as the lone w @ v does
    bundle = bundles(0)
    aux = _default_heads(bundle, 0)
    w = head_vector(bundle.unlearned("rt").artifact)
    want = np.array([float(w @ v) for v in aux.vectors])
    assert pa.dot_features(w, aux).values.tobytes() == want.tobytes()


def test_shared_draw_matches_fresh_draws_for_every_target(bundles):
    # one draw serves several targets: each must get the heads that a
    # fresh draw of its own gives, and the draw must stay as made
    bundle = bundles(0)
    draw = _rows_draw(bundle, 20, 4, 3)
    inits = [g.init.copy() for g in draw.groups]
    for method in ("rt", "ng", "rt"):
        target = bundle.unlearned(method).artifact
        got = pa.train_aux_models(target, draw)
        want = pa.train_aux_models(target, _rows_draw(bundle, 20, 4, 3))
        assert len(got) == len(want) == 40
        assert got.vectors.tobytes() == want.vectors.tobytes()
        for col in ("labels", "class_ids", "aux_ids"):
            assert getattr(got, col).tobytes() == getattr(want, col).tobytes()
        assert all(g.init.tobytes() == init.tobytes()
                   for g, init in zip(draw.groups, inits))
    with pytest.raises(ValueError, match="another model spec"):
        pa.train_aux_models(build(cnn_spec(12, 12, 1, 10), 0), draw)


def test_dot_separation_on_benchmark(bundles):
    # retrain-unlearned targets: the forgotten class's aux heads must sit
    # below every retained class's mean dot, for all five seeds
    for seed in range(5):
        bundle = bundles(seed)
        target = bundle.unlearned("rt").artifact
        aux = pa.train_aux_models(target, _rows_draw(bundle, 20, 6, seed))
        feats = pa.dot_features(head_vector(target), aux)
        unlearn_mean = feats.values[feats.labels == 1].mean()
        rest_mean = feats.values[feats.labels == 0].mean()
        assert unlearn_mean < rest_mean, f"seed {seed}"


def test_param_attacks_end_to_end(bundles):
    # m_models=30 keeps the unsupervised k-means route stable; the
    # supervised routes are already exact at a third of that
    bundle = bundles(0)
    target = bundle.unlearned("rt").artifact
    aux = pa.train_aux_models(target, _rows_draw(bundle, 20, 30, 0))
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
