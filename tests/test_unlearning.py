import numpy as np
import pytest

from ulklab import data, models, unlearning as ul
from ulklab.training import TrainConfig, class_accuracy, params_hash, train


@pytest.fixture(scope="module")
def bench():
    ds = data.gen_blobs(6, 60, 16, separation=8.0, seed=101)
    spec = models.mlp_spec(16, 6, hidden=32)
    task = data.ForgetTask(frozenset({2}), dataset_id=ds.split)
    cfg = TrainConfig(epochs=12, lr=0.1, batch_size=32, seed=9)
    original = ul.train_with_ledger(spec, ds, task, cfg)
    return ds, spec, task, cfg, original


def test_retrain_audit_excludes_forget_classes(bench):
    ds, spec, task, cfg, _ = bench
    d_rest, _ = data.split_forget(ds, task)
    um = ul.retrain(spec, d_rest, cfg, task)
    assert um.method == "rt"
    seen = set()
    for _, labels in um.audit:
        seen.update(labels)
    assert not seen & task.forget_classes
    again = ul.retrain(spec, d_rest, cfg, task)
    assert params_hash(um.artifact.params) == params_hash(again.artifact.params)


def test_retrain_rejects_contaminated_rest_split(bench):
    ds, spec, task, cfg, _ = bench
    with pytest.raises(ValueError, match="contains forget"):
        ul.retrain(spec, ds, cfg, task)


def test_fine_tune_zero_epochs_is_identity(bench):
    ds, spec, task, cfg, original = bench
    d_rest, _ = data.split_forget(ds, task)
    um = ul.fine_tune(original.model, d_rest,
                      TrainConfig(epochs=0, lr=cfg.lr, seed=cfg.seed), task)
    assert params_hash(um.artifact.params) == params_hash(original.model.params)


def test_random_label_never_reproduces_original(bench):
    _, _, _, _, _ = bench
    gen = np.random.default_rng(0)
    for t in (3, 5, 10):
        y = gen.integers(0, t, size=400)
        new = ul.relabel_uniform_wrong(y, t, np.random.default_rng(t))
        assert np.all(new != y)
        assert new.min() >= 0 and new.max() < t


def test_relabel_covers_wrong_labels_roughly_uniformly():
    y = np.zeros(6000, dtype=np.int64)
    new = ul.relabel_uniform_wrong(y, 4, np.random.default_rng(5))
    counts = np.bincount(new, minlength=4)
    assert counts[0] == 0
    assert counts[1:].min() > 1700  # ~2000 each for uniform over 3 wrong labels


def test_amnesiac_hash_check_and_empty_flag_set(bench):
    ds, spec, task, cfg, original = bench
    tampered = original.model.with_params(
        models.copy_params(original.model.params), {"role": "original"})
    tampered.params[0]["W"][0, 0] += 1.0
    with pytest.raises(ul.LedgerMismatch):
        ul.amnesiac(tampered, original.ledger, task, cfg)
    # a task whose classes never appear in the data flags nothing
    clean = data.gen_blobs(4, 30, 8, separation=6.0, seed=55)
    no_hit = data.ForgetTask(frozenset({3}))
    spec4 = models.mlp_spec(8, 4, hidden=16)
    d_rest, _ = data.split_forget(clean, no_hit)
    result = train(models.build(spec4, 1), d_rest,
                   TrainConfig(epochs=2, seed=1), record_ledger=True,
                   isolate_classes=no_hit.forget_classes)
    um = ul.amnesiac(result.model, result.ledger, no_hit, TrainConfig(epochs=2, seed=1))
    assert params_hash(um.artifact.params) == params_hash(result.model.params)
    assert um.trace["n_flagged_batches"] == 0


def test_rollback_all_recovers_initialization(bench):
    _, _, _, _, original = bench
    params = ul.rollback_all(original.model, original.ledger)
    for got, want in zip(params, original.ledger.init_params):
        for k in got:
            assert np.max(np.abs(got[k] - want[k])) < 1e-9


def test_ledger_subtraction_leaves_the_sums_untouched(bench):
    _, _, task, cfg, original = bench
    ledger = original.ledger
    sums_before = params_hash(ledger.total), params_hash(ledger.flagged)
    for make in (lambda: ul.rollback_all(original.model, ledger),
                 lambda: ul.amnesiac(original.model, ledger, task, cfg).artifact.params):
        assert params_hash(make()) == params_hash(make())
    assert sums_before == (params_hash(ledger.total), params_hash(ledger.flagged))


def test_retrain_audit_violation_raises_typed_error(bench, monkeypatch):
    ds, spec, task, cfg, _ = bench
    d_rest, _ = data.split_forget(ds, task)
    real_train = ul.train

    def leaky_train(*args, **kwargs):
        result = real_train(*args, **kwargs)
        result.audit.append((len(result.audit), sorted(task.forget_classes)))
        return result

    monkeypatch.setattr(ul, "train", leaky_train)
    with pytest.raises(ul.UnlearningInvariantError,
                       match=r"audit violation: forget classes \[2\] were batched"):
        ul.retrain(spec, d_rest, TrainConfig(epochs=1, seed=cfg.seed), task)
    assert issubclass(ul.UnlearningInvariantError, RuntimeError)


def test_relabel_keeping_a_label_raises_typed_error(bench, monkeypatch):
    ds, _, task, cfg, original = bench
    d_rest, d_unlearn = data.split_forget(ds, task)
    monkeypatch.setattr(ul, "relabel_uniform_wrong", lambda y, n, gen: y.copy())
    with pytest.raises(ul.UnlearningInvariantError,
                       match="relabeling reproduced an original label"):
        ul.random_label(original.model, d_rest, d_unlearn, cfg, task)


def test_negative_gradient_matches_closed_form_single_step():
    # dense 1->2, W=[[0, w]], sample (x, y=1): one ascent step gives
    # W01' = w + lr*(p1-1)*x, W00' = lr*p0*x, b' = lr*[p0, p1-1]
    w, x, lr = 0.8, 1.5, 0.05
    spec = models.mlp_spec(1, 2, hidden=1)
    m = models.build(spec, 0)
    m.params[0]["W"][:] = [[1.0]]       # feature = relu(x) = x for x > 0
    m.params[0]["b"][:] = 0.0
    m.params[2]["W"][:] = [[0.0, w]]
    m.params[2]["b"][:] = 0.0
    d_unlearn = data.LabeledDataset(np.array([[x]]), np.array([1]), 2,
                                    split="toy", filtered=True)
    task = data.ForgetTask(frozenset({1}))
    cfg = TrainConfig(epochs=1, lr=lr, batch_size=8, seed=0)
    um = ul.negative_gradient(m, d_unlearn, cfg, task, stop_acc=0.0,
                              lr_multiplier=1.0, max_epochs=1)
    p1 = 1.0 / (1.0 + np.exp(-w * x))
    p0 = 1.0 - p1
    head = um.artifact.params[2]
    assert head["W"][0, 1] == pytest.approx(w + lr * (p1 - 1.0) * x, rel=1e-12)
    assert head["W"][0, 0] == pytest.approx(lr * p0 * x, rel=1e-12)
    assert head["b"][0] == pytest.approx(lr * p0, rel=1e-12)
    assert head["b"][1] == pytest.approx(lr * (p1 - 1.0), rel=1e-12)


def test_negative_gradient_full_batch_loss_non_decreasing(bench):
    ds, spec, task, cfg, original = bench
    _, d_unlearn = data.split_forget(ds, task)
    um = ul.negative_gradient(original.model, d_unlearn,
                              TrainConfig(epochs=1, lr=0.05, batch_size=len(d_unlearn),
                                          seed=0),
                              task, stop_acc=0.0, lr_multiplier=1.0, max_epochs=4)
    losses = um.trace["batch_losses"]
    assert len(losses) == 4
    assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))


def test_all_methods_collapse_forget_accuracy(bundles):
    bundle = bundles(0)
    for method in ul.METHODS:
        acc = bundle.accuracies(method)
        assert acc["forget_before"] > 0.85, method
        assert acc["rest_before"] > 0.9, method
        assert acc["forget_after"] < acc["forget_before"], method
        assert acc["forget_after"] < 0.20, \
            f"{method}: forget acc {acc['forget_after']:.3f}"
        assert acc["rest_after"] >= acc["rest_before"] - 0.05, \
            f"{method}: rest acc {acc['rest_after']:.3f}"


def test_run_method_dispatch_errors(bench):
    ds, spec, task, cfg, original = bench
    with pytest.raises(ValueError, match="needs the trained original"):
        ul.run_method("ft", spec, None, ds, task, cfg)
    with pytest.raises(ValueError, match="ledger"):
        ul.run_method("au", spec, original.model, ds, task, cfg, ledger=None)
    with pytest.raises(ValueError, match="unknown"):
        ul.run_method("zz", spec, original.model, ds, task, cfg)
    with pytest.raises(ValueError, match="method must be"):
        ul.UnlearnedModel(original.model, "xx", "hash")


def test_unlearned_model_records_method_and_hash(bench):
    ds, spec, task, cfg, original = bench
    d_rest, _ = data.split_forget(ds, task)
    um = ul.retrain(spec, d_rest, cfg, task)
    assert um.config_hash == ul.unlearn_config_hash("rt", task, cfg)
    other = ul.unlearn_config_hash("rt", data.ForgetTask(frozenset({3})), cfg)
    assert um.config_hash != other
