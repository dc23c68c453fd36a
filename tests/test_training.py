import gc
import tracemalloc

import numpy as np
import pytest

import brute
from ulklab import data, models, training, unlearning as ul
from ulklab.training import TrainConfig, class_accuracy, params_hash, train


@pytest.fixture(scope="module")
def small():
    ds = data.gen_blobs(6, 60, 16, separation=8.0, seed=101)
    spec = models.mlp_spec(16, 6, hidden=32)
    return ds, spec


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    assert TrainConfig(epochs=0).epochs == 0


def test_training_is_seed_deterministic(small):
    ds, spec = small
    cfg = TrainConfig(epochs=3, seed=5)
    a = train(models.build(spec, 5), ds, cfg)
    b = train(models.build(spec, 5), ds, cfg)
    assert params_hash(a.model.params) == params_hash(b.model.params)
    assert a.epoch_losses == b.epoch_losses
    c = train(models.build(spec, 5), ds, TrainConfig(epochs=3, seed=6))
    assert params_hash(a.model.params) != params_hash(c.model.params)


def test_zero_epochs_is_identity(small):
    ds, spec = small
    m = models.build(spec, 0)
    result = train(m, ds, TrainConfig(epochs=0))
    assert params_hash(result.model.params) == params_hash(m.params)
    assert result.audit == [] and result.epoch_losses == []


def test_blobs_mlp_reaches_high_train_accuracy():
    ds = data.gen_blobs(10, 200, 32, separation=8.0, seed=100)
    spec = models.mlp_spec(32, 10, hidden=64)
    result = train(models.build(spec, 0), ds, TrainConfig(epochs=20, seed=0))
    assert result.model.accuracy(ds.x, ds.y) >= 0.99
    assert result.epoch_losses[-1] < result.epoch_losses[0]


def test_ledger_telescopes_to_final_params(small):
    ds, spec = small
    m = models.build(spec, 2)
    result = train(m, ds, TrainConfig(epochs=2, seed=2), record_ledger=True)
    ledger = result.ledger
    assert ledger.final_hash == params_hash(result.model.params)
    # train copies its input, so m still holds the initialization
    rebuilt = models.copy_params(m.params)
    for layer, delta in zip(rebuilt, ledger.total):
        for k in delta:
            layer[k] += delta[k]
    for got, want in zip(rebuilt, result.model.params):
        for k in got:
            assert np.max(np.abs(got[k] - want[k])) < 1e-9


def _sums_bytes(sums):
    return [{k: v.tobytes() for k, v in layer.items()} for layer in sums]


def _minus(params, sums):
    out = models.copy_params(params)
    for layer, delta in zip(out, sums):
        for k, v in delta.items():
            layer[k] -= v
    return out


@pytest.mark.parametrize("case", ["sgd", "frozen", "zero-epochs", "flags-nothing"])
def test_ledger_sums_match_sequential_oracle(small, monkeypatch, case):
    ds, spec = small
    forget = {2, 4}
    cfg = TrainConfig(epochs=3, seed=8)
    model = models.build(spec, 8)
    if case == "frozen":
        model = models.clone_frozen_head_template(model, seed=78, class_id=0,
                                                  index=0)
    elif case == "zero-epochs":
        cfg = TrainConfig(epochs=0)
    elif case == "flags-nothing":
        ds, _ = data.split_forget(ds, data.ForgetTask(frozenset(forget)))
    captured = []
    real_update = training.ad.apply_update

    def recording_update(*args, **kwargs):
        new_params, deltas = real_update(*args, **kwargs)
        captured.append([{} for _ in range(model.trainable_from)]
                        + models.copy_params(deltas))
        return new_params, deltas

    monkeypatch.setattr(training.ad, "apply_update", recording_update)
    result = train(model, ds, cfg, record_ledger=True, isolate_classes=forget)
    ledger = result.ledger
    flags = [e.contains_forget for e in ledger.entries]
    assert len(captured) == len(flags) == len(result.audit)
    assert any(flags) == (case not in ("zero-epochs", "flags-nothing"))
    want_total, want_flagged = brute.ledger_sums_sequential(captured, flags)
    assert _sums_bytes(ledger.total) == _sums_bytes(want_total)
    assert _sums_bytes(ledger.flagged) == _sums_bytes(want_flagged)
    for got, want in ((ul.rollback_all(result.model, ledger), want_total),
                      (ul.amnesiac(result.model, ledger,
                                   data.ForgetTask(frozenset(forget)), cfg).artifact.params,
                       want_flagged)):
        assert _sums_bytes(got) == _sums_bytes(_minus(result.model.params, want))


def _retained_bytes(make):
    """Bytes still allocated after ``make()`` returns, with its result held."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = make()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        tracemalloc.stop()


def test_ledger_memory_does_not_grow_with_batches(small):
    ds, _ = small
    spec = models.mlp_spec(16, 6, hidden=64)
    param_bytes = sum(v.nbytes for p in models.build(spec, 0).params for v in p.values())

    def run(epochs):
        return train(models.build(spec, 5), ds, TrainConfig(epochs=epochs, seed=5),
                     record_ledger=True, isolate_classes={2})

    short_bytes, short = _retained_bytes(lambda: run(2))
    long_bytes, long = _retained_bytes(lambda: run(20))
    per_batch = (long_bytes - short_bytes) / (len(long.audit) - len(short.audit))
    # the per-batch audit and ledger records, not a stored delta per batch
    assert per_batch <= 1024 < param_bytes / 10, (per_batch, param_bytes)


def test_isolated_batches_are_forget_pure(small):
    ds, spec = small
    result = train(models.build(spec, 3), ds, TrainConfig(epochs=2, seed=3),
                   record_ledger=True, isolate_classes={2, 4})
    audit_by_id = dict(result.audit)
    flagged_any = False
    for entry in result.ledger.entries:
        labels = set(audit_by_id[entry.batch_id])
        if entry.contains_forget:
            flagged_any = True
            assert labels <= {2, 4}, f"flagged batch mixed in {labels}"
        else:
            assert not labels & {2, 4}
    assert flagged_any


def test_frozen_clone_training_never_touches_features(small):
    ds, spec = small
    base = train(models.build(spec, 4), ds, TrainConfig(epochs=4, seed=4)).model
    clone = models.clone_frozen_head_template(base, seed=77, class_id=0, index=0)
    before = [{k: v.copy() for k, v in p.items()}
              for p in clone.params[:clone.feature_boundary]]
    fitted = train(clone, ds, TrainConfig(epochs=3, seed=7)).model
    for orig, after in zip(before, fitted.params[:clone.feature_boundary]):
        for k in orig:
            assert orig[k].tobytes() == after[k].tobytes()
    fb = clone.feature_boundary
    assert not np.array_equal(fitted.params[fb]["W"], clone.params[fb]["W"])


def test_class_accuracy_subsets(small):
    ds, spec = small
    m = train(models.build(spec, 6), ds, TrainConfig(epochs=8, seed=6)).model
    acc_all = m.accuracy(ds.x, ds.y)
    acc_02 = class_accuracy(m, ds, {0, 2})
    assert 0.0 <= acc_02 <= 1.0 and acc_all > 0.9
    with pytest.raises(ValueError):
        class_accuracy(m, ds, {17})


def test_empty_dataset_rejected(small):
    _, spec = small
    empty = data.LabeledDataset(np.zeros((0, 16)), np.zeros(0, dtype=int),
                                n_classes=6, split="x", filtered=True)
    with pytest.raises(ValueError, match="empty"):
        train(models.build(spec, 0), empty, TrainConfig())


@pytest.mark.parametrize("case", ["plain", "isolate", "frozen", "zero-epochs"])
def test_train_matches_sequential_oracle(small, case):
    # the run-level checks and the shared exp leave every float op as it was
    ds, spec = small
    cfg, model, iso = TrainConfig(epochs=3, seed=9), models.build(spec, 9), None
    if case == "isolate":
        iso = {1, 4}
    elif case == "frozen":
        model = models.clone_frozen_head_template(model, seed=79, class_id=0,
                                                  index=0)
        iso = {0}
    elif case == "zero-epochs":
        cfg = TrainConfig(epochs=0)
    result = train(model, ds, cfg, record_ledger=True, isolate_classes=iso)
    want = brute.train_sequential(model, ds, cfg, record_ledger=True,
                                  isolate_classes=iso)
    assert _sums_bytes(result.model.params) == _sums_bytes(want["params"])
    assert result.audit == want["audit"]
    assert np.array(result.epoch_losses).tobytes() == np.array(want["epoch_losses"]).tobytes()
    ledger = result.ledger
    assert [(e.batch_id, e.contains_forget) for e in ledger.entries] == want["entries"]
    assert _sums_bytes(ledger.total) == _sums_bytes(want["total"])
    assert _sums_bytes(ledger.flagged) == _sums_bytes(want["flagged"])
    assert bool(result.audit) == (case != "zero-epochs")
    assert any(flag for _, flag in want["entries"]) == (case in ("isolate", "frozen"))


def test_train_checks_inputs_and_labels_once_before_any_step(small, monkeypatch):
    ds, spec = small
    steps = []
    real = training.ad.grad_params
    monkeypatch.setattr(training.ad, "grad_params",
                        lambda *a: steps.append(1) or real(*a))
    diverged = models.clone_frozen_head_template(models.build(spec, 3), seed=73,
                                                 class_id=0, index=0)
    diverged.params[0]["b"] = np.full_like(diverged.params[0]["b"], np.inf)
    with pytest.raises(ValueError, match="non-finite"):
        train(diverged, ds, TrainConfig(epochs=1))
    narrow = models.build(models.mlp_spec(16, 5, hidden=8), 3)
    with pytest.raises(ValueError, match=r"out of range \[0,5\)"):
        train(narrow, ds, TrainConfig(epochs=1))
    assert steps == []
    train(models.build(spec, 3), ds, TrainConfig(epochs=1))
    assert len(steps) == -(-len(ds) // 32)
