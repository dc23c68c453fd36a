"""Five class-level unlearning methods sharing one contract.

Each maps (model or spec, data splits, config) to an UnlearnedModel whose
forget-class accuracy should collapse while retained accuracy holds:

* rt: retrain from scratch on the retained split only;
* ft: continue training on the retained split at a raised learning rate;
* rl: relabel every forget sample to a uniformly random wrong class, then
  continue training on the union;
* au: subtract the ledgered parameter updates of every batch that
  contained a forget-class sample (train_with_ledger + amnesiac);
* ng: gradient ascent on the forget split until its accuracy falls under
  a stop threshold or the epoch cap hits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import rng as rngmod
from .data import ForgetTask, LabeledDataset, split_forget
from .models import ModelArtifact, ModelSpec, build, copy_params
from .training import TrainConfig, TrainResult, UpdateLedger, params_hash, train

METHODS = ("rt", "ft", "rl", "au", "ng")

FT_LR_MULTIPLIER = 5.0
# The hot 5x phase un-carves the forget class within a few epochs; the
# remaining epochs let retained-class accuracy re-converge at the high lr.
FT_EPOCHS = 30
NG_STOP_ACC = 0.05
NG_LR_MULTIPLIER = 0.5
NG_MAX_EPOCHS = 25


class LedgerMismatch(Exception):
    """Ledger does not describe the model it was offered with."""


class UnlearningInvariantError(RuntimeError):
    """A method broke its own contract: retraining batched a forget class,
    or relabeling kept an original label."""


@dataclass
class UnlearnedModel:
    artifact: ModelArtifact
    method: str
    config_hash: str
    audit: list | None = None
    trace: dict | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")


def unlearn_config_hash(method: str, task: ForgetTask, cfg: TrainConfig,
                        **extra) -> str:
    # a constant field, kept so that hashes recorded earlier still match
    fields = {
        "method": method,
        "forget": ",".join(str(c) for c in sorted(task.forget_classes)),
        "epochs": cfg.epochs, "lr": cfg.lr, "batch_size": cfg.batch_size,
        "seed": cfg.seed, "optimizer": "sgd",
    }
    fields.update(extra)
    canon = ";".join(f"{k}={fields[k]}" for k in sorted(fields))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _check_rest_split(d_rest: LabeledDataset, task: ForgetTask) -> None:
    if len(d_rest) == 0:
        raise ValueError("retained split is empty")
    present = set(np.unique(d_rest.y).tolist())
    leaked = present & task.forget_classes
    if leaked:
        raise ValueError(f"retained split contains forget classes {sorted(leaked)}")


def retrain(spec: ModelSpec, d_rest: LabeledDataset, cfg: TrainConfig,
            task: ForgetTask) -> UnlearnedModel:
    """Fresh initialization trained on the retained split only."""
    _check_rest_split(d_rest, task)
    fresh = build(spec, seed=cfg.seed)
    result = train(fresh, d_rest, cfg,
                   provenance={"role": "unlearned", "method": "rt", "seed": cfg.seed})
    for _, labels in result.audit:
        bad = set(labels) & task.forget_classes
        if bad:
            raise UnlearningInvariantError(
                f"audit violation: forget classes {sorted(bad)} "
                f"were batched during retraining")
    return UnlearnedModel(result.model, "rt", unlearn_config_hash("rt", task, cfg),
                          audit=result.audit,
                          trace={"epoch_losses": result.epoch_losses})


def fine_tune(model: ModelArtifact, d_rest: LabeledDataset, cfg: TrainConfig,
              task: ForgetTask) -> UnlearnedModel:
    """Continue training on the retained split at lr * FT_LR_MULTIPLIER."""
    _check_rest_split(d_rest, task)
    chash = unlearn_config_hash("ft", task, cfg, lr_multiplier=FT_LR_MULTIPLIER)
    prov = {"role": "unlearned", "method": "ft", "seed": cfg.seed}
    result = train(model, d_rest, replace(cfg, lr=cfg.lr * FT_LR_MULTIPLIER),
                   provenance=prov)
    return UnlearnedModel(result.model, "ft", chash, audit=result.audit,
                          trace={"epoch_losses": result.epoch_losses})


def relabel_uniform_wrong(y: np.ndarray, n_classes: int,
                          gen: np.random.Generator) -> np.ndarray:
    """Uniform draw over the n_classes - 1 labels that differ from y."""
    r = gen.integers(0, n_classes - 1, size=len(y))
    return np.where(r >= y, r + 1, r)


def random_label(model: ModelArtifact, d_rest: LabeledDataset,
                 d_unlearn: LabeledDataset, cfg: TrainConfig,
                 task: ForgetTask) -> UnlearnedModel:
    """Relabel forget samples to random wrong classes, then keep training."""
    _check_rest_split(d_rest, task)
    if len(d_unlearn) == 0:
        raise ValueError("forget split is empty")
    gen = rngmod.stream(cfg.seed, rngmod.STREAM_UNLEARN)
    new_y = relabel_uniform_wrong(d_unlearn.y, d_unlearn.n_classes, gen)
    if np.any(new_y == d_unlearn.y):
        raise UnlearningInvariantError("relabeling reproduced an original label")
    mixed = LabeledDataset(np.concatenate([d_rest.x, d_unlearn.x]),
                           np.concatenate([d_rest.y, new_y]),
                           d_rest.n_classes, split="rl-mix", filtered=True)
    prov = {"role": "unlearned", "method": "rl", "seed": cfg.seed}
    result = train(model, mixed, cfg, provenance=prov)
    return UnlearnedModel(result.model, "rl",
                          unlearn_config_hash("rl", task, cfg),
                          audit=result.audit,
                          trace={"epoch_losses": result.epoch_losses})


def train_with_ledger(spec: ModelSpec, dataset: LabeledDataset,
                      task: ForgetTask, cfg: TrainConfig) -> TrainResult:
    """Original training with its delta sums recorded and forget batches
    isolated so their updates can be subtracted later."""
    task.validate_against(dataset.n_classes)
    fresh = build(spec, seed=cfg.seed)
    return train(fresh, dataset, cfg, record_ledger=True,
                 isolate_classes=task.forget_classes,
                 provenance={"role": "original", "seed": cfg.seed})


def _subtract_ledger(model: ModelArtifact, ledger: UpdateLedger, summed: list) -> list:
    """A copy of the model's parameters minus ``summed``, one of the
    ledger's delta sums, after checking the ledger describes the model."""
    if params_hash(model.params) != ledger.final_hash:
        raise LedgerMismatch("ledger final-parameter hash does not match the model")
    params = copy_params(model.params)
    for layer_params, layer_delta in zip(params, summed):
        for k, v in layer_delta.items():
            layer_params[k] -= v
    return params


def amnesiac(model: ModelArtifact, ledger: UpdateLedger, task: ForgetTask,
             cfg: TrainConfig) -> UnlearnedModel:
    """Subtract the summed deltas of every flagged batch."""
    params = _subtract_ledger(model, ledger, ledger.flagged)
    n_flagged = sum(1 for e in ledger.entries if e.contains_forget)
    prov = {"role": "unlearned", "method": "au", "seed": cfg.seed}
    return UnlearnedModel(model.with_params(params, prov), "au",
                          unlearn_config_hash("au", task, cfg),
                          trace={"n_flagged_batches": n_flagged,
                                 "n_batches": len(ledger.entries)})


def rollback_all(model: ModelArtifact, ledger: UpdateLedger) -> list:
    """Subtract every ledger delta; telescopes back to the initialization."""
    return _subtract_ledger(model, ledger, ledger.total)


def negative_gradient(model: ModelArtifact, d_unlearn: LabeledDataset,
                      cfg: TrainConfig, task: ForgetTask) -> UnlearnedModel:
    """Gradient ascent on the forget split with an accuracy early stop."""
    if len(d_unlearn) == 0:
        raise ValueError("forget split is empty")
    ad.check_labels(d_unlearn.y, model.spec.n_classes)
    lr = cfg.lr * NG_LR_MULTIPLIER
    gen = rngmod.stream(cfg.seed, rngmod.STREAM_UNLEARN, 1)
    params = copy_params(model.params)
    n = len(d_unlearn)
    losses, epochs_run = [], 0
    prov = {"role": "unlearned", "method": "ng", "seed": cfg.seed}
    stopped = False
    for _ in range(NG_MAX_EPOCHS):
        order = gen.permutation(n)
        for i in range(0, n, cfg.batch_size):
            idx = order[i:i + cfg.batch_size]
            bundle, loss = ad.grad_params(model.layers, params,
                                          d_unlearn.x[idx], d_unlearn.y[idx])
            params, _ = ad.apply_update(params, bundle.param_grads, lr,
                                        direction="ascent")
            losses.append(loss)
            # per-batch stop: one ascent batch too many can wreck the model
            probe = model.with_params(params, prov)
            if probe.accuracy(d_unlearn.x, d_unlearn.y) < NG_STOP_ACC:
                stopped = True
                break
        epochs_run += 1
        if stopped:
            break
    return UnlearnedModel(model.with_params(params, prov), "ng",
                          unlearn_config_hash("ng", task, cfg,
                                              stop_acc=NG_STOP_ACC,
                                              lr_multiplier=NG_LR_MULTIPLIER),
                          trace={"batch_losses": losses, "epochs_run": epochs_run})


def run_method(method: str, spec: ModelSpec, base_model: ModelArtifact | None,
               dataset: LabeledDataset, task: ForgetTask, cfg: TrainConfig,
               ledger: UpdateLedger | None = None) -> UnlearnedModel:
    """Dispatch a method name to its implementation with standard splits.

    ``base_model`` is the trained original (required for ft/rl/ng);
    ``ledger`` is required for au and must describe ``base_model``.
    """
    d_rest, d_unlearn = split_forget(dataset, task)
    if method == "rt":
        return retrain(spec, d_rest, cfg, task)
    if base_model is None:
        raise ValueError(f"method {method!r} needs the trained original model")
    if method == "ft":
        return fine_tune(base_model, d_rest, replace(cfg, epochs=FT_EPOCHS), task)
    if method == "rl":
        return random_label(base_model, d_rest, d_unlearn, cfg, task)
    if method == "au":
        if ledger is None:
            raise ValueError("amnesiac needs the training ledger")
        return amnesiac(base_model, ledger, task, cfg)
    if method == "ng":
        return negative_gradient(base_model, d_unlearn, cfg, task)
    raise ValueError(f"unknown unlearning method {method!r}")
