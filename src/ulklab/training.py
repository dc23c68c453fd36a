"""Seeded minibatch training with batch audit logs and update ledgers.

The trainer is deliberately plain: shuffled minibatch SGD (optionally with
momentum), full determinism from the config seed, and two bookkeeping
channels the rest of the package depends on:

* audit log: the sorted unique labels of every batch, in order, so a
  training run can prove which classes it ever touched;
* update ledger: one (batch id, holds-a-forget-sample flag) record per
  batch plus two running sums of the per-layer parameter deltas, one over
  every batch and one over the flagged batches only. Both add each
  batch's delta to zeros in batch order. The full sum telescopes:
  init + sum == final, bit-near-exactly.

Keeping sums instead of every batch's delta holds a ledger's memory to two
parameter sets, but a ledger then serves only the forget set it was
recorded for. Amnesiac unlearning as Graves et al. (AAAI 2021) describe it
keeps every delta so that any later request can be served; here each
(seed, forget set) records its own ledger.

When a ledger is recorded against a forget task, batches are built so
forget-class samples never share a batch with retained samples, and those
classes only enter training during a short damped-lr window at the end of
the run (see TrainConfig). Flagged deltas then carry only small,
forget-specific gradients, which is what makes subtracting them surgical
instead of destructive.

Models whose ``trainable_from`` is set (frozen-feature clones) get a fast
path: features are computed once for the whole dataset and only the head
layers run inside the loop. Frozen parameters are never written.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import rng as rngmod
from .data import LabeledDataset
from .models import ModelArtifact, chunked_forward, copy_params

OPTIMIZERS = ("sgd", "sgd-momentum")


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run.

    The ``intro_*`` fields only matter when isolation is active: isolated
    classes join training in the final ``intro_epochs`` epochs only.
    Inside that window, isolated-class batches step at
    ``lr * intro_lr_scale`` while the other batches step at
    ``lr * intro_rest_scale``. Introducing the isolated classes late, onto
    an already-converged model, and near-freezing everything else inside
    the window keeps the non-isolated updates that remain after a ledger
    rollback too small to disturb what the rest of the run learned.
    """

    epochs: int = 20
    lr: float = 0.1
    batch_size: int = 32
    seed: int = 0
    optimizer: str = "sgd"
    momentum: float = 0.9
    intro_epochs: int = 2
    intro_lr_scale: float = 0.3
    intro_rest_scale: float = 0.1

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if self.intro_epochs < 1:
            raise ValueError(f"intro_epochs must be >= 1, got {self.intro_epochs}")
        if self.intro_lr_scale <= 0:
            raise ValueError(f"intro_lr_scale must be positive, got {self.intro_lr_scale}")
        if self.intro_rest_scale <= 0:
            raise ValueError(
                f"intro_rest_scale must be positive, got {self.intro_rest_scale}")

    def scaled(self, lr_multiplier: float, epochs: int | None = None) -> "TrainConfig":
        return replace(self, lr=self.lr * lr_multiplier,
                       epochs=self.epochs if epochs is None else epochs)


def params_hash(params) -> str:
    h = hashlib.sha256()
    for p in params:
        for key in sorted(p):
            h.update(key.encode())
            h.update(np.ascontiguousarray(p[key], dtype="<f8").tobytes())
    return h.hexdigest()


@dataclass
class LedgerEntry:
    batch_id: int
    contains_forget: bool
    # Always empty: ledgers keep sums, but perfbench's trace counter reads it.
    deltas: list = field(default_factory=list)


@dataclass
class UpdateLedger:
    """Batch records plus the summed per-layer deltas of every batch
    (``total``) and of the flagged batches (``flagged``); an empty dict
    marks a frozen layer, and a run of no batches has empty sums."""
    entries: list
    init_params: list
    final_hash: str
    total: list
    flagged: list


@dataclass
class TrainResult:
    model: ModelArtifact
    audit: list          # (batch_id, sorted unique labels)
    epoch_losses: list
    ledger: UpdateLedger | None = None


def _batch_plan(n: int, batch_size: int, order: np.ndarray) -> list:
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def train(model: ModelArtifact, dataset: LabeledDataset, cfg: TrainConfig,
          record_ledger: bool = False, isolate_classes=None,
          provenance: dict | None = None) -> TrainResult:
    """Train ``model`` on ``dataset``; returns a new artifact plus logs.

    ``isolate_classes`` (an iterable of class ids) activates forget-isolated
    batching: those classes train in their own batches and every such batch
    is flagged in the ledger. Epochs == 0 returns the model unchanged.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    prov = provenance or dict(model.provenance)
    iso = frozenset(int(c) for c in (isolate_classes or ()))
    init_snapshot = copy_params(model.params) if record_ledger else None
    if cfg.epochs == 0:
        out = model.with_params(copy_params(model.params), prov)
        ledger = UpdateLedger([], init_snapshot, params_hash(out.params), [], []) \
            if record_ledger else None
        return TrainResult(out, audit=[], epoch_losses=[], ledger=ledger)

    tf = model.trainable_from
    if tf > 0:
        feats = frozen_features(model, dataset.x, tf)
        live_layers = model.layers[tf:]
        live_params = copy_params(model.params[tf:])
        inputs = feats
    else:
        live_layers = model.layers
        live_params = copy_params(model.params)
        inputs = dataset.x
    y = dataset.y
    n = len(dataset)
    gen = rngmod.stream(cfg.seed, rngmod.STREAM_BATCH)
    velocity = None
    audit, entries, epoch_losses = [], [], []
    if record_ledger:
        total = [{} for _ in range(tf)] + [{k: np.zeros_like(v) for k, v in p.items()}
                                           for p in live_params]
        flagged_sum = copy_params(total)
    batch_id = 0
    forget_rows = np.isin(y, sorted(iso)) if iso else np.zeros(n, dtype=bool)
    intro_at = max(cfg.epochs - cfg.intro_epochs, 0) if iso else 0

    for epoch in range(cfg.epochs):
        joint = epoch >= intro_at
        if iso:
            rest_idx = np.flatnonzero(~forget_rows)
            batches = _batch_plan(len(rest_idx), cfg.batch_size,
                                  rest_idx[gen.permutation(len(rest_idx))])
            if joint:
                forget_idx = np.flatnonzero(forget_rows)
                batches += _batch_plan(len(forget_idx), cfg.batch_size,
                                       forget_idx[gen.permutation(len(forget_idx))])
                batches = [batches[i] for i in gen.permutation(len(batches))]
        else:
            batches = _batch_plan(n, cfg.batch_size, gen.permutation(n))
        loss_sum, loss_n = 0.0, 0
        for idx in batches:
            flagged = iso and bool(forget_rows[idx].any())
            if iso and joint:
                scale = cfg.intro_lr_scale if flagged else cfg.intro_rest_scale
            else:
                scale = 1.0
            batch_lr = cfg.lr * scale
            bundle, loss = ad.grad_params(live_layers, live_params,
                                          inputs[idx], y[idx])
            if cfg.optimizer == "sgd-momentum":
                if velocity is None:
                    velocity = [{k: np.zeros_like(v) for k, v in g.items()}
                                for g in bundle.param_grads]
                for vel, g in zip(velocity, bundle.param_grads):
                    for k in vel:
                        vel[k] = cfg.momentum * vel[k] + g[k]
                step_grads = velocity
            else:
                step_grads = bundle.param_grads
            live_params, deltas = ad.apply_update(live_params, step_grads, batch_lr)
            labels = sorted(set(int(v) for v in y[idx]))
            audit.append((batch_id, labels))
            if record_ledger:
                entries.append(LedgerEntry(batch_id, flagged))
                for sums in (total, flagged_sum) if flagged else (total,):
                    for layer_sum, layer_delta in zip(sums[tf:], deltas):
                        for k, v in layer_delta.items():
                            layer_sum[k] += v
            loss_sum += loss * len(idx)
            loss_n += len(idx)
            batch_id += 1
        epoch_losses.append(loss_sum / loss_n)

    final_params = copy_params(model.params[:tf]) + live_params
    out = model.with_params(final_params, prov)
    ledger = UpdateLedger(entries, init_snapshot, params_hash(final_params),
                          total, flagged_sum) if record_ledger else None
    return TrainResult(out, audit=audit, epoch_losses=epoch_losses, ledger=ledger)


def frozen_features(model: ModelArtifact, x: np.ndarray, boundary: int) -> np.ndarray:
    """Output of layers ``[:boundary]`` on ``x``."""
    return chunked_forward(model.layers[:boundary], model.params[:boundary], x)


def class_accuracy(model: ModelArtifact, dataset: LabeledDataset,
                   classes) -> float:
    """Accuracy restricted to samples whose true label is in ``classes``."""
    mask = np.isin(dataset.y, sorted(int(c) for c in classes))
    if not mask.any():
        raise ValueError(f"dataset holds no samples of classes {sorted(classes)}")
    return model.accuracy(dataset.x[mask], dataset.y[mask])
