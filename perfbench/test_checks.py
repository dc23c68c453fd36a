"""Each output check passes the lab's real output and rejects a corrupted one.

    python3 -m pytest -q perfbench
"""

from dataclasses import replace

import numpy as np
import pytest

import brute
import checks as ck
from instrument import Patches, Tracer
from ulklab import autodiff as ad
from ulklab import inversion as inv
from ulklab import param_attack as pa
from ulklab import screening as scr
from ulklab.data import ForgetTask, gen_blobs
from ulklab.models import build, mlp_spec
from ulklab.training import TrainConfig
from ulklab.unlearning import retrain, rollback_all, train_with_ledger


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="module")
def tiny_model():
    return build(mlp_spec(6, 3, hidden=8), seed=0)


@pytest.fixture(scope="module")
def ledgered():
    data = gen_blobs(3, 30, 6, 4.0, seed=1)
    task = ForgetTask(frozenset({1}))
    cfg = TrainConfig(epochs=4, lr=0.1, batch_size=8, seed=2, intro_epochs=2)
    spec = mlp_spec(6, 3, hidden=8)
    return spec, data, task, cfg, train_with_ledger(spec, data, task, cfg)


def _labels(x, rng):
    y = (x[:, 2] > 0.1).astype(np.int64)
    flip = rng.uniform(size=len(y)) < 0.15
    return np.where(flip, 1 - y, y)


@pytest.mark.parametrize("integer_valued", [False, True])
def test_best_stumps_matches_brute(rng, integer_valued):
    for _ in range(30):
        n, d = int(rng.integers(5, 40)), int(rng.integers(1, 5))
        x = rng.normal(size=(n, d))
        if integer_valued:
            x = np.round(x * 2)
        y = rng.integers(0, 2, size=n)
        gain, best = ck.best_stumps(x, y)
        want_gain, want = brute.stump_best_splits(x, y)
        assert best == want
        assert gain == pytest.approx(want_gain, abs=1e-12)


def test_tree_root_check(rng):
    x = rng.normal(size=(80, 6))
    y = _labels(x, rng)
    root = pa.tree_fit(x, y, max_depth=3).root
    assert ck.check_tree_root(x, y, root) is None
    other = (root.feature + 1) % x.shape[1]
    assert ck.check_tree_root(x, y, replace(root, feature=other))
    assert ck.check_tree_root(x, y, replace(root, threshold=root.threshold + 1e-3))
    assert ck.check_tree_root(x, y, pa.TreeNode(label=0))


def test_youden_check(rng):
    labels = rng.integers(0, 2, size=60)
    scores = rng.normal(size=60) - labels
    cut = pa.youden_threshold(scores, labels)
    assert ck.check_youden(scores, labels, cut) is None
    assert ck.check_youden(scores, labels, replace(cut, threshold=cut.threshold + 0.5))
    assert ck.check_youden(scores, labels, replace(cut, j_stat=cut.j_stat - 0.01))
    flipped = "high" if cut.orientation == "low" else "low"
    assert ck.check_youden(scores, labels, replace(cut, orientation=flipped))


def test_kmeans_check(rng):
    scores = np.concatenate([rng.normal(size=20), rng.normal(size=25) + 3])
    km = pa.kmeans_1d(scores)
    assert ck.check_kmeans(scores, km) is None
    assert ck.check_kmeans(scores, replace(km, sse=km.sse * 1.001))


def test_asr_floor_check():
    assert ck.check_asr_floor("param-diff", "tree", [100.0, 80.0]) is None
    assert ck.check_asr_floor("param-diff", "tree", [90.0, 70.0])
    assert ck.check_asr_floor("invert-bb", "threshold", [70.0, 50.0])


@pytest.mark.parametrize("budget", [None, 20])
def test_bb_vector_check(tiny_model, budget):
    cfg = inv.GAConfig(population=8, generations=5, seed=3, query_budget=budget)
    history = []
    ipv = inv.invert_blackbox(inv.QueryOracle(tiny_model), 1, cfg,
                              history=history)
    assert ck.check_bb_vector(cfg, ipv, history) is None
    assert ck.check_bb_vector(cfg, replace(ipv, queries=ipv.queries - 1), history)
    assert ck.check_bb_vector(cfg, replace(ipv, truncated=not ipv.truncated),
                              history)
    assert ck.check_bb_vector(cfg, ipv, history + [history[-1] - 0.1])


def test_bb_vector_count_comes_from_the_config():
    cfg = inv.GAConfig()
    assert ck.full_ga_queries(cfg) == 9365


def test_oracle_total_check(tiny_model):
    oracle = inv.QueryOracle(tiny_model)
    ipvs = inv.build_ipv_set("bb", oracle,
                             inv.GAConfig(population=8, generations=3, seed=0))
    assert ck.check_oracle_total(oracle.queries, ipvs) is None
    assert ck.check_oracle_total(oracle.queries + 1, ipvs)


def test_input_gradient_check(tiny_model, rng):
    x = rng.uniform(size=6)
    grad = ad.grad_input(tiny_model.layers, tiny_model.params, x, 2, 1e-4)
    assert ck.check_input_gradient(tiny_model, x, 2, 1e-4, grad) is None
    bad = grad.copy()
    bad[0] *= 1.0 + 1e-4
    assert ck.check_input_gradient(tiny_model, x, 2, 1e-4, bad)


def test_entropy_sse_check(rng):
    ipvs = []
    for t in range(6):
        logits = rng.normal(size=6) * (4.0 if t % 2 else 0.3)
        probs = np.exp(logits) / np.exp(logits).sum()
        ipvs.append(inv._ipv(t, probs, probs[t], 0))
    report = scr.entropy_criterion(ipvs)
    assert ck.check_entropy_sse(report) is None
    assert ck.check_entropy_sse(replace(report, sse=report.sse + 1e-3))


def test_rollback_check(ledgered):
    spec, _, _, cfg, led = ledgered
    rolled = rollback_all(led.model, led.ledger)
    init = build(spec, cfg.seed).params
    assert ck.check_rollback(rolled, init) is None
    rolled[0]["W"][0, 0] += 1e-6
    assert ck.check_rollback(rolled, init)


def test_ledger_check(ledgered):
    _, data, task, cfg, led = ledgered
    sizes = np.bincount(data.y)
    want = ck.ledger_batches(sizes, task.forget_classes, cfg.batch_size,
                             cfg.epochs, cfg.intro_epochs)
    assert want == (4 * 8 + 2 * 4, 2 * 4)
    assert ck.check_ledger(led.ledger, want) is None
    short = replace(led.ledger, entries=led.ledger.entries[:-1])
    assert ck.check_ledger(short, want)
    flipped = [replace(e, contains_forget=not e.contains_forget)
               if i == 0 else e for i, e in enumerate(led.ledger.entries)]
    assert ck.check_ledger(replace(led.ledger, entries=flipped), want)


def test_forget_accuracy_check():
    assert ck.check_forget_accuracy("rt", 0.05) is None
    assert ck.check_forget_accuracy("rt", 0.2)


def test_patches_wrap_every_name_and_undo():
    from ulklab import benchmark, param_attack, training, unlearning
    original = training.train
    patches = Patches()
    assert patches.wrap("training:train", lambda fn: lambda *a, **k: fn(*a, **k))
    for mod in (training, benchmark, unlearning, param_attack):
        assert mod.train is not original
    assert not patches.wrap("training:no_such_function", lambda fn: fn)
    assert patches.missing == ["training:no_such_function"]
    patches.undo()
    for mod in (training, benchmark, unlearning, param_attack):
        assert mod.train is original


def test_tracer_self_times_exclude_children(ledgered):
    spec, data, task, cfg, _ = ledgered
    from ulklab.data import split_forget
    d_rest, _ = split_forget(data, task)
    with Tracer() as tracer:
        retrain(spec, d_rest, cfg, task)
    metrics = tracer.metrics()
    cols = tracer.columns()
    total = float((cols["end"] - cols["start"])[cols["parent"] < 0].sum())
    self_sum = sum(v for k, v in metrics.items()
                   if k.endswith("_s") and k != "trace.overhead_s")
    assert self_sum == pytest.approx(total, rel=1e-9)
    assert metrics["training.train_calls"] == 1
    assert metrics["training.sgd_steps"] == cfg.epochs * 8
    assert metrics["autodiff.grad_params_calls"] == cfg.epochs * 8
    assert metrics["param_attack.tree_fit_s"] == 0.0
    assert tracer.missing == []
