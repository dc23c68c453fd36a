"""Acceptance gate: ten pinned criteria, one test per criterion.

Each test ends with a single verdict line (printed, and enforced by the
final assert). Bounds and wall-clock caps are pinned in the tests
themselves. Trained benchmark models are shared through the session
bundle cache, so each criterion's cap covers its own work, not repeat
training.
"""

import time

import numpy as np
import pytest

import brute
from gradcheck import FD_TOL, check_case, random_conv_case, random_mlp_case
from ulklab import harness as hz
from ulklab import inversion as inv
from ulklab import param_attack as pa
from ulklab import reports as rep
from ulklab import screening as scr
from ulklab.models import build
from ulklab.unlearning import METHODS, rollback_all

SEEDS = (0, 1, 2, 3, 4)
N_CLASSES = 10
MULTI_FORGET = frozenset({3, 5, 7})
SWEEP_SEEDS = (0, 1, 2)

# GA best-fitness trajectories logged by criterion 7, audited by 10
GA_HISTORIES: list = []

# white-box IPV sets computed once per (seed, forget, method) cell
_WB_CACHE: dict = {}


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def _asr(predicted, truth) -> float:
    return rep.attack_success_rate(predicted, truth, N_CLASSES)


def _wb_ipvs(bundle, method: str):
    key = (bundle.seed, bundle.forget, method)
    if key not in _WB_CACHE:
        target = bundle.unlearned(method).artifact
        cfg = inv.default_wb_config(target, seed=bundle.seed)
        _WB_CACHE[key] = inv.build_ipv_set("wb", target, cfg)
    return _WB_CACHE[key]


def test_c01_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9001)
    worst, cases = 0.0, 0
    for i in range(16):
        layers, params, x, y = random_mlp_case(rng)
        lam_l2 = 0.0 if i % 2 == 0 else 1e-4
        worst = max(worst, check_case(layers, params, x, y, lam_l2=lam_l2))
        cases += 1
    for _ in range(4):
        layers, params, x, y = random_conv_case(rng)
        worst = max(worst, check_case(layers, params, x, y,
                                      lam_l2=1e-4, lam_tv=1e-4))
        cases += 1
    dt = time.perf_counter() - t0
    ok = cases >= 20 and worst < FD_TOL and dt < 10.0
    _verdict(1, "gradient correctness", ok,
             f"{cases} nets, worst rel err {worst:.2e} "
             f"(tol {FD_TOL:.0e}), {dt:.1f}s (cap 10s)")


def test_c02_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9002)
    for _ in range(500):
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
            assert res.threshold == pytest.approx(
                min(t for t, _ in argmax))
    for _ in range(500):
        n = int(rng.integers(2, 65))
        scores = np.round(rng.normal(size=n) * rng.uniform(0.5, 4), 3)
        if len(np.unique(scores)) < 2:
            continue
        res = pa.kmeans_1d(scores)
        best_sse, _ = brute.kmeans2_best_split(scores)
        assert res.sse == pytest.approx(best_sse, abs=1e-9)
        lo = scores[res.labels == 1]
        hi = scores[res.labels == 0]
        assert lo.max() <= res.boundary <= hi.min()
    for _ in range(500):
        n = int(rng.integers(4, 65))
        d = int(rng.integers(1, 5))
        x = np.round(rng.normal(size=(n, d)), 2)
        y = rng.integers(0, 2, size=n)
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
    for _ in range(500):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(2, 6))
        rows = rng.normal(size=(n, d))
        assign, sse = scr.cluster_rows(rows)
        best_sse, best_parts = brute.best_two_partition_sse(rows)
        assert sse == pytest.approx(best_sse, rel=1e-9, abs=1e-12)
        mine = {frozenset(np.flatnonzero(assign == 0).tolist()),
                frozenset(np.flatnonzero(assign == 1).tolist())}
        assert mine == set(best_parts)
    dt = time.perf_counter() - t0
    ok = dt < 30.0
    _verdict(2, "oracle equivalence", ok,
             f"youden/kmeans/stump/clustering x500 instances each "
             f"all match, {dt:.1f}s (cap 30s)")


def test_c03_unlearning_efficacy(bundles):
    t0 = time.perf_counter()
    worst_forget, worst_drop = 0.0, -1.0
    for seed in SEEDS:
        bundle = bundles(seed)
        for method in METHODS:
            acc = bundle.accuracies(method)
            drop = acc["rest_before"] - acc["rest_after"]
            worst_forget = max(worst_forget, acc["forget_after"])
            worst_drop = max(worst_drop, drop)
            assert acc["forget_after"] < 0.20, \
                f"{method} seed {seed}: forget acc {acc['forget_after']:.3f}"
            assert drop <= 0.05 + 1e-12, \
                f"{method} seed {seed}: rest drop {drop:.3f}"
    dt = time.perf_counter() - t0
    ok = dt < 180.0
    _verdict(3, "unlearning efficacy", ok,
             f"5 methods x 5 seeds: worst forget acc {worst_forget:.3f} "
             f"(<0.20), worst rest drop {worst_drop:.3f} (<=0.05), "
             f"{dt:.0f}s (cap 180s)")


def test_c04_amnesiac_exactness(bundles):
    t0 = time.perf_counter()
    bundle = bundles(0)
    ledgered = bundle.ledgered
    init = build(bundle.spec, seed=0)
    rolled = rollback_all(ledgered.model, ledgered.ledger)
    worst = 0.0
    for layer_rolled, layer_init in zip(rolled, init.params):
        for key in layer_init:
            diff = np.max(np.abs(layer_rolled[key] - layer_init[key]))
            worst = max(worst, float(diff))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 10.0
    _verdict(4, "amnesiac rollback exactness", ok,
             f"max |rolled-back - init| = {worst:.2e} (tol 1e-9), "
             f"{dt:.1f}s (cap 10s)")


def test_c05_parameter_attacks(bundles):
    t0 = time.perf_counter()
    tree_asr, youden_asr, kmeans_asr = [], [], []
    for seed in SEEDS:
        bundle = bundles(seed)
        draw = pa.draw_aux(bundle.spec, bundle.dataset, bundle.task, seed,
                           pa.DEFAULT_SUBSET_SIZE, pa.DEFAULT_MODELS_PER_CLASS)
        for method in METHODS:
            target = bundle.unlearned(method).artifact
            aux = pa.train_aux_models(target, draw)
            truth = bundle.forget
            tree_asr.append(_asr(pa.param_diff_attack(
                target, aux).predicted, truth))
            youden_asr.append(_asr(pa.param_dot_attack(
                target, aux, screen="youden").predicted, truth))
            kmeans_asr.append(_asr(pa.param_dot_attack(
                target, aux, screen="kmeans").predicted, truth))
    means = [float(np.mean(v)) for v in (tree_asr, youden_asr, kmeans_asr)]
    dt = time.perf_counter() - t0
    ok = means[0] >= 85.0 and means[1] >= 75.0 and means[2] >= 75.0 \
        and dt < 600.0
    _verdict(5, "parameter attacks", ok,
             f"mean ASR diff+tree {means[0]:.1f} (>=85), dot+youden "
             f"{means[1]:.1f} (>=75), dot+kmeans {means[2]:.1f} (>=75) "
             f"over 25 cells, {dt:.0f}s (cap 600s)")


def test_c06_whitebox_inversion(bundles):
    t0 = time.perf_counter()
    grids = {}
    for label, forget in (("single", None), ("multi", MULTI_FORGET)):
        thr, ent = [], []
        for seed in SEEDS:
            bundle = bundles(seed) if forget is None \
                else bundles(seed, forget)
            for method in METHODS:
                ipvs = _wb_ipvs(bundle, method)
                thr.append(_asr(scr.threshold_criterion(ipvs).predicted,
                                bundle.forget))
                ent.append(_asr(scr.entropy_criterion(ipvs).predicted,
                                bundle.forget))
        grids[label] = (float(np.mean(thr)), float(np.mean(ent)))
    dt = time.perf_counter() - t0
    (s_thr, s_ent), (m_thr, m_ent) = grids["single"], grids["multi"]
    ok = s_thr >= 90.0 and s_ent >= 90.0 and m_thr >= 80.0 \
        and m_ent >= 80.0 and dt < 600.0
    _verdict(6, "white-box inversion", ok,
             f"single-class mean ASR thr {s_thr:.1f} / ent {s_ent:.1f} "
             f"(>=90); 3-class thr {m_thr:.1f} / ent {m_ent:.1f} (>=80); "
             f"{dt:.0f}s (cap 600s)")


def test_c07_blackbox_inversion(bundles):
    t0 = time.perf_counter()
    budget = inv.GA_POPULATION + inv.GA_GENERATIONS \
        * (inv.GA_POPULATION - inv.GA_ELITE) + 1
    assert budget == 9365
    asrs = []
    for seed in SEEDS:
        bundle = bundles(seed)
        for method in METHODS:
            oracle = inv.QueryOracle(bundle.unlearned(method).artifact)
            ipvs = []
            for target in range(N_CLASSES):
                history: list = []
                ipv = inv.invert_blackbox(
                    oracle, target,
                    inv.GAConfig(seed=seed, query_budget=budget),
                    history=history)
                assert not ipv.truncated
                assert ipv.queries == budget
                GA_HISTORIES.append(history)
                ipvs.append(ipv)
            asrs.append(_asr(scr.threshold_criterion(ipvs).predicted,
                             bundle.forget))
    mean = float(np.mean(asrs))
    ci_lo, _ = rep.bootstrap_mean(asrs, seed=0)
    dt = time.perf_counter() - t0
    ok = mean >= 65.0 and ci_lo > 50.0 and dt < 1200.0
    _verdict(7, "black-box inversion", ok,
             f"mean ASR {mean:.1f} (>=65) over 25 cells at {budget} "
             f"queries/class, bootstrap 95% lower bound {ci_lo:.1f} "
             f"(>50), {dt:.0f}s (cap 1200s)")


def test_c08_maxprob_separation(bundles):
    t0 = time.perf_counter()
    margins = []
    for seed in SEEDS:
        bundle = bundles(seed)
        ipvs = _wb_ipvs(bundle, "rt")
        forgotten = np.mean([ipvs[c].max_prob for c in bundle.forget])
        retained = min(v.max_prob for v in ipvs
                       if v.target not in bundle.forget)
        margin = retained - float(forgotten)
        margins.append(margin)
        assert margin >= 0.2, f"seed {seed}: margin {margin:.3f}"
    dt = time.perf_counter() - t0
    _verdict(8, "max-prob separation under retraining", True,
             f"margins {['%.2f' % m for m in margins]} all >= 0.2, "
             f"5/5 seeds, {dt:.0f}s")


def test_c09_forgetting_scale_sweep(bundles):
    t0 = time.perf_counter()
    tree_pts, wb_pts = {}, {}
    for n in range(1, 8):
        forget = frozenset(range(n))
        tree_vals, wb_vals = [], []
        for seed in SWEEP_SEEDS:
            bundle = bundles(seed, forget)
            target = bundle.unlearned("rt").artifact
            tree_vals.append(_asr(pa.param_diff_attack(
                target, pa.train_aux_models(target, pa.draw_aux(
                    bundle.spec, bundle.dataset, bundle.task, seed))
            ).predicted, forget))
            ipvs = _wb_ipvs(bundle, "rt")
            wb_vals.append(_asr(scr.threshold_criterion(ipvs).predicted,
                                forget))
        tree_pts[n] = float(np.mean(tree_vals))
        wb_pts[n] = float(np.mean(wb_vals))
    dt = time.perf_counter() - t0
    ok = min(tree_pts.values()) >= 80.0 and wb_pts[7] <= wb_pts[1] - 10.0
    _verdict(9, "forgetting-scale sweep", ok,
             f"diff+tree per-point means {[tree_pts[n] for n in range(1, 8)]} "
             f"all >=80; white-box ASR {wb_pts[1]:.0f} -> {wb_pts[7]:.0f} "
             f"from 1 to 7 classes (drop >=10), {dt:.0f}s")


def test_c10_metric_harness():
    t0 = time.perf_counter()
    truth = frozenset({3})
    trials = [_asr(hz.random_guess_predict(N_CLASSES, s), truth)
              for s in range(200)]
    mean = float(np.mean(trials))
    histories = GA_HISTORIES
    if not histories:
        # standalone invocation: log fresh runs to audit
        from ulklab.models import mlp_spec
        model = build(mlp_spec(6, 3, hidden=8), seed=0)
        histories = []
        for seed in range(3):
            hist: list = []
            inv.invert_blackbox(inv.QueryOracle(model), 0,
                                inv.GAConfig(population=16, generations=60,
                                             seed=seed), history=hist)
            histories.append(hist)
    violations = sum(any(b < a for a, b in zip(h, h[1:]))
                     for h in histories)
    dt = time.perf_counter() - t0
    ok = 45.0 <= mean <= 55.0 and violations == 0
    _verdict(10, "metric harness", ok,
             f"random-guess mean ASR {mean:.1f} over 200 trials "
             f"(50 +/- 5); elitism monotone in {len(histories)} logged "
             f"GA runs, {violations} violations, {dt:.0f}s")
