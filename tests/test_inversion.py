import numpy as np
import pytest

import brute
from ulklab import inversion as inv
from ulklab import models


def uniform_oracle(n_classes, input_shape=(4,)):
    """Oracle that answers every query with the uniform distribution."""
    fn = lambda x: np.full(n_classes, 1.0 / n_classes)
    return inv.QueryOracle(fn, input_shape=input_shape, n_classes=n_classes)


def tiny_model(seed=0, dim=6, n_classes=3, hidden=8):
    return models.build(models.mlp_spec(dim, n_classes, hidden=hidden), seed)


# ---------------------------------------------------------------------------
# configs and the IPV record


def test_wb_config_rejects_bad_values():
    with pytest.raises(ValueError):
        inv.InversionConfigWB(k_inits=0)
    with pytest.raises(ValueError):
        inv.InversionConfigWB(iterations=-1)
    with pytest.raises(ValueError):
        inv.InversionConfigWB(lr=0.0)
    with pytest.raises(ValueError):
        inv.InversionConfigWB(lam_l2=-1e-9)
    with pytest.raises(ValueError):
        inv.InversionConfigWB(lam_tv=-0.5)
    with pytest.raises(ValueError):
        inv.InversionConfigWB(box=(1.0, 1.0))
    with pytest.raises(ValueError):
        inv.InversionConfigWB(box=(0.0, np.inf))


def test_default_wb_config_on_vector_model():
    model = tiny_model()
    cfg = inv.default_wb_config(model, seed=7)
    assert cfg.lam_tv == 0.0
    assert cfg.box == (inv.VALID_LO, inv.VALID_HI)
    assert cfg.seed == 7
    # explicit override wins over the default box
    assert inv.default_wb_config(model, seed=7, box=None).box is None


def test_ga_config_rejects_bad_values():
    with pytest.raises(ValueError):
        inv.GAConfig(population=3)
    with pytest.raises(ValueError):
        inv.GAConfig(decay=1.0)
    with pytest.raises(ValueError):
        inv.GAConfig(decay=0.0)
    with pytest.raises(ValueError):
        inv.GAConfig(elite=0)
    with pytest.raises(ValueError):
        inv.GAConfig(population=8, elite=8)
    with pytest.raises(ValueError):
        inv.GAConfig(generations=-1)
    with pytest.raises(ValueError):
        inv.GAConfig(sigma0=-0.1)
    with pytest.raises(ValueError):
        inv.GAConfig(query_budget=0)
    with pytest.raises(ValueError, match=r"mutation rate must lie in \[0, 1\], got 1.5"):
        inv.GAConfig(mutation_rate=1.5)


def test_ipv_validates_distribution_and_peak():
    good = np.array([0.2, 0.3, 0.5])
    inv.InvertedPredictionVector(0, good, 0.5, 0.2, 0)
    with pytest.raises(ValueError):
        inv.InvertedPredictionVector(0, np.array([0.2, 0.3]), 0.3, 0.2, 0)
    with pytest.raises(ValueError):
        inv.InvertedPredictionVector(0, good, 0.3, 0.2, 0)
    with pytest.raises(ValueError):
        inv.InvertedPredictionVector(0, good, 0.5, 0.2, -1)


def test_ipv_probs_are_frozen():
    ipv = inv._ipv(1, [0.25, 0.75], fitness=0.25, queries=3)
    assert not ipv.probs.flags.writeable
    assert ipv.max_prob == 0.75
    assert ipv.queries == 3


def test_query_oracle_counts_rows():
    oracle = uniform_oracle(5)
    assert oracle.queries == 0
    for i in range(4):
        probs = oracle(np.zeros(4))
        assert oracle.queries == i + 1
        assert probs.shape == (5,)
    probs = oracle(np.zeros((3, 4)), rows=True)
    assert probs.shape == (3, 5)
    assert oracle.queries == 7
    # a plain callable answers a batch one row at a time
    seen = []
    oracle = inv.QueryOracle(lambda x: seen.append(x.copy()) or np.full(2, 0.5),
                             input_shape=(4,), n_classes=2)
    rows = np.arange(12.0).reshape(3, 4)
    assert oracle(rows, rows=True).shape == (3, 2)
    assert oracle.queries == 3
    assert [r.tobytes() for r in seen] == [r.tobytes() for r in rows]
    # a model answers a batch bit-equal to its lone answers
    model = tiny_model(seed=3)
    oracle = inv.QueryOracle(model)
    xs = np.random.default_rng(0).uniform(size=(7, 6))
    batch = oracle(xs, rows=True)
    assert oracle.queries == 7
    assert all(batch[i].tobytes() == oracle(x).tobytes() for i, x in enumerate(xs))
    assert oracle.queries == 14


def test_query_oracle_wraps_model_metadata():
    model = tiny_model()
    oracle = inv.QueryOracle(model)
    assert oracle.input_shape == (6,)
    assert oracle.n_classes == 3
    probs = oracle(np.zeros(6))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# GA operators


def breed(population, sigma_g, seed=0, rate=None, n_children=None, fitness=None):
    population = np.asarray(population, dtype=np.float64)
    n = len(population) if n_children is None else n_children
    fit = np.ones(len(population)) if fitness is None else fitness
    return inv.ga_breed(population, fit, n, sigma_g,
                        np.random.default_rng(seed), rate=rate)


def test_crossover_hand_cases():
    # with no mutation a child is a run of one parent's genes, then the other's
    pop = np.array([[1.0] * 4, [2.0] * 4]) / 2.0
    for child in breed(pop, 0.0, n_children=200):
        changes = np.flatnonzero(np.diff(child))
        assert len(changes) <= 1
        assert set(child) <= {0.5, 1.0}


def test_crossover_genes_come_from_parents():
    rng = np.random.default_rng(41)
    for _ in range(100):
        d = int(rng.integers(2, 30))
        pop = rng.uniform(size=(int(rng.integers(2, 9)), d))
        for child in breed(pop, 0.0, seed=int(rng.integers(1000))):
            heads = [c for c in range(1, d) for p in pop
                     if np.array_equal(child[:c], p[:c])]
            assert any(np.array_equal(child[c:], p[c:]) for c in heads for p in pop)


def test_mutate_touches_one_coordinate_and_stays_in_box():
    rng = np.random.default_rng(42)
    for _ in range(200):
        d = int(rng.integers(2, 20))
        row = rng.uniform(size=d)
        pop = np.stack([row] * 4)
        out = breed(pop, 0.8, seed=int(rng.integers(1000)))
        assert np.all(np.sum(out != row, axis=1) <= 1)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert not np.shares_memory(out, pop)


def test_mutate_sigma_zero_is_identity():
    row = np.linspace(0.1, 0.9, 7)
    out = breed(np.stack([row] * 5), 0.0)
    assert np.array_equal(out, np.stack([row] * 5))


def test_mutate_rate_mode():
    pop = np.full((4, 50), 0.5)
    out = breed(pop, 0.3, seed=43, rate=1.0)
    # every coordinate perturbed (zero draws have measure zero)
    assert np.all(out != 0.5)
    assert np.array_equal(breed(pop, 0.3, rate=0.0), pop)


def test_parent_draw_matches_generator_choice():
    # ga_breed's parents, cut and mutation draws replayed with
    # Generator.choice(p=weights): a NumPy change to choice fails here
    # instead of moving every BB digest. Row i of the population holds i/n,
    # so a child without mutation names its parents and its cut.
    rng = np.random.default_rng(47)
    for trial in range(1500):
        n, d = int(rng.integers(4, 65)), int(rng.integers(2, 6))
        fitness = rng.uniform(size=n) ** rng.uniform(0.5, 8.0)
        fitness[rng.uniform(size=n) < rng.uniform()] = 0.0  # floored weights
        if trial % 3 == 0:
            fitness[rng.integers(n)] = 1.0 - 1e-9
        pop = np.repeat((np.arange(n) / n)[:, None], d, axis=1)
        children = inv.ga_breed(pop, fitness, 3, 0.0, np.random.default_rng(trial))
        floored = np.maximum(fitness, inv.FITNESS_FLOOR)
        replay = np.random.default_rng(trial)
        for child in children:
            i1, i2 = replay.choice(n, size=2, p=floored / floored.sum())
            cut = int(replay.integers(1, d))
            replay.integers(d), replay.standard_normal()
            assert np.array_equal(child, np.r_[pop[i1, :cut], pop[i2, cut:]])


def test_sigma_schedule_closed_form():
    cfg = inv.GAConfig(sigma0=0.5, decay=0.98)
    assert inv.ga_sigma(cfg, 0) == 0.5
    assert inv.ga_sigma(cfg, 1) == 0.5 * 0.98
    assert inv.ga_sigma(cfg, 25) == 0.5 * 0.98 ** 25


# ---------------------------------------------------------------------------
# white-box descent


def test_wb_descent_reduces_loss_from_random_starts():
    rng = np.random.default_rng(44)
    cfg = inv.InversionConfigWB(k_inits=1, iterations=40, lr=0.05, box=None)
    for seed in range(5):
        model = tiny_model(seed=seed)
        target = int(rng.integers(model.spec.n_classes))
        x0 = rng.standard_normal(model.spec.input_shape)
        _, initial, final, converged = inv.wb_descend(model, target, x0, cfg)
        assert converged
        assert final <= initial + 1e-12


def test_wb_descent_respects_box():
    model = tiny_model(seed=3)
    cfg = inv.InversionConfigWB(iterations=25, lr=0.5, box=(0.0, 1.0))
    x, _, _, _ = inv.wb_descend(model, 1, 5.0 * np.ones(6), cfg)
    assert x.min() >= 0.0 and x.max() <= 1.0


def test_wb_zero_iterations_scores_the_start():
    model = tiny_model(seed=5)
    cfg = inv.InversionConfigWB(k_inits=3, iterations=0, seed=9)
    ipv = inv.invert_whitebox(model, 0, cfg)
    assert ipv.queries == 0
    assert ipv.fitness == pytest.approx(ipv.probs[0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_wb_all_inits_diverged():
    model = tiny_model(seed=1)
    cfg = inv.InversionConfigWB(k_inits=2, iterations=3, lr=1e200, box=None)
    with pytest.raises(inv.AllInitsDiverged):
        inv.invert_whitebox(model, 0, cfg)


def test_wb_rejects_out_of_range_target():
    model = tiny_model()
    with pytest.raises(ValueError):
        inv.invert_whitebox(model, 3, inv.InversionConfigWB(iterations=1))


def test_wb_is_deterministic():
    model = tiny_model(seed=2)
    cfg = inv.InversionConfigWB(k_inits=2, iterations=30, seed=17)
    a = inv.invert_whitebox(model, 1, cfg)
    b = inv.invert_whitebox(model, 1, cfg)
    assert a.probs.tobytes() == b.probs.tobytes()
    assert a.fitness == b.fitness


def test_wb_finds_confident_inputs_on_clean_benchmark_model(bundles):
    model = bundles(0).clean
    cfg = inv.default_wb_config(model, seed=0)
    for t in (0, 3, 7):
        ipv = inv.invert_whitebox(model, t, cfg)
        assert int(np.argmax(ipv.probs)) == t
        assert ipv.max_prob >= 0.95


def test_wb_separates_forgotten_class_after_retraining(bundles):
    bundle = bundles(0)
    model = bundle.unlearned("rt").artifact
    cfg = inv.default_wb_config(model, seed=0)
    ipvs = inv.build_ipv_set("wb", model, cfg)
    forgotten = ipvs[3].max_prob
    retained = [v.max_prob for v in ipvs if v.target != 3]
    assert forgotten < min(retained)


# ---------------------------------------------------------------------------
# black-box search


def test_bb_query_accounting_small_run():
    oracle = uniform_oracle(4)
    cfg = inv.GAConfig(population=4, generations=3, elite=1, seed=0)
    ipv = inv.invert_blackbox(oracle, 0, cfg)
    # 4 init evals + 3 generations of 3 children + 1 readout
    assert ipv.queries == 4 + 3 * 3 + 1
    assert oracle.queries == ipv.queries
    assert not ipv.truncated


def test_bb_default_query_count_per_class():
    cfg = inv.GAConfig()
    total = cfg.population \
        + cfg.generations * (cfg.population - cfg.elite) + 1
    assert total == 9365


def test_bb_budget_truncates_and_reserves_readout():
    for budget in (1, 2, 10, 13):
        oracle = uniform_oracle(4)
        cfg = inv.GAConfig(population=4, generations=50, elite=1,
                           seed=0, query_budget=budget)
        ipv = inv.invert_blackbox(oracle, 1, cfg)
        assert ipv.queries == budget
        assert ipv.truncated
        assert ipv.fitness == pytest.approx(0.25)


def test_bb_generous_budget_does_not_truncate():
    oracle = uniform_oracle(4)
    cfg = inv.GAConfig(population=4, generations=2, elite=1,
                       seed=0, query_budget=1000)
    ipv = inv.invert_blackbox(oracle, 0, cfg)
    assert ipv.queries == 4 + 2 * 3 + 1
    assert not ipv.truncated


def test_bb_history_is_monotone_nondecreasing():
    model = tiny_model(seed=6)
    oracle = inv.QueryOracle(model)
    cfg = inv.GAConfig(population=8, generations=25, elite=2, seed=3)
    history = []
    inv.invert_blackbox(oracle, 2, cfg, history=history)
    assert len(history) == 1 + cfg.generations
    assert all(b >= a for a, b in zip(history, history[1:]))
    assert history[-1] > history[0]


def test_bb_is_deterministic():
    model = tiny_model(seed=4)
    cfg = inv.GAConfig(population=8, generations=10, seed=5)
    a = inv.invert_blackbox(inv.QueryOracle(model), 1, cfg)
    b = inv.invert_blackbox(inv.QueryOracle(model), 1, cfg)
    assert a.probs.tobytes() == b.probs.tobytes()
    assert a.queries == b.queries


def test_bb_non_finite_oracle_raises_inversion_error():
    def nan_after(n_finite):
        calls = []

        def fn(x):
            calls.append(1)
            if len(calls) > n_finite:
                return np.array([np.nan, 0.5, 0.5])
            return np.full(3, 1.0 / 3)
        return inv.QueryOracle(fn, input_shape=(4,), n_classes=3)

    cfg = inv.GAConfig(population=4, generations=3, elite=1, seed=0)
    # a NaN fitness in the initial population, then in a generation
    for n_finite in (0, 5):
        with pytest.raises(inv.InversionError, match="fitness nan"):
            inv.invert_blackbox(nan_after(n_finite), 0, cfg)
    # budget 1: the only query is the readout
    with pytest.raises(inv.InversionError, match="readout"):
        inv.invert_blackbox(nan_after(0), 1,
                            inv.GAConfig(population=4, query_budget=1))
    # the first non-finite fitness in row order is the one reported
    answers = iter([np.full(3, 1.0 / 3)] * 5 + [np.array([np.inf, 0.0, 0.0]),
                                                 np.array([np.nan, 0.5, 0.5])])
    mixed = inv.QueryOracle(lambda x: next(answers), input_shape=(4,), n_classes=3)
    with pytest.raises(inv.InversionError, match="fitness inf"):
        inv.invert_blackbox(mixed, 0, cfg)
    inf_oracle = inv.QueryOracle(lambda x: np.array([np.inf, 0.0]),
                                 input_shape=(4,), n_classes=2)
    with pytest.raises(inv.InversionError, match="fitness inf"):
        inv.invert_blackbox(inf_oracle, 0, cfg)
    assert issubclass(inv.InversionError, ValueError)


def test_bb_requires_an_input_shape():
    oracle = inv.QueryOracle(lambda x: np.ones(3) / 3, n_classes=3)
    with pytest.raises(ValueError):
        inv.invert_blackbox(oracle, 0, inv.GAConfig(generations=0))


def test_bb_recovers_retained_but_not_forgotten_class(bundles):
    bundle = bundles(0)
    clean = bundle.clean
    rt = bundle.unlearned("rt").artifact
    cfg = inv.GAConfig(population=32, generations=40, seed=0)
    kept = inv.invert_blackbox(inv.QueryOracle(clean), 3, cfg)
    gone = inv.invert_blackbox(inv.QueryOracle(rt), 3, cfg)
    assert kept.fitness >= 0.8
    assert gone.fitness <= kept.fitness - 0.3


# ---------------------------------------------------------------------------
# the batched attacks against the sequential reference in brute.py


def _outcome(fn):
    """(probs bytes, fitness) of a successful run, else the error raised."""
    try:
        return fn()
    except (ValueError, RuntimeError) as e:
        return type(e).__name__, str(e)


def _wb_reference(model, t, cfg):
    probs, fitness = brute.whitebox_sequential(model, t, cfg)
    return probs.tobytes(), fitness


def _wb_lone(model, t, cfg):
    ipv = inv.invert_whitebox(model, t, cfg)
    return ipv.probs.tobytes(), ipv.fitness


def _wb_set(model, cfg):
    return [(v.probs.tobytes(), v.fitness) for v in inv.build_ipv_set("wb", model, cfg)]


def _assert_wb_matches_reference(model, cfg):
    """The whole set and every lone class, bit for bit or the same error."""
    classes = range(model.spec.n_classes)
    assert _outcome(lambda: _wb_set(model, cfg)) \
        == _outcome(lambda: [_wb_reference(model, t, cfg) for t in classes])
    for t in classes:
        assert _outcome(lambda: _wb_lone(model, t, cfg)) \
            == _outcome(lambda: _wb_reference(model, t, cfg))


def test_wb_matches_sequential_reference():
    for seed in range(3):
        for dim, n_classes, hidden in ((6, 3, 8), (12, 5, 16)):
            model = tiny_model(seed, dim, n_classes, hidden)
            for k, iters, box, l2 in ((1, 0, None, 0.0), (3, 30, (0.0, 1.0), 1e-4),
                                      (4, 40, None, 1e-3)):
                cfg = inv.InversionConfigWB(k_inits=k, iterations=iters, box=box,
                                            lam_l2=l2, seed=seed + 7)
                _assert_wb_matches_reference(model, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_wb_diverged_rows_match_sequential_reference():
    # an output layer scaled near the float limit makes some restarts'
    # losses non-finite, and a huge step makes some iterates non-finite:
    # dropped restarts, AllInitsDiverged and forward's ValueError, in the
    # class order the sequential loop meets them
    seen = set()
    for seed in range(4):
        model = tiny_model(seed)
        model.params[-1]["W"] = model.params[-1]["W"] * 1e306
        for iters, lr in ((0, 0.1), (1, 0.1), (3, 0.1), (1, 1e3), (3, 1e3)):
            cfg = inv.InversionConfigWB(k_inits=4, iterations=iters, lr=lr,
                                        box=None, seed=seed)
            _assert_wb_matches_reference(model, cfg)
            got = _outcome(lambda: _wb_set(model, cfg))
            seen.add(got[0] if isinstance(got[0], str) else "ok")
    assert seen == {"ok", "AllInitsDiverged", "ValueError"}


def test_wb_cnn_matches_sequential_reference():
    model = models.build(models.cnn_spec(12, 12, 1, 4), 0)
    for seed in range(2):
        cfg = inv.InversionConfigWB(k_inits=2, iterations=12, lam_tv=1e-3,
                                    box=(0.0, 1.0), seed=seed)
        assert cfg.lam_tv > 0
        assert _wb_set(model, cfg) == [_wb_reference(model, t, cfg) for t in range(4)]


def test_bb_matches_sequential_reference():
    for seed, (dim, n_classes, hidden, population) in enumerate(
            ((6, 3, 8, 8), (12, 4, 16, 16))):
        model = tiny_model(seed, dim, n_classes, hidden)
        lone = inv.QueryOracle(lambda x: brute.lone_proba(model, x),
                               input_shape=(dim,), n_classes=n_classes)
        for budget in (1, 2, 13, 64, 65, 66, 127, None):
            for elite in (1, 2, 3):
                for rate in (None, 0.2):
                    cfg = inv.GAConfig(population=population, generations=12,
                                       elite=elite, seed=seed, query_budget=budget,
                                       mutation_rate=rate)
                    oracle = inv.QueryOracle(model)
                    lone.queries = 0
                    for t in range(n_classes):
                        got_hist, want_hist = [], []
                        ipv = inv.invert_blackbox(oracle, t, cfg, history=got_hist)
                        probs, fit, queries, truncated = brute.blackbox_sequential(
                            lone, t, cfg, (dim,), history=want_hist)
                        assert ipv.probs.tobytes() == probs.tobytes()
                        assert (ipv.fitness, ipv.queries, ipv.truncated) \
                            == (fit, queries, truncated)
                        assert got_hist == want_hist
                    assert oracle.queries == lone.queries


def test_bb_fitness_ties_keep_the_first_best():
    # fitness in steps of 1/4 ties often; the readout still depends on x,
    # so keeping a later tied child instead of the first would show
    def quantized(x):
        f = np.floor(4.0 * x.mean()) / 4.0
        return np.array([f, (1.0 - f) * x[0], (1.0 - f) * (1.0 - x[0])])

    for seed in range(3):
        for budget in (13, 66, None):
            cfg = inv.GAConfig(population=8, generations=10, elite=2, seed=seed,
                               query_budget=budget)
            oracle = inv.QueryOracle(quantized, input_shape=(4,), n_classes=3)
            ipv = inv.invert_blackbox(oracle, 0, cfg)
            probs, fitness, queries, truncated = brute.blackbox_sequential(
                oracle, 0, cfg, (4,))
            assert ipv.probs.tobytes() == probs.tobytes()
            assert (ipv.fitness, ipv.queries, ipv.truncated) == (fitness, queries, truncated)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_build_ipv_set_wb_names_the_first_diverging_class():
    model = tiny_model(seed=1)
    cfg = inv.InversionConfigWB(k_inits=2, iterations=3, lr=1e200, box=None)
    with pytest.raises(inv.AllInitsDiverged, match="all 2 inits diverged for class 0$"):
        inv.build_ipv_set("wb", model, cfg)


# ---------------------------------------------------------------------------
# the set builder


def test_build_ipv_set_orders_by_class(bundles):
    model = bundles(0).clean
    cfg = inv.default_wb_config(model, seed=0)
    ipvs = inv.build_ipv_set("wb", model, cfg)
    assert [v.target for v in ipvs] == list(range(10))
    # per-class substreams: a lone inversion reproduces the set element
    lone = inv.invert_whitebox(model, 4, cfg)
    assert lone.probs.tobytes() == ipvs[4].probs.tobytes()


def test_build_ipv_set_bb_accumulates_oracle_queries():
    model = tiny_model(seed=8)
    oracle = inv.QueryOracle(model)
    cfg = inv.GAConfig(population=4, generations=2, elite=1, seed=0)
    ipvs = inv.build_ipv_set("bb", oracle, cfg)
    per_class = 4 + 2 * 3 + 1
    assert [v.queries for v in ipvs] == [per_class] * 3
    assert oracle.queries == 3 * per_class


def test_build_ipv_set_rejects_bad_inputs():
    model = tiny_model()
    with pytest.raises(TypeError):
        inv.build_ipv_set("wb", inv.QueryOracle(model))
    with pytest.raises(ValueError):
        inv.build_ipv_set("gray", model)
    headless = inv.QueryOracle(lambda x: np.ones(3) / 3, input_shape=(4,))
    with pytest.raises(ValueError):
        inv.build_ipv_set("bb", headless, inv.GAConfig(generations=0))
