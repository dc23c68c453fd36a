import numpy as np
import pytest

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
    with pytest.raises(ValueError):
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


def test_query_oracle_counts_calls():
    oracle = uniform_oracle(5)
    assert oracle.queries == 0
    for i in range(4):
        probs = oracle(np.zeros(4))
        assert oracle.queries == i + 1
        assert probs.shape == (5,)
    assert inv.ga_fitness(oracle, np.zeros(4), 2) == pytest.approx(0.2)
    assert oracle.queries == 5


def test_query_oracle_wraps_model_metadata():
    model = tiny_model()
    oracle = inv.QueryOracle(model)
    assert oracle.input_shape == (6,)
    assert oracle.n_classes == 3
    probs = oracle(np.zeros(6))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# GA operators


def test_crossover_hand_cases():
    p1 = np.array([1.0, 1.0, 1.0, 1.0])
    p2 = np.array([2.0, 2.0, 2.0, 2.0])
    assert np.array_equal(inv.ga_crossover(p1, p2, 2), [1, 1, 2, 2])
    assert np.array_equal(inv.ga_crossover(p1, p2, 4), p1)
    assert np.array_equal(inv.ga_crossover(p1, p2, 0), p2)


def test_crossover_genes_come_from_parents():
    rng = np.random.default_rng(41)
    for _ in range(100):
        d = int(rng.integers(2, 30))
        p1, p2 = rng.normal(size=(2, d))
        cut = int(rng.integers(0, d + 1))
        child = inv.ga_crossover(p1, p2, cut)
        assert np.array_equal(child[:cut], p1[:cut])
        assert np.array_equal(child[cut:], p2[cut:])


def test_crossover_rejects_bad_parents():
    with pytest.raises(ValueError):
        inv.ga_crossover(np.zeros(3), np.zeros(4), 1)
    with pytest.raises(ValueError):
        inv.ga_crossover(np.zeros((2, 2)), np.zeros((2, 2)), 1)
    with pytest.raises(ValueError):
        inv.ga_crossover(np.zeros(3), np.zeros(3), 4)


def test_mutate_touches_one_coordinate_and_stays_in_box():
    rng = np.random.default_rng(42)
    for _ in range(200):
        d = int(rng.integers(2, 20))
        child = rng.uniform(size=d)
        out = inv.ga_mutate(child, 0.8, rng)
        assert np.sum(out != child) <= 1
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert not np.shares_memory(out, child)


def test_mutate_sigma_zero_is_identity():
    child = np.linspace(0.1, 0.9, 7)
    out = inv.ga_mutate(child, 0.0, np.random.default_rng(0))
    assert np.array_equal(out, child)


def test_mutate_rate_mode():
    rng = np.random.default_rng(43)
    child = np.full(50, 0.5)
    out = inv.ga_mutate(child, 0.3, rng, rate=1.0)
    # every coordinate perturbed (zero draws have measure zero)
    assert np.sum(out != child) == 50
    out = inv.ga_mutate(child, 0.3, np.random.default_rng(0), rate=0.0)
    assert np.array_equal(out, child)


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
