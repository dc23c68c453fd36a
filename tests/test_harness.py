import os

import numpy as np
import pytest

from ulklab import harness as hz
from ulklab import reports as rep
from ulklab.benchmark import BundleCache
from ulklab.unlearning import METHODS


def test_parse_config_forms():
    assert hz.parse_config(["a=1", "b.c=x"]) == {"a": "1", "b.c": "x"}
    assert hz.parse_config({"a": "1"}) == {"a": "1"}
    assert hz.parse_config(["k="]) == {"k": ""}
    with pytest.raises(ValueError):
        hz.parse_config(["novalue"])
    with pytest.raises(ValueError):
        hz.parse_config(["a=1", "a=2"])


def test_resolve_config_fills_defaults():
    cfg = hz.resolve_config({}, env={})
    assert cfg == hz.DEFAULTS
    cfg = hz.resolve_config(["seeds=7", "unlearn.method=ng"], env={})
    assert cfg["seeds"] == "7"
    assert cfg["unlearn.method"] == "ng"
    assert cfg["attack"] == "invert-wb"


def test_resolve_config_rejects_bad_values():
    with pytest.raises(ValueError, match="unknown config keys"):
        hz.resolve_config({"tpyo": "1"}, env={})
    with pytest.raises(ValueError):
        hz.resolve_config({"unlearn.method": "zap"}, env={})
    with pytest.raises(ValueError):
        hz.resolve_config({"attack": "beam"}, env={})
    with pytest.raises(ValueError, match="seeds must be comma-joined integers"):
        hz.resolve_config({"seeds": "1,x"}, env={})
    with pytest.raises(ValueError, match="screen.alpha must be a number"):
        hz.resolve_config({"screen.alpha": "wide"}, env={})
    for alpha in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="screen.alpha must be finite"):
            hz.resolve_config({"screen.alpha": alpha}, env={})
    for key in ("attack.budget", "sweep.max_forget"):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            hz.resolve_config({key: "many"}, env={})
        with pytest.raises(ValueError, match=f"{key} cannot be negative"):
            hz.resolve_config({key: "-1"}, env={})
    with pytest.raises(ValueError, match="unlearn.forget must be comma-joined"):
        hz.resolve_config({"unlearn.forget": ""}, env={})


def test_resolve_config_criterion_must_match_attack():
    hz.resolve_config({"attack": "param-dot", "screen.criterion": "youden"},
                      env={})
    with pytest.raises(ValueError, match="does not apply"):
        hz.resolve_config({"attack": "param-dot"}, env={})
    with pytest.raises(ValueError, match="does not apply"):
        hz.resolve_config({"attack": "param-diff",
                           "screen.criterion": "entropy"}, env={})


def test_env_seed_override():
    cfg = hz.resolve_config({"seeds": "1,2,3"}, env={"ULK_SEED": "9"})
    assert cfg["seeds"] == "9"
    cfg = hz.resolve_config({"seeds": "1,2,3"}, env={})
    assert cfg["seeds"] == "1,2,3"


def test_canonical_config_and_hash_are_order_free():
    a = hz.resolve_config(["seeds=1", "unlearn.method=ft"], env={})
    b = hz.resolve_config(["unlearn.method=ft", "seeds=1"], env={})
    assert hz.canonical_config(a) == hz.canonical_config(b)
    assert hz.config_hash(a) == hz.config_hash(b)
    c = hz.resolve_config(["seeds=2", "unlearn.method=ft"], env={})
    assert hz.config_hash(a) != hz.config_hash(c)
    assert len(hz.config_hash(a)) == 12
    assert hz.canonical_config(a).endswith("\n")


def test_random_guess_predict_is_seeded_and_in_range():
    a = hz.random_guess_predict(10, 3)
    assert a == hz.random_guess_predict(10, 3)
    assert a <= frozenset(range(10))
    assert len({hz.random_guess_predict(10, s) for s in range(50)}) > 1
    rates = [len(hz.random_guess_predict(10, s)) / 10 for s in range(300)]
    assert 0.45 <= float(np.mean(rates)) <= 0.55


GUESS_CFG = ["attack=guess", "screen.criterion=none", "seeds=0,1,2"]


def test_run_experiment_guess_grid(tmp_path):
    res = hz.run_experiment(GUESS_CFG, out_root=str(tmp_path), env={})
    assert len(res.reports) == 3
    assert res.errors == []
    assert os.path.isdir(res.run_dir)
    assert os.path.basename(res.run_dir) == f"run-{res.config_hash}"
    back = rep.read_reports(os.path.join(res.run_dir, "reports.csv"))
    assert back == res.reports
    assert not os.path.exists(os.path.join(res.run_dir, "errors.log"))
    seen = {r.run_id for r in res.reports}
    assert seen == {f"{res.config_hash}:rt-n1-s{s}" for s in (0, 1, 2)}
    for r in res.reports:
        assert r.truth == frozenset({3})
        assert r.model == "none"


def test_rerun_is_deterministic_modulo_wall_time(tmp_path):
    a = hz.run_experiment(GUESS_CFG, out_root=str(tmp_path / "a"), env={})
    b = hz.run_experiment(GUESS_CFG, out_root=str(tmp_path / "b"), env={})
    fp_a = hz.determinism_fingerprint(a.run_dir)
    assert fp_a == hz.determinism_fingerprint(b.run_dir)
    walls = [r.wall_time for r in a.reports + b.reports]
    assert len(set(walls)) > 1 or walls[0] >= 0.0
    other = hz.run_experiment(GUESS_CFG[:-1] + ["seeds=3,4"],
                              out_root=str(tmp_path / "c"), env={})
    assert hz.determinism_fingerprint(other.run_dir) != fp_a


def test_env_json_holds_machine_facts_outside_the_fingerprint(tmp_path):
    import json
    import platform

    from ulklab import inversion as inv

    def facts_of(run):
        with open(os.path.join(run.run_dir, "env.json")) as fh:
            return json.load(fh)

    inv.ziggurat_tables.cache_clear()
    try:
        # a run that never breeds leaves the table check undone
        a = hz.run_experiment(GUESS_CFG, out_root=str(tmp_path / "a"), env={})
        assert inv.ziggurat_tables.cache_info().currsize == 0
        assert facts_of(a) == {
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": {v: os.environ.get(v) for v in hz.BLAS_THREAD_VARS},
            "ziggurat_check_passed": None}
        inv.ga_breed(np.random.default_rng(0).uniform(size=(4, 3)), np.ones(4), 2,
                     0.1, np.random.Generator(np.random.Philox(0)))
        b = hz.run_experiment(GUESS_CFG, out_root=str(tmp_path / "b"), env={})
        assert facts_of(b) == dict(facts_of(a), ziggurat_check_passed=True)
    finally:
        inv.ziggurat_tables.cache_clear()
    # env.json can say anything without moving the fingerprint
    with open(os.path.join(b.run_dir, "env.json"), "w") as fh:
        json.dump(dict(facts_of(a), numpy="0.0", ziggurat_check_passed=False), fh)
    assert hz.determinism_fingerprint(a.run_dir) == hz.determinism_fingerprint(b.run_dir)


def test_run_experiment_env_seed_override(tmp_path):
    res = hz.run_experiment(GUESS_CFG, out_root=str(tmp_path),
                            env={"ULK_SEED": "5"})
    assert [r.seed for r in res.reports] == [5]
    assert res.config["seeds"] == "5"


def test_cell_failures_are_isolated(tmp_path, monkeypatch):
    real = hz.random_guess_predict

    def flaky(n_classes, seed):
        if seed == 1:
            raise RuntimeError("synthetic cell failure")
        return real(n_classes, seed)

    monkeypatch.setattr(hz, "random_guess_predict", flaky)
    res = hz.run_experiment(GUESS_CFG, out_root=str(tmp_path), env={})
    assert len(res.reports) == 2
    assert [r.seed for r in res.reports] == [0, 2]
    assert len(res.errors) == 1
    assert "rt-n1-s1" in res.errors[0]
    assert "synthetic cell failure" in res.errors[0]
    log = open(os.path.join(res.run_dir, "errors.log")).read()
    assert "RuntimeError" in log


class _NoBundles(BundleCache):
    def get(self, seed, forget=None):
        raise AssertionError("a bundle was built")


@pytest.mark.parametrize("overrides", [
    ["attack=guess", "screen.criterion=none", "unlearn.forget=-1"],
    ["attack=param-dot", "screen.criterion=youden", "unlearn.forget=-1"],
    ["attack=guess", "screen.criterion=none", "unlearn.forget=0,1,2,3,4,5,6,7,8,9"],
    ["attack=guess", "screen.criterion=none", "sweep.max_forget=10"],
], ids=["guess-negative", "param-dot-negative", "every-class", "sweep-every-class"])
def test_run_experiment_rejects_bad_forget_sets_before_any_work(tmp_path, overrides):
    with pytest.raises(ValueError, match="forget"):
        hz.run_experiment(overrides + ["seeds=0"], out_root=str(tmp_path),
                          cache=_NoBundles(), env={})
    assert os.listdir(tmp_path) == []


def test_sweep_emits_one_row_per_forget_size(tmp_path):
    res = hz.run_experiment(
        ["attack=guess", "screen.criterion=none", "seeds=0",
         "sweep.max_forget=4"], out_root=str(tmp_path), env={})
    assert [r.n_forget for r in res.reports] == [1, 2, 3, 4]
    assert [sorted(r.truth) for r in res.reports] == \
        [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]]


def test_run_experiment_param_diff_cell(tmp_path, bundle_cache):
    res = hz.run_experiment(
        ["attack=param-diff", "screen.criterion=tree", "seeds=0"],
        out_root=str(tmp_path), cache=bundle_cache, env={})
    assert res.errors == []
    assert len(res.reports) == 1
    row = res.reports[0]
    assert row.predicted == frozenset({3})
    assert row.asr == 100.0
    assert row.model == "mlp-32x64x10"
    assert row.dataset == "blobs-s1000"
    assert row.wall_time > 0.0


PARAM_ROUTES = [("param-dot", "youden"), ("param-dot", "kmeans"),
                ("param-diff", "tree")]


def _masked_rows(res):
    """reports.csv rows with the config hash and wall time masked."""
    text = open(os.path.join(res.run_dir, "reports.csv"), newline="").read()
    rows = []
    for line in text.split("\r\n")[1:-1]:
        cells = line.replace(res.config_hash, "h").split(",")
        cells[-1] = "0"
        rows.append(",".join(cells))
    return rows


@pytest.mark.parametrize("attack, criterion", PARAM_ROUTES)
def test_param_cells_of_one_run_match_single_method_runs(tmp_path, bundle_cache,
                                                         monkeypatch, attack,
                                                         criterion):
    # the five methods share one aux draw per seed; each row must still
    # be byte-equal to that method's lone run
    draws = []
    real = hz.pa.draw_aux
    monkeypatch.setattr(hz.pa, "draw_aux",
                        lambda *a, **k: draws.append(a[3]) or real(*a, **k))
    base = [f"attack={attack}", f"screen.criterion={criterion}", "seeds=0"]
    every = hz.run_experiment(base + ["unlearn.method=all"],
                              out_root=str(tmp_path), cache=bundle_cache, env={})
    assert draws == [0]
    assert every.errors == [] and len(every.reports) == len(METHODS)
    lone = []
    for method in METHODS:
        res = hz.run_experiment(base + [f"unlearn.method={method}"],
                                out_root=str(tmp_path), cache=bundle_cache,
                                env={})
        lone += _masked_rows(res)
    assert _masked_rows(every) == lone
    assert draws == [0] * (1 + len(METHODS))


def test_a_failing_aux_draw_fails_every_param_cell_with_the_lone_message(
        tmp_path, bundle_cache, monkeypatch):
    calls = []

    def failing(dataset, k, m_models, seed):
        calls.append(seed)
        raise ValueError(f"class 3 holds 5 samples, need k={k}")

    monkeypatch.setattr(hz.pa, "per_class_rows", failing)
    base = ["attack=param-dot", "screen.criterion=youden", "seeds=0,1"]
    every = hz.run_experiment(base + ["unlearn.method=all"],
                              out_root=str(tmp_path), cache=bundle_cache, env={})
    assert calls == [0, 1]
    assert every.reports == []
    lone = hz.run_experiment(base + ["unlearn.method=ng"],
                             out_root=str(tmp_path), cache=bundle_cache, env={})
    message = ": ValueError: class 3 holds 5 samples, need k=20"
    assert [e.split(":", 1)[1] for e in lone.errors] == \
        [f"ng-n1-s{s}{message}" for s in (0, 1)]
    assert [e.split(":", 1)[1] for e in every.errors] == \
        [f"{m}-n1-s{s}{message}" for s in (0, 1) for m in METHODS]
    log = open(os.path.join(every.run_dir, "errors.log")).read().splitlines()
    assert log == every.errors
