from ulklab import benchmark
from ulklab.benchmark import BenchmarkSpec, BundleCache
from ulklab.training import params_hash
from ulklab.unlearning import METHODS


def test_forget_sets_of_one_seed_share_dataset_and_clean_model(monkeypatch):
    calls = []
    real_train = benchmark.train

    def counting_train(*args, **kwargs):
        calls.append(1)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(benchmark, "train", counting_train)
    cache = BundleCache(BenchmarkSpec(n_per_class=20, epochs=2))
    a, b = cache.get(0, {3}), cache.get(0, {1, 2})
    assert a is not b and a.task != b.task
    assert a.clean is b.clean
    assert a.dataset is b.dataset
    assert len(calls) == 1
    other = cache.get(1, {3})
    assert other.clean is not a.clean
    assert len(calls) == 2


# params_hash of each unlearned model and of the ledger's two delta sums,
# seed 0, forget {0, 1, 2}: the training step may change how it runs, not
# one bit of what it computes
PINNED = {
    "rt": "d43ec7688d1d37ef3a72caaf51ee7573e8625beae00898af4d1f700939fac094",
    "ft": "2c9e51ca66796ecd4ca02435f273158af701668ef048aacfd18968ec982d45a1",
    "rl": "2dc8f6ea981bbbb6a300a6a773de51ed084845886b9d8182dfb8557128411694",
    "au": "8d279ca2caf7cc0b8f6888f85e358c040b3b65ff336775d02cdd2e1451790247",
    "ng": "effa6d73459f1136e161e2c1ca423bcf9487f5db5822e5744bb4df60df5c83da",
    "total": "bf097d6016a7eb73678e15f5ab13990f04931c709d71f2d6f92cc7b8ba2603ea",
    "flagged": "8bd3a3a3eeed7bcf4fa7bcd9c33d4b57a6dae5b79c7b0b6f0c45e675fc740e80",
}


def test_benchmark_targets_are_pinned(bundles):
    bundle = bundles(0, {0, 1, 2})
    got = {m: params_hash(bundle.unlearned(m).artifact.params) for m in METHODS}
    got["total"] = params_hash(bundle.ledgered.ledger.total)
    got["flagged"] = params_hash(bundle.ledgered.ledger.flagged)
    assert got == PINNED
