from ulklab import benchmark
from ulklab.benchmark import BenchmarkSpec, BundleCache


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
