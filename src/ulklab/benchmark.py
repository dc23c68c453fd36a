"""Canonical synthetic benchmark: well-separated Gaussian blobs + MLP.

Every experiment that needs "a trained original and its unlearned
variants" goes through here so that tests, the CLI, and the experiment
harness all agree on what the benchmark is. Bundles are built lazily and
cached per (seed, forget-set); bundles of one seed share its dataset and
clean model. A full five-method suite for one seed trains in a few seconds
on a laptop.
"""

from dataclasses import dataclass, replace, field

from .data import ForgetTask, LabeledDataset, gen_blobs, split_forget
from .models import ModelArtifact, ModelSpec, build, mlp_spec
from .training import TrainConfig, TrainResult, class_accuracy, train
from .unlearning import METHODS, UnlearnedModel, run_method, train_with_ledger

DATASET_SEED_BASE = 1000
DEFAULT_FORGET = frozenset({3})


@dataclass(frozen=True)
class BenchmarkSpec:
    """Shape of the blob benchmark and its training schedule.

    ``ledger_epochs`` governs the separate ledgered training run that
    amnesiac unlearning subtracts from; it is longer than the clean run
    because the forget classes only join in the final damped window.
    """

    n_classes: int = 10
    n_per_class: int = 200
    dim: int = 32
    separation: float = 4.25
    hidden: int = 64
    epochs: int = 20
    ledger_epochs: int = 25
    lr: float = 0.1
    batch_size: int = 32

    def model_spec(self) -> ModelSpec:
        return mlp_spec(self.dim, self.n_classes, hidden=self.hidden)

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, lr=self.lr,
                           batch_size=self.batch_size, seed=seed)

    def ledger_config(self, seed: int) -> TrainConfig:
        return replace(self.train_config(seed), epochs=self.ledger_epochs)

    def dataset(self, seed: int) -> LabeledDataset:
        return gen_blobs(self.n_classes, self.n_per_class, self.dim,
                         self.separation, seed=DATASET_SEED_BASE + seed)


@dataclass
class SeedBundle:
    """Lazily trained artifacts for one benchmark seed and forget set.

    ``seed_cache`` holds what depends on the seed alone (the dataset and
    the clean model); ``BundleCache`` hands every forget set of one seed
    the same dict, so those are built once per seed.
    """

    bench: BenchmarkSpec
    seed: int
    forget: frozenset = DEFAULT_FORGET
    seed_cache: dict = field(default_factory=dict, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dataset(self) -> LabeledDataset:
        if "dataset" not in self.seed_cache:
            self.seed_cache["dataset"] = self.bench.dataset(self.seed)
        return self.seed_cache["dataset"]

    @property
    def task(self) -> ForgetTask:
        return ForgetTask(self.forget, dataset_id=self.dataset.split)

    @property
    def spec(self) -> ModelSpec:
        return self.bench.model_spec()

    @property
    def clean(self) -> ModelArtifact:
        """The original model, trained on all classes with no ledger."""
        if "clean" not in self.seed_cache:
            result = train(build(self.spec, self.seed), self.dataset,
                           self.bench.train_config(self.seed))
            self.seed_cache["clean"] = result.model
        return self.seed_cache["clean"]

    @property
    def ledgered(self) -> TrainResult:
        """Original trained with an update ledger (amnesiac-ready)."""
        if "ledgered" not in self._cache:
            self._cache["ledgered"] = train_with_ledger(
                self.spec, self.dataset, self.task,
                self.bench.ledger_config(self.seed))
        return self._cache["ledgered"]

    def unlearned(self, method: str) -> UnlearnedModel:
        if method not in self._cache:
            if method == "au":
                led = self.ledgered
                um = run_method("au", self.spec, led.model, self.dataset,
                                self.task, self.bench.ledger_config(self.seed),
                                ledger=led.ledger)
            else:
                base = None if method == "rt" else self.clean
                um = run_method(method, self.spec, base, self.dataset,
                                self.task, self.bench.train_config(self.seed))
            self._cache[method] = um
        return self._cache[method]

    def suite(self) -> dict:
        return {m: self.unlearned(m) for m in METHODS}

    def original_for(self, method: str) -> ModelArtifact:
        """The pre-unlearning reference model for a method."""
        return self.ledgered.model if method == "au" else self.clean

    def accuracies(self, method: str) -> dict:
        """Forget/rest accuracy before and after one unlearning method."""
        base = self.original_for(method)
        after = self.unlearned(method).artifact
        d_rest, _ = split_forget(self.dataset, self.task)
        rest_classes = set(range(self.bench.n_classes)) - self.forget
        return {
            "forget_before": class_accuracy(base, self.dataset, self.forget),
            "forget_after": class_accuracy(after, self.dataset, self.forget),
            "rest_before": class_accuracy(base, d_rest, rest_classes),
            "rest_after": class_accuracy(after, d_rest, rest_classes),
        }


class BundleCache:
    """Process-wide bundle store so test modules share trained models."""

    def __init__(self, bench: BenchmarkSpec | None = None):
        self.bench = bench or BenchmarkSpec()
        self._bundles: dict = {}
        self._seed_caches: dict = {}

    def get(self, seed: int, forget=DEFAULT_FORGET) -> SeedBundle:
        key = (seed, frozenset(forget))
        if key not in self._bundles:
            self._bundles[key] = SeedBundle(
                self.bench, seed, frozenset(forget),
                seed_cache=self._seed_caches.setdefault(seed, {}))
        return self._bundles[key]
