"""Wrapping the lab's public functions from outside the package.

Two users share one patching helper:

* ``Tracer`` records a span (name, start, end, parent) around every call
  of the layer functions listed in ``LAYERS`` and derives self times and
  counts from those spans. It runs only in the traced run.
* ``Recorder`` (in checks.py) keeps the outputs of a few coarse functions
  so the checks can read them after the timed region.

A function imported by name into several modules (``train`` lives in
``training`` and is imported into ``benchmark``, ``unlearning`` and
``param_attack``) is replaced under every name it is bound to, so calls
through any of those names are seen. Methods and properties are patched on
their class. A target that no longer exists is skipped and reported, so a
later change that removes a function does not break the run.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "ulklab"


def _resolve(target: str):
    """'module:Qualified.name' -> (owner, attribute, original value)."""
    mod_name, _, qual = target.partition(":")
    owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


class Patches:
    """Replaces targets in the loaded package and puts them back on undo."""

    def __init__(self):
        self._undo = []
        self.missing = []

    def wrap(self, target: str, make_wrapper) -> bool:
        """Swap ``target`` for ``make_wrapper(original)`` everywhere.

        Returns False (and remembers the target) when it does not exist.
        """
        try:
            owner, attr, orig = _resolve(target)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return False
        if isinstance(owner, type):
            if isinstance(orig, property):
                new = property(make_wrapper(orig.fget))
            else:
                new = make_wrapper(orig)
            self._set(owner, attr, new)
            return True
        new = make_wrapper(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, new)
        return True

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# counters: (counts, args, kwargs, result) -> None, run after the call


def _rows(x) -> int:
    """Rows in a forward/query input; every harness route is an MLP, whose
    single samples are 1-D."""
    arr = x if isinstance(x, np.ndarray) else getattr(x, "data", x)
    arr = np.asarray(arr)
    return 1 if arr.ndim == 1 else int(arr.shape[0])


def _tree_nodes(node) -> int:
    if node is None:
        return 0
    return 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


def _calls(name):
    def count(counts, args, kwargs, result):
        counts[name] += 1
    return count


def _count_tree(counts, args, kwargs, result):
    counts["param_attack.tree_fits"] += 1
    counts["param_attack.tree_nodes"] += _tree_nodes(result.root)


def _count_aux(counts, args, kwargs, result):
    counts["param_attack.aux_heads"] += len(result)


def _count_descend(counts, args, kwargs, result):
    counts["inversion.wb_restarts"] += 1
    counts["inversion.wb_restarts_converged"] += int(bool(result[3]))


def _count_blackbox(counts, args, kwargs, result):
    counts["inversion.bb_truncated"] += int(bool(result.truncated))


def _count_oracle(counts, args, kwargs, result):
    counts["inversion.bb_queries"] += _rows(args[1])


def _rows_counter(prefix: str, arg_index: int, kwarg: str):
    def count(counts, args, kwargs, result):
        x = args[arg_index] if len(args) > arg_index else kwargs[kwarg]
        counts[prefix + "_calls"] += 1
        counts[prefix + "_rows"] += _rows(x)
    return count


def _count_train(counts, args, kwargs, result):
    counts["training.train_calls"] += 1
    counts["training.sgd_steps"] += len(result.audit)
    if result.ledger is not None:
        nbytes = sum(v.nbytes for entry in result.ledger.entries
                     for layer in entry.deltas for v in layer.values())
        counts["training.ledger_mb"] += nbytes / 2**20


def _trace_field(name: str, key: str):
    def count(counts, args, kwargs, result):
        counts[name] += (result.trace or {}).get(key, 0)
    return count


def _count_cells(counts, args, kwargs, result):
    counts["harness.cells"] += len(result.reports) + len(result.errors)


# (span name, target, counter). A span's self time is reported as
# "<span name>_s"; several targets may share one span name.
LAYERS = (
    ("param_attack.tree_fit", "param_attack:tree_fit", _count_tree),
    ("param_attack.tree_predict", "param_attack:tree_predict", None),
    ("param_attack.aux_heads", "param_attack:train_aux_models", _count_aux),
    ("models.clone_frozen_head_template",
     "models:clone_frozen_head_template", None),
    ("param_attack.features", "param_attack:dot_features", None),
    ("param_attack.features", "param_attack:diff_features", None),
    ("param_attack.youden", "param_attack:youden_threshold", None),
    ("param_attack.kmeans", "param_attack:kmeans_1d", None),
    ("inversion.wb", "inversion:invert_whitebox", None),
    ("inversion.wb_descend", "inversion:wb_descend", _count_descend),
    ("autodiff.loss_total", "autodiff:loss_total",
     _calls("autodiff.loss_total_calls")),
    ("autodiff.backward", "autodiff:Tensor.backward", None),
    ("inversion.bb", "inversion:invert_blackbox", _count_blackbox),
    ("inversion.oracle", "inversion:QueryOracle.__call__", _count_oracle),
    ("models.predict_proba", "models:ModelArtifact.predict_proba",
     _rows_counter("models.predict_proba", 1, "x")),
    ("autodiff.grad_params", "autodiff:grad_params",
     _rows_counter("autodiff.grad_params", 2, "batch_x")),
    ("training.train", "training:train", _count_train),
    ("autodiff.forward", "autodiff:forward",
     _rows_counter("autodiff.forward", 2, "x")),
    ("unlearning.rt", "unlearning:retrain", None),
    ("unlearning.ft", "unlearning:fine_tune", None),
    ("unlearning.rl", "unlearning:random_label", None),
    ("unlearning.au", "unlearning:amnesiac",
     _trace_field("unlearning.au_flagged_batches", "n_flagged_batches")),
    ("unlearning.ng", "unlearning:negative_gradient",
     _trace_field("unlearning.ng_epochs", "epochs_run")),
    ("benchmark.clean", "benchmark:SeedBundle.clean", None),
    ("benchmark.ledgered", "benchmark:SeedBundle.ledgered", None),
    ("data.gen_blobs", "data:gen_blobs", None),
    ("screening.threshold", "screening:threshold_criterion", None),
    ("screening.entropy", "screening:entropy_criterion", None),
    ("harness.run_experiment", "harness:run_experiment", _count_cells),
    ("reports.write", "reports:write_reports", None),
)

# count metrics the counters above fill in, reported 0 when never hit
COUNTS = (
    "param_attack.tree_fits", "param_attack.tree_nodes",
    "param_attack.aux_heads", "inversion.wb_restarts",
    "inversion.wb_restarts_converged", "autodiff.loss_total_calls",
    "inversion.bb_queries", "inversion.bb_truncated",
    "models.predict_proba_calls", "models.predict_proba_rows",
    "autodiff.grad_params_calls", "autodiff.grad_params_rows",
    "training.train_calls", "training.sgd_steps",
    "autodiff.forward_calls", "autodiff.forward_rows",
    "unlearning.ng_epochs", "unlearning.au_flagged_batches",
    "harness.cells",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


class Tracer:
    """In-memory span log around every ``LAYERS`` target.

    Spans are stored column-wise in typed arrays (name id, parent index,
    start, end) so millions of single-row calls stay affordable.
    """

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.counts = defaultdict(float)
        self._patches = Patches()

    def _wrapper(self, name: str, counter):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        counts = self.counts
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = len(self.start)
                self.name_id.append(nid)
                self.parent.append(self._stack[-1] if self._stack else -1)
                self.start.append(clock())
                self.end.append(0.0)
                self._stack.append(i)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end[i] = clock()
                    self._stack.pop()
                if counter is not None:
                    counter(counts, args, kwargs, result)
                return result
            return traced
        return make

    def __enter__(self):
        for name, target, counter in LAYERS:
            self._patches.wrap(target, self._wrapper(name, counter))
        return self

    def __exit__(self, *exc):
        self._patches.undo()
        return False

    @property
    def missing(self) -> list:
        return self._patches.missing

    def columns(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def self_times(self) -> dict:
        """Per span name: summed duration minus time covered by children."""
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child = np.bincount(cols["parent"][has_parent],
                            weights=dur[has_parent], minlength=len(dur))
        per_name = np.bincount(cols["name_id"], weights=dur - child,
                               minlength=len(self.names))
        return {name: float(per_name[i]) for i, name in enumerate(self.names)}

    def metrics(self) -> dict:
        """Every layer metric; a target that no longer exists reads 0."""
        out = {f"{name}_s": 0.0 for name, _, _ in LAYERS}
        out.update({f"{name}_s": t for name, t in self.self_times().items()})
        out.update({name: float(self.counts.get(name, 0)) for name in COUNTS})
        out["training.ledger_mb"] = float(
            self.counts.get("training.ledger_mb", 0.0))
        out["benchmark.clean_trainings"] = float(
            self._spans_with_child("benchmark.clean", "training.train"))
        return out

    def _spans_with_child(self, parent_name: str, child_name: str) -> int:
        """How many ``parent_name`` spans hold at least one ``child_name``
        span. The clean-model property returns its cached model on every
        later read, so only the reads that trained have a train child."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        cols = self.columns()
        parents = cols["parent"][cols["name_id"] == self._ids[child_name]]
        parents = parents[parents >= 0]
        hits = parents[cols["name_id"][parents] == self._ids[parent_name]]
        return int(np.unique(hits).size)

    def save(self, out_dir) -> None:
        """Write the span columns and their name table."""
        np.savez(out_dir / "spans.npz", **self.columns())
        (out_dir / "span_names.json").write_text(json.dumps(self.names))
