"""Experiment orchestration over the blob benchmark.

A run is described by a flat key=value config with dotted keys; defaults
fill in whatever is not given, the effective config is canonicalized,
and its hash names the run directory, so identical configs land in
identical places with identical bytes (wall-time column aside). Every
(method, forget-set, seed) cell is attacked independently; a cell that
raises is logged to errors.log and skipped rather than killing the run.

The ULK_SEED environment variable, when set, replaces the configured
seed list; it exists so wrappers can fan one config out across workers.
Each run directory also gets ``env.json``, the machine facts a digest
that moves between machines can be explained by; the determinism
fingerprint does not read it.
"""

import functools
import hashlib
import json
import math
import os
import platform
import time
from dataclasses import dataclass

import numpy as np

from . import inversion as inv
from . import param_attack as pa
from . import reports as rep
from . import rng as rngmod
from . import screening as scr
from .benchmark import BundleCache
from .data import ForgetTask
from .unlearning import METHODS

DEFAULTS = {
    "data.kind": "blobs",
    "unlearn.method": "rt",
    "unlearn.forget": "3",
    "attack": "invert-wb",
    "screen.criterion": "threshold",
    "screen.alpha": "1.0",
    "seeds": "1,2,3,4,5",
    "attack.budget": "0",
    "sweep.max_forget": "0",
}

ATTACKS = ("param-dot", "param-diff", "invert-wb", "invert-bb", "guess")

# which screening criteria make sense for which attack
CRITERIA = {
    "param-dot": ("youden", "kmeans"),
    "param-diff": ("tree",),
    "invert-wb": ("threshold", "entropy"),
    "invert-bb": ("threshold", "entropy"),
    "guess": ("none",),
}

GUESS_P = 0.5

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_config(pairs) -> dict:
    """key=value strings -> dict; rejects malformed and duplicate keys."""
    if isinstance(pairs, dict):
        return dict(pairs)
    out = {}
    for raw in pairs:
        key, sep, value = raw.partition("=")
        if not sep or not key:
            raise ValueError(f"expected key=value, got {raw!r}")
        if key in out:
            raise ValueError(f"duplicate config key {key!r}")
        out[key] = value
    return out


def parse_ids(text: str, what: str) -> tuple:
    """Sorted unique integers from "a,b,c"; errors name ``what`` (the config
    key or CLI flag). An empty string fails too, as its one token is ""."""
    try:
        return tuple(sorted({int(tok) for tok in text.split(",")}))
    except ValueError:
        raise ValueError(f"{what} must be comma-joined integers, "
                         f"got {text!r}") from None


def resolve_config(overrides=None, env=None) -> dict:
    """Defaults + overrides + environment, validated.

    Unknown keys are rejected. ULK_SEED in ``env`` (default: the process
    environment) replaces the seed list.
    """
    cfg = dict(DEFAULTS)
    extra = parse_config(overrides or {})
    unknown = sorted(set(extra) - set(DEFAULTS))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; "
                         f"known: {sorted(DEFAULTS)}")
    cfg.update(extra)
    env = os.environ if env is None else env
    seed_override = env.get("ULK_SEED", "")
    if seed_override:
        cfg["seeds"] = seed_override

    if cfg["data.kind"] != "blobs":
        raise ValueError(f"unsupported data.kind {cfg['data.kind']!r}")
    if cfg["unlearn.method"] not in METHODS + ("all",):
        raise ValueError(f"unlearn.method must be one of {METHODS} or "
                         f"'all', got {cfg['unlearn.method']!r}")
    if cfg["attack"] not in ATTACKS:
        raise ValueError(f"attack must be one of {ATTACKS}, "
                         f"got {cfg['attack']!r}")
    if cfg["screen.criterion"] not in CRITERIA[cfg["attack"]]:
        raise ValueError(
            f"criterion {cfg['screen.criterion']!r} does not apply to "
            f"{cfg['attack']}; choose from {CRITERIA[cfg['attack']]}")
    parse_ids(cfg["unlearn.forget"], "unlearn.forget")
    parse_ids(cfg["seeds"], "seeds")
    if not math.isfinite(_parse_value(cfg, "screen.alpha", float)):
        raise ValueError(f"screen.alpha must be finite, got {cfg['screen.alpha']!r}")
    for key in ("attack.budget", "sweep.max_forget"):
        if _parse_value(cfg, key, int) < 0:
            raise ValueError(f"{key} cannot be negative")
    return cfg


def _parse_value(cfg: dict, key: str, kind):
    """``kind(cfg[key])``; a parse failure names the key."""
    try:
        return kind(cfg[key])
    except ValueError:
        raise ValueError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                         f"got {cfg[key]!r}") from None


def canonical_config(cfg: dict) -> str:
    return "".join(f"{k}={cfg[k]}\n" for k in sorted(cfg))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_config(cfg).encode()).hexdigest()[:12]


def random_guess_predict(n_classes: int, seed: int) -> frozenset:
    """Flag each class independently with probability ``GUESS_P``; the
    no-signal baseline any real attack has to beat."""
    gen = rngmod.stream(seed, rngmod.STREAM_SCREEN)
    mask = gen.uniform(size=n_classes) < GUESS_P
    return frozenset(int(i) for i in mask.nonzero()[0])


@dataclass
class RunResult:
    run_dir: str
    config: dict
    config_hash: str
    reports: list
    errors: list


@functools.cache
def _process_facts() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def _machine_facts() -> dict:
    """The Python and NumPy versions and the BLAS thread variables, read
    once per process, and whether NumPy's ziggurat tables passed the check
    that lets GA breeding replay its draws: None until breeding in this
    process has run that check, so runs that never breed never pay for it."""
    checked = inv.ziggurat_tables.cache_info().currsize
    return dict(_process_facts(), ziggurat_check_passed=(
        inv.ziggurat_tables() is not None) if checked else None)


def _model_label(spec) -> str:
    return f"{spec.kind}-" + "x".join(str(d) for d in spec.dims)


def _screen_predicted(criterion: str, ipvs, alpha: float) -> frozenset:
    if criterion == "threshold":
        return scr.threshold_criterion(ipvs, thr_alpha=alpha).predicted
    return scr.entropy_criterion(ipvs).predicted


def _once(make):
    """A function that returns ``make()``, computed on its first call; a
    failure is kept and raised again on every later call."""
    memo = []

    def get():
        if not memo:
            try:
                memo.append((make(), None))
            except Exception as exc:
                memo.append((None, exc.with_traceback(None)))
        value, exc = memo[0]
        if exc is not None:
            raise exc
        return value
    return get


def _attack_cell(cfg, bundle, method: str, seed: int, aux_draw) -> frozenset:
    """The predicted forgotten set of one cell. ``aux_draw()`` gives the
    aux-head draw that the param cells of ``bundle`` share."""
    attack = cfg["attack"]
    if attack == "guess":
        return random_guess_predict(bundle.bench.n_classes, seed)
    target = bundle.unlearned(method).artifact
    # the heads are passed unbound, so param_diff_attack can free them early
    if attack == "param-dot":
        return pa.param_dot_attack(
            target, bundle.dataset, bundle.task, seed,
            screen=cfg["screen.criterion"],
            aux=pa.train_aux_models(target, aux_draw())).predicted
    if attack == "param-diff":
        return pa.param_diff_attack(
            target, bundle.dataset, bundle.task, seed,
            aux=pa.train_aux_models(target, aux_draw())).predicted
    alpha = float(cfg["screen.alpha"])
    if attack == "invert-wb":
        ipvs = inv.build_ipv_set(
            "wb", target, inv.default_wb_config(target, seed=seed))
    else:
        budget = int(cfg["attack.budget"]) or None
        ipvs = inv.build_ipv_set(
            "bb", inv.QueryOracle(target),
            inv.GAConfig(seed=seed, query_budget=budget))
    return _screen_predicted(cfg["screen.criterion"], ipvs, alpha)


def run_experiment(overrides=None, out_root: str = ".",
                   cache: BundleCache | None = None,
                   env=None) -> RunResult:
    """Run the configured attack grid and persist it under ``out_root``.

    The grid is seeds x methods, and additionally forget-set sizes
    1..sweep.max_forget when the sweep is on (the swept sets are
    {0}, {0,1}, ...; unlearn.forget is ignored then). Cell failures are
    isolated: the run completes and errors.log lists what broke.
    """
    cfg = resolve_config(overrides, env=env)
    h = config_hash(cfg)
    cache = cache or BundleCache()
    methods = METHODS if cfg["unlearn.method"] == "all" \
        else (cfg["unlearn.method"],)
    seeds = parse_ids(cfg["seeds"], "seeds")
    max_sweep = int(cfg["sweep.max_forget"])
    if max_sweep:
        forget_sets = [frozenset(range(n)) for n in range(1, max_sweep + 1)]
    else:
        forget_sets = [frozenset(parse_ids(cfg["unlearn.forget"], "unlearn.forget"))]
    for forget in forget_sets:
        ForgetTask(forget).validate_against(cache.bench.n_classes)

    run_dir = os.path.join(out_root, f"run-{h}")
    os.makedirs(run_dir, exist_ok=True)
    results, errors = [], []
    for forget in forget_sets:
        for seed in seeds:
            bundle = cache.get(seed, forget)
            n_classes = bundle.bench.n_classes
            aux_draw = _once(lambda b=bundle, s=seed: pa.draw_aux(
                b.spec, b.dataset, b.task, s))
            for method in methods:
                run_id = f"{h}:{method}-n{len(forget)}-s{seed}"
                t0 = time.perf_counter()
                try:
                    predicted = _attack_cell(cfg, bundle, method, seed,
                                             aux_draw)
                except Exception as exc:
                    errors.append(f"{run_id}: {type(exc).__name__}: {exc}")
                    continue
                model = "none" if cfg["attack"] == "guess" \
                    else _model_label(bundle.spec)
                results.append(rep.attack_report(
                    run_id, bundle.dataset.split, model, method,
                    cfg["attack"], cfg["screen.criterion"], predicted,
                    forget, n_classes, seed, h,
                    time.perf_counter() - t0))

    with open(os.path.join(run_dir, "config.txt"), "w") as fh:
        fh.write(canonical_config(cfg))
    with open(os.path.join(run_dir, "env.json"), "w") as fh:
        json.dump(_machine_facts(), fh, indent=1, sort_keys=True)
    rep.write_reports(os.path.join(run_dir, "reports.csv"), results)
    err_path = os.path.join(run_dir, "errors.log")
    if errors:
        with open(err_path, "w") as fh:
            fh.writelines(line + "\n" for line in errors)
    elif os.path.exists(err_path):
        os.remove(err_path)
    return RunResult(run_dir, cfg, h, results, errors)


def determinism_fingerprint(run_dir: str) -> str:
    """Hash of a run directory's contents with wall times masked out.

    Two runs of the same config must agree on this fingerprint
    byte-for-byte; wall_time is the one column allowed to vary, and
    env.json is not read.
    """
    digest = hashlib.sha256()
    with open(os.path.join(run_dir, "config.txt"), "rb") as fh:
        digest.update(fh.read())
    for report in rep.read_reports(os.path.join(run_dir, "reports.csv")):
        row = report.to_row()
        row[-1] = "0"
        digest.update(",".join(row).encode())
        digest.update(b"\n")
    err_path = os.path.join(run_dir, "errors.log")
    if os.path.exists(err_path):
        with open(err_path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()
