"""Run one benchmark workload of the lab and print one result line.

    python3 perfbench/run.py --workload param --seed 0 --seconds 15 --trace 0

A run does what a researcher does with the lab: it trains every target
model the workload's cells read (``setup_s``, timed from process start),
then runs the workload's attack grid through ``harness.run_experiment``
on those warmed models, in whole rounds until ``--seconds`` have passed
(``attack_s`` is the median round). It then checks the outputs outside
the timed region and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the result digest.

With ``--trace 1`` the run first does one untraced set-up and round, then
the same again with every layer function wrapped in spans, and prints the
per-layer metrics (self times and counts) instead. The spans are written
to ``.perfbench_out/trace-<workload>-s<seed>/``.

BLAS is pinned to one thread before NumPy loads; the process is single
threaded throughout.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_T0 = time.perf_counter()


def _process_age() -> float:
    """Seconds since the kernel started this process."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_AGE_AT_T0 = _process_age()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Workload:
    """One attack grid. ``attacks`` holds (attack, criterion, seeds used);
    the seeds of run ``--seed n`` are ``width*n .. width*n + k - 1``, with
    ``width`` the most seeds any attack uses, so neighbouring ``--seed``
    values never share a target model."""

    attacks: tuple
    budget: int = 0          # per-class GA query budget; 0 is the full 9,365
    max_forget: int = 0      # sweep forget sets {0}..{0..n-1}; 0 is {3}
    gate_floors: bool = False
    bundle_checks: bool = False

    @property
    def width(self) -> int:
        return max(n for _, _, n in self.attacks)

    def seeds(self, seed: int, n: int | None = None) -> tuple:
        base = self.width * seed
        return tuple(range(base, base + (self.width if n is None else n)))

    def forget_sets(self) -> list:
        if self.max_forget:
            return [frozenset(range(n)) for n in range(1, self.max_forget + 1)]
        return [frozenset({3})]

    def configs(self, seed: int) -> list:
        return [{"attack": attack, "screen.criterion": criterion,
                 "unlearn.method": "all", "unlearn.forget": "3",
                 "seeds": ",".join(str(s) for s in self.seeds(seed, n)),
                 "attack.budget": str(self.budget),
                 "sweep.max_forget": str(self.max_forget)}
                for attack, criterion, n in self.attacks]


WORKLOADS = {
    # CART split search and aux-head training; inversion never runs
    "param": Workload((("param-dot", "youden", 2), ("param-dot", "kmeans", 2),
                       ("param-diff", "tree", 2)), gate_floors=True),
    # single-row autodiff (WB) and single-row oracle queries (BB). WB's
    # restarts and ASR vary most across seeds, so it runs four; a BB cell
    # spends the same 9,365 queries per class on every seed.
    "invert": Workload((("invert-wb", "entropy", 4),
                        ("invert-bb", "threshold", 1)), gate_floors=True),
    # many trained and unlearned targets with their ledgers, and BB cut
    # short by a small budget
    "sweep": Workload((("invert-bb", "threshold", 2),), budget=500,
                      max_forget=7, bundle_checks=True),
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _warm(cache, wl: Workload, seed: int) -> None:
    """Train every target model the workload's cells read."""
    for forget in wl.forget_sets():
        for s in wl.seeds(seed):
            cache.get(s, forget).suite()


def _round(wl: Workload, seed: int, cache, runs_dir: Path):
    """Every attack cell of the workload once; returns (seconds, results)."""
    from ulklab import harness
    t = time.perf_counter()
    results = [harness.run_experiment(cfg, out_root=str(runs_dir),
                                      cache=cache, env={})
               for cfg in wl.configs(seed)]
    return time.perf_counter() - t, results


def _fingerprints(results) -> list:
    from ulklab import harness
    return [harness.determinism_fingerprint(r.run_dir) for r in results]


def _cells(results) -> tuple:
    attempted = sum(len(r.reports) + len(r.errors) for r in results)
    return attempted, sum(len(r.errors) for r in results)


def _check(wl: Workload, seed: int, cache, recorder, results) -> list:
    """Every output check of the workload; returns the failures."""
    import numpy as np

    import checks as ck
    from ulklab import autodiff as ad
    from ulklab import inversion as inv
    from ulklab.models import build
    from ulklab.unlearning import rollback_all

    failures = []

    def note(msg):
        if msg is not None:
            failures.append(msg)

    for path, y, root in recorder.trees:
        note(ck.check_tree_root(np.load(path), y, root))
    for scores, labels, cut in recorder.youden:
        note(ck.check_youden(scores, labels, cut))
    for scores, km in recorder.kmeans:
        note(ck.check_kmeans(scores, km))
    for cfg, ipv, history in recorder.blackbox:
        note(ck.check_bb_vector(cfg or inv.GAConfig(), ipv, history))
    for report in recorder.entropy:
        note(ck.check_entropy_sse(report))

    _, gradcheck = ck.oracles()
    rng = np.random.default_rng(seed)
    checked = set()
    for attack, target, queries, ipvs in recorder.ipv_sets:
        if attack == "bb":
            note(ck.check_oracle_total(queries, ipvs))
        elif id(target) not in checked:
            checked.add(id(target))
            cfg = inv.default_wb_config(target, seed=0)
            w, b = target.params[0]["W"], target.params[0]["b"]
            for _ in range(100):
                x = rng.uniform(inv.VALID_LO, inv.VALID_HI,
                                size=target.spec.input_shape)
                if np.min(np.abs(x @ w + b)) > gradcheck.KINK_MARGIN:
                    break
            t = int(np.argmin(target.predict_proba(x)))
            grad = ad.grad_input(target.layers, target.params, x, t,
                                 cfg.lam_l2, cfg.lam_tv)
            note(ck.check_input_gradient(target, x, t, cfg.lam_l2, grad))

    if wl.gate_floors:
        for r in results:
            key = (r.config["attack"], r.config["screen.criterion"])
            if key in ck.ASR_FLOORS:
                note(ck.check_asr_floor(*key, [cell.asr for cell in r.reports]))

    if wl.bundle_checks:
        for forget in wl.forget_sets():
            for s in wl.seeds(seed):
                bundle = cache.get(s, forget)
                led = bundle.ledgered
                note(ck.check_rollback(rollback_all(led.model, led.ledger),
                                       build(bundle.spec, s).params))
                cfg = bundle.bench.ledger_config(s)
                sizes = np.bincount(bundle.dataset.y,
                                    minlength=bundle.bench.n_classes)
                note(ck.check_ledger(led.ledger, ck.ledger_batches(
                    sizes, forget, cfg.batch_size, cfg.epochs,
                    cfg.intro_epochs)))
                for method in ck.FORGET_CHECKED:
                    acc = bundle.accuracies(method)["forget_after"]
                    note(ck.check_forget_accuracy(
                        f"seed {s} forget {sorted(forget)} {method}", acc))
    return failures


def _timed(wl, seed, seconds, work):
    """Cold set-up, then whole rounds for ``seconds``; the untraced run."""
    from checks import Recorder
    from ulklab.benchmark import BundleCache

    cache = BundleCache()
    _warm(cache, wl, seed)
    setup_s = _AGE_AT_T0 + time.perf_counter() - _T0
    times, rounds = [], []
    with Recorder(work) as recorder:
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            dt, results = _round(wl, seed, cache, work / "runs")
            times.append(dt)
            rounds.append((_cells(results), _fingerprints(results)))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = _check(wl, seed, cache, recorder, results)
    prints = rounds[0][1]
    if any(p != prints for _, p in rounds):
        failures.append("a later round's outputs differ from the first")
    attempted = sum(a for (a, _), _ in rounds)
    failed = sum(f for (_, f), _ in rounds)
    metrics = {"setup_s": (setup_s, "s"),
               "attack_s": (statistics.median(times), "s"),
               "peak_rss_mb": (peak_mb, "MB")}
    return metrics, attempted, failed, failures, prints


def _traced(wl, seed, work, name):
    """Untraced set-up and round, then the same traced; per-layer metrics."""
    from checks import Recorder
    from instrument import Tracer, unit_of
    from ulklab.benchmark import BundleCache

    cache = BundleCache()
    t = time.perf_counter()
    _warm(cache, wl, seed)
    plain_setup = time.perf_counter() - t
    with Recorder(work) as recorder:
        plain_attack, results = _round(wl, seed, cache, work / "runs")
    prints = _fingerprints(results)
    failures = _check(wl, seed, cache, recorder, results)
    attempted, failed = _cells(results)
    del cache, recorder
    gc.collect()

    with Tracer() as tracer:
        cache = BundleCache()
        t = time.perf_counter()
        _warm(cache, wl, seed)
        traced_setup = time.perf_counter() - t
        traced_attack, results = _round(wl, seed, cache, work / "runs")
    if _fingerprints(results) != prints:
        failures.append("traced round outputs differ from the untraced round")
    a, f = _cells(results)
    attempted, failed = attempted + a, failed + f
    for target in tracer.missing:
        print(f"trace: {target} not found, its metrics read 0",
              file=sys.stderr)
    trace_dir = OUT_DIR / f"trace-{name}-s{seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    tracer.save(trace_dir)
    values = tracer.metrics()
    values["trace.overhead_s"] = (traced_setup + traced_attack
                                  - plain_setup - plain_attack)
    metrics = {k: (v, unit_of(k)) for k, v in sorted(values.items())}
    return metrics, attempted, failed, failures, prints


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "ulklab" / "__init__.py").is_file():
        print(f"perfbench: no lab sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[args.workload]
    work = OUT_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            out = _traced(wl, args.seed, work, args.workload)
        else:
            out = _timed(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, attempted, failed, failures, prints = out
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    digest = hashlib.sha256("".join(prints).encode()).hexdigest()
    print(f"digest {digest}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
