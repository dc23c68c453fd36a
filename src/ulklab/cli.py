"""Command-line front end.

Subcommands mirror the library layers: ``data gen`` writes a synthetic
dataset, ``train``/``unlearn`` produce model checkpoints, ``attack``
runs one attack against one checkpoint (inversion attacks write their
prediction vectors as CSV), ``screen`` turns a prediction-vector CSV
into a forgotten-set verdict as JSON, ``run`` executes a whole
configured grid, and ``report`` summarizes a grid's CSV.
"""

import argparse
import json
import sys

import numpy as np

from . import inversion as inv
from . import param_attack as pa
from . import reports as rep
from . import screening as scr
from .data import ForgetTask, gen_blobs, load_dataset, save_dataset
from .harness import parse_ids, run_experiment
from .models import load_checkpoint, mlp_spec, save_checkpoint, build
from .training import TrainConfig, train
from .unlearning import METHODS, run_method, train_with_ledger


def _load_pair(model_path: str, data_path: str):
    model = load_checkpoint(model_path)
    dataset = load_dataset(data_path)
    if tuple(dataset.x.shape[1:]) != tuple(model.spec.input_shape):
        raise ValueError(
            f"model expects inputs {model.spec.input_shape}, dataset "
            f"holds {tuple(dataset.x.shape[1:])}")
    if dataset.n_classes != model.spec.n_classes:
        raise ValueError(f"model has {model.spec.n_classes} classes, "
                         f"dataset {dataset.n_classes}")
    return model, dataset


def _emit_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_data_gen(args) -> int:
    dataset = gen_blobs(args.classes, args.per_class, args.dim,
                        args.separation, seed=args.seed)
    path = save_dataset(dataset, args.out)
    print(f"wrote {path}: {len(dataset)} samples, "
          f"{dataset.n_classes} classes, dim {args.dim}")
    return 0


def cmd_train(args) -> int:
    if args.epochs < 1:
        raise ValueError(f"--epochs must be >= 1, got {args.epochs}")
    dataset = load_dataset(args.data)
    if len(dataset.x.shape) != 2:
        raise ValueError("train expects flat feature vectors")
    spec = mlp_spec(dataset.x.shape[1], dataset.n_classes,
                    hidden=args.hidden)
    cfg = TrainConfig(epochs=args.epochs, lr=args.lr,
                      batch_size=args.batch_size, seed=args.seed)
    result = train(build(spec, args.seed), dataset, cfg)
    path = save_checkpoint(result.model, args.out)
    acc = result.model.accuracy(dataset.x, dataset.y)
    print(f"wrote {path}: train accuracy {acc:.4f}, "
          f"final epoch loss {result.epoch_losses[-1]:.4f}")
    return 0


def cmd_unlearn(args) -> int:
    if args.method in ("rt", "au") and args.model:
        raise ValueError(f"method {args.method!r} trains its own original; "
                         f"drop --model")
    if args.method not in ("rt", "au") and args.hidden is not None:
        raise ValueError(f"method {args.method!r} keeps the layers of --model; "
                         f"drop --hidden")
    if args.method in ("ft", "ng") and args.epochs is not None:
        raise ValueError(f"method {args.method!r} runs a fixed epoch count; "
                         f"drop --epochs")
    dataset = load_dataset(args.data)
    forget = frozenset(parse_ids(args.forget, "--forget"))
    task = ForgetTask(forget, dataset_id=dataset.split)
    cfg = TrainConfig(epochs=20 if args.epochs is None else args.epochs,
                      lr=args.lr, batch_size=args.batch_size, seed=args.seed)
    if args.method in ("rt", "au"):
        spec = mlp_spec(dataset.x.shape[1], dataset.n_classes,
                        hidden=64 if args.hidden is None else args.hidden)
    if args.method == "rt":
        um = run_method("rt", spec, None, dataset, task, cfg)
    elif args.method == "au":
        # the ledgered original is retrained here so its update ledger
        # exists to subtract from
        ledgered = train_with_ledger(spec, dataset, task, cfg)
        um = run_method("au", spec, ledgered.model, dataset, task, cfg,
                        ledger=ledgered.ledger)
    else:
        if not args.model:
            raise ValueError(f"method {args.method!r} needs --model, the "
                             f"trained original checkpoint")
        model, dataset = _load_pair(args.model, args.data)
        um = run_method(args.method, model.spec, model, dataset, task, cfg)
    path = save_checkpoint(um.artifact, args.out)
    print(f"wrote {path}: method {um.method}, "
          f"forget {sorted(forget)}, config {um.config_hash}")
    return 0


def cmd_attack_param(args) -> int:
    model, dataset = _load_pair(args.model, args.data)
    forget = frozenset(parse_ids(args.forget, "--forget"))
    task = ForgetTask(forget, dataset_id=dataset.split)
    task.validate_against(dataset.n_classes)
    heads = pa.train_aux_models(model, pa.draw_aux(
        model.spec, dataset, task, args.seed, args.k, args.m_models))
    if args.kind == "param-dot":
        res = pa.param_dot_attack(model, heads, args.screen)
        criterion = args.screen
    else:
        res = pa.param_diff_attack(model, heads, args.depth)
        criterion = "tree"
    predicted = sorted(res.predicted)
    payload = {
        "attack": args.kind,
        "criterion": criterion,
        "predicted": predicted,
        "truth": sorted(forget),
        "asr": rep.attack_success_rate(res.predicted, forget,
                                       dataset.n_classes),
        "detail": {k: v for k, v in res.detail.items()
                   if isinstance(v, (str, int, float, bool))},
    }
    _emit_json(payload, args.json)
    return 0


def cmd_attack_invert(args) -> int:
    model = load_checkpoint(args.model)
    if args.kind == "invert-wb":
        cfg = inv.default_wb_config(model, seed=args.seed,
                                    k_inits=args.inits,
                                    iterations=args.iterations)
        ipvs = inv.build_ipv_set("wb", model, cfg)
    else:
        cfg = inv.GAConfig(population=args.population,
                           generations=args.generations, seed=args.seed,
                           query_budget=args.budget or None)
        ipvs = inv.build_ipv_set("bb", inv.QueryOracle(model), cfg)
    path = rep.write_ipv_csv(args.out, ipvs)
    total = sum(v.queries for v in ipvs)
    print(f"wrote {path}: {len(ipvs)} classes, {total} queries")
    for v in ipvs:
        print(f"  class {v.target}: max_prob {v.max_prob:.4f}, "
              f"fitness {v.fitness:.4f}")
    return 0


def cmd_screen(args) -> int:
    ipvs = rep.read_ipv_csv(args.ipv)
    if args.criterion == "threshold":
        report = scr.threshold_criterion(ipvs, thr_alpha=args.alpha,
                                         use_target_prob=args.target_prob)
        payload = {
            "criterion": "threshold",
            "alpha": args.alpha,
            "mu_max": report.mu_max,
            "sigma_max": report.sigma_max,
            "theta": report.theta,
            "predicted": sorted(report.predicted),
        }
    else:
        report = scr.entropy_criterion(
            ipvs, use_argmax_identity=args.argmax_identity)
        payload = {
            "criterion": "entropy",
            "h_bar": list(report.h_bar),
            "degenerate": report.degenerate,
            "assignments": [int(a) for a in report.assignments],
            "predicted": sorted(report.predicted),
        }
    _emit_json(payload, args.json)
    return 0


def cmd_run(args) -> int:
    result = run_experiment(args.set or [], out_root=args.out)
    print(f"run {result.config_hash} -> {result.run_dir}")
    print(f"{len(result.reports)} cells, {len(result.errors)} failed")
    if result.reports:
        print(f"mean ASR {rep.mean_asr(result.reports):.1f}")
    for line in result.errors:
        print(f"  error {line}")
    return 0 if not result.errors else 1


def cmd_report(args) -> int:
    path = args.csv
    rows = rep.read_reports(path)
    if not rows:
        print("no report rows")
        return 0
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.attack, r.criterion, r.unlearn_method),
                          []).append(r.asr)
    print(f"{'attack':<12}{'criterion':<11}{'method':<8}"
          f"{'cells':>6}{'mean':>8}{'min':>8}{'max':>8}")
    for key in sorted(groups):
        vals = groups[key]
        print(f"{key[0]:<12}{key[1]:<11}{key[2]:<8}{len(vals):>6}"
              f"{np.mean(vals):>8.1f}{min(vals):>8.1f}{max(vals):>8.1f}")
    print(f"overall mean ASR {np.mean([r.asr for r in rows]):.1f} "
          f"over {len(rows)} cells")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulk",
        description="class-level unlearning attack laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    data = sub.add_parser("data", help="dataset tools")
    data_sub = data.add_subparsers(dest="data_command", required=True)
    gen = data_sub.add_parser("gen", help="generate a blob dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=1000)
    gen.add_argument("--classes", type=int, default=10)
    gen.add_argument("--per-class", type=int, default=200)
    gen.add_argument("--dim", type=int, default=32)
    gen.add_argument("--separation", type=float, default=4.25)
    gen.set_defaults(func=cmd_data_gen)

    tr = sub.add_parser("train", help="train an MLP on a dataset")
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--epochs", type=int, default=20)
    tr.add_argument("--lr", type=float, default=0.1)
    tr.add_argument("--batch-size", type=int, default=32)
    tr.add_argument("--hidden", type=int, default=64)
    tr.set_defaults(func=cmd_train)

    un = sub.add_parser("unlearn", help="apply an unlearning method")
    un.add_argument("--method", required=True, choices=METHODS)
    un.add_argument("--data", required=True)
    un.add_argument("--out", required=True)
    un.add_argument("--forget", required=True,
                    help="comma-joined class ids to forget")
    un.add_argument("--model", help="trained original (ft/rl/ng)")
    un.add_argument("--seed", type=int, default=0)
    un.add_argument("--epochs", type=int,
                    help="default 20; rt/rl/au only (ft and ng fix their own)")
    un.add_argument("--lr", type=float, default=0.1)
    un.add_argument("--batch-size", type=int, default=32)
    un.add_argument("--hidden", type=int,
                    help="default 64; rt/au only (others keep --model's layers)")
    un.set_defaults(func=cmd_unlearn)

    atk = sub.add_parser("attack", help="attack one model checkpoint")
    atk_sub = atk.add_subparsers(dest="attack_kind", required=True)
    for kind in ("param-dot", "param-diff"):
        p = atk_sub.add_parser(kind, help=f"{kind} parameter attack")
        p.add_argument("--model", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--forget", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--k", type=int, default=pa.DEFAULT_SUBSET_SIZE)
        p.add_argument("--m-models", type=int,
                       default=pa.DEFAULT_MODELS_PER_CLASS)
        if kind == "param-dot":
            p.add_argument("--screen", default="youden",
                           choices=("youden", "kmeans"))
        else:
            p.add_argument("--depth", type=int,
                           default=pa.DEFAULT_TREE_DEPTH)
        p.add_argument("--json", help="also write the verdict here")
        p.set_defaults(func=cmd_attack_param, kind=kind)
    for kind in ("invert-wb", "invert-bb"):
        p = atk_sub.add_parser(kind, help=f"{kind} inversion attack")
        p.add_argument("--model", required=True)
        p.add_argument("--out", required=True,
                       help="prediction-vector CSV to write")
        p.add_argument("--seed", type=int, default=0)
        if kind == "invert-wb":
            p.add_argument("--inits", type=int, default=inv.WB_INITS)
            p.add_argument("--iterations", type=int,
                           default=inv.WB_ITERATIONS)
        else:
            p.add_argument("--budget", type=int, default=0,
                           help="query budget, 0 = unlimited")
            p.add_argument("--population", type=int,
                           default=inv.GA_POPULATION)
            p.add_argument("--generations", type=int,
                           default=inv.GA_GENERATIONS)
        p.set_defaults(func=cmd_attack_invert, kind=kind)

    sc = sub.add_parser("screen", help="score a prediction-vector CSV")
    sc.add_argument("--ipv", required=True)
    sc.add_argument("--criterion", required=True,
                    choices=("threshold", "entropy"))
    sc.add_argument("--alpha", type=float, default=1.0)
    sc.add_argument("--target-prob", action="store_true",
                    help="threshold on P(target) instead of the peak")
    sc.add_argument("--argmax-identity", action="store_true",
                    help="name flagged classes by their peak index")
    sc.add_argument("--json", help="also write the verdict here")
    sc.set_defaults(func=cmd_screen)

    run = sub.add_parser("run", help="run a configured attack grid")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="config override, repeatable")
    run.add_argument("--out", default=".", help="run directory root")
    run.set_defaults(func=cmd_run)

    rp = sub.add_parser("report", help="summarize a reports CSV")
    rp.add_argument("--csv", required=True)
    rp.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
