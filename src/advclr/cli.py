"""Command-line driver for the full pipeline.

Commands: ingest-check, pretrain, finetune, baseline, evaluate, gradcheck,
report. Configuration comes from a sectioned key=value file plus a handful
of override flags; artifacts land in a per-run directory named by config
hash and timestamp (or a directory pinned with --run-dir for reproducible
comparisons). Exit codes: 0 ok, 2 config, 3 data, 4 numeric, 5 io.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from datetime import datetime

import numpy as np

from . import config as cfgmod
from . import evaluation, models, tensor as T, training
from .config import ConfigError, RunConfig
from .data import DataError, load_cifar10
from .tensor import NumericError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_IO = 5

GRADCHECK_TOLERANCE = 1e-4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advclr",
        description="Adversarial-contrastive pretraining, linear-probe "
                    "fine-tuning, and robustness evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a sectioned key=value config file")
        p.add_argument("--seed", type=int, help="override [run] seed")
        p.add_argument("--data-dir", help="override [data] dir")
        p.add_argument("--out-dir", help="override [run] out_dir")
        p.add_argument("--run-dir", help="exact artifact directory (skips "
                                         "hash+timestamp naming)")
        p.add_argument("--pretrain-epochs", type=int, help="override [pretrain] epochs")
        p.add_argument("--finetune-epochs", type=int, help="override [finetune] epochs")
        p.add_argument("--baseline-epochs", type=int, help="override [baseline] epochs")
        p.add_argument("--epsilons", type=cfgmod.parse_float_list,
                       help="override [attacks] epsilons, e.g. 0.03,0.06")

    p = sub.add_parser("ingest-check", help="validate a CIFAR-10 directory")
    common(p)
    p = sub.add_parser("pretrain", help="adversarial-contrastive pretraining")
    common(p)
    p = sub.add_parser("finetune", help="train a linear probe on a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True, help="pretraining checkpoint")
    p = sub.add_parser("baseline", help="plain cross-entropy training")
    common(p)
    p = sub.add_parser("evaluate", help="clean + robust accuracy table")
    common(p)
    p.add_argument("--checkpoint", action="append", required=True,
                   help="fine-tuned model checkpoint (repeatable)")
    p = sub.add_parser("gradcheck", help="finite-difference check of the autodiff core")
    common(p)
    p = sub.add_parser("report", help="render evaluation report files")
    common(p)
    p.add_argument("--report", action="append", required=True,
                   help="report JSON file (repeatable)")
    return parser


def _load_config(args) -> RunConfig:
    overrides = {
        "run.seed": args.seed,
        "data.dir": args.data_dir,
        "run.out_dir": args.out_dir,
        "pretrain.epochs": args.pretrain_epochs,
        "finetune.epochs": args.finetune_epochs,
        "baseline.epochs": args.baseline_epochs,
        "attacks.epsilons": args.epsilons or None,
    }
    return cfgmod.parse_config(args.config, overrides)


def _run_dir(args, cfg: RunConfig, command: str) -> str:
    if args.run_dir:
        path = args.run_dir
    else:
        stamp = datetime.now().strftime("%Y%m%d-%H%M%S")
        path = os.path.join(cfg.get("run", "out_dir"),
                            f"{command}-{cfg.digest()}-{stamp}")
    os.makedirs(path, exist_ok=True)
    return path


def _cmd_ingest_check(args, cfg: RunConfig) -> int:
    directory = cfg.get("data", "dir")
    if not directory:
        raise ConfigError(f"missing required key: [data] dir "
                          f"(or set {cfgmod.DATA_DIR_ENV})")
    train, test = load_cifar10(directory)
    counts = np.bincount(train.labels, minlength=train.num_classes)
    print(f"train: {len(train)} images, test: {len(test)} images")
    print("train class counts:",
          ", ".join(f"{name}={int(c)}" for name, c in zip(train.class_names, counts)))
    return EXIT_OK


def _cmd_pretrain(args, cfg: RunConfig) -> int:
    train, _ = cfgmod.build_dataset(cfg)
    spec = cfgmod.build_encoder_spec(cfg)
    pre_cfg = cfgmod.build_pretrain(cfg)
    run_dir = _run_dir(args, cfg, "pretrain")
    t0 = time.monotonic()
    params, log = training.act_pretrain(train, spec, pre_cfg, out_dir=run_dir,
                                        proj_dim=cfg.get("model", "proj_dim"))
    _write(os.path.join(run_dir, "pretrain-log.jsonl"), log.to_jsonl())
    print(f"pretrained {pre_cfg.epochs} epochs in {time.monotonic() - t0:.1f}s; "
          f"final loss {log.records[-1].loss:.4f}")
    print(f"checkpoint: {os.path.join(run_dir, 'pretrain-final.ckpt')}")
    return EXIT_OK


def _cmd_finetune(args, cfg: RunConfig) -> int:
    train, _ = cfgmod.build_dataset(cfg)
    ft_cfg = cfgmod.build_finetune(cfg)
    run_dir = _run_dir(args, cfg, "finetune")
    params, log = training.finetune(train, args.checkpoint, train.num_classes, ft_cfg)
    out = os.path.join(run_dir, "model.ckpt")
    models.save_checkpoint(out, params)
    _write(os.path.join(run_dir, "finetune-log.jsonl"), log.to_jsonl())
    print(f"fine-tuned probe for {ft_cfg.epochs} epochs; final loss "
          f"{log.records[-1].loss:.4f}")
    print(f"model: {out}")
    return EXIT_OK


def _cmd_baseline(args, cfg: RunConfig) -> int:
    train, _ = cfgmod.build_dataset(cfg)
    spec = cfgmod.build_encoder_spec(cfg)
    base_cfg = cfgmod.build_baseline(cfg)
    run_dir = _run_dir(args, cfg, "baseline")
    params, log = training.supervised_train(train, spec, base_cfg,
                                            proj_dim=cfg.get("model", "proj_dim"))
    out = os.path.join(run_dir, "model.ckpt")
    models.save_checkpoint(out, params)
    _write(os.path.join(run_dir, "baseline-log.jsonl"), log.to_jsonl())
    print(f"baseline trained {base_cfg.epochs} epochs; final loss "
          f"{log.records[-1].loss:.4f}")
    print(f"model: {out}")
    return EXIT_OK


def _cmd_evaluate(args, cfg: RunConfig) -> int:
    _, test = cfgmod.build_dataset(cfg)
    max_test = cfg.get("eval", "max_test")
    if max_test and len(test) > max_test:
        from .data import Dataset
        test = Dataset(test.images[:max_test], test.labels[:max_test],
                       test.class_names, split=test.split)
    model_list = []
    for path in args.checkpoint:
        name = os.path.splitext(os.path.basename(path))[0]
        model_list.append((name, models.load_checkpoint(path)))
    attack_list = cfgmod.build_attacks(cfg)
    reports = evaluation.eval_table(model_list, attack_list, test,
                                    seed=cfg.get("run", "seed"),
                                    batch_size=cfg.get("eval", "batch_size"))
    run_dir = _run_dir(args, cfg, "evaluate")
    for rep in reports:
        _write(os.path.join(run_dir, f"report-{rep.model_id}.json"), rep.to_json())
    _write(os.path.join(run_dir, "report.csv"), evaluation.reports_to_csv(reports))
    print(evaluation.render_reports(reports), end="")
    print(f"reports written to {run_dir}")
    return EXIT_OK


def _cmd_gradcheck(args, cfg: RunConfig) -> int:
    seed = cfg.get("run", "seed")
    rng = np.random.default_rng(seed)
    spec = models.EncoderSpec("toy_conv", (4, 6, 8))
    params = models.init_params(spec, num_classes=4, seed=seed, proj_dim=8)
    x = rng.uniform(0.1, 0.9, size=(2, 3, 8, 8))
    labels = rng.integers(0, 4, size=2)

    from . import losses as L

    def loss_of_input(t):
        emb = models.encode(params, t)
        return L.cross_entropy(models.classify(params, emb), labels)

    err = T.grad_check(loss_of_input, x)
    status = "ok" if err <= GRADCHECK_TOLERANCE else "FAIL"
    print(f"input-gradient check: max rel err {err:.3e} "
          f"(tolerance {GRADCHECK_TOLERANCE:g}) {status}")
    if err > GRADCHECK_TOLERANCE:
        raise NumericError(f"gradcheck failed: {err:.3e} > {GRADCHECK_TOLERANCE}")
    return EXIT_OK


def _cmd_report(args, cfg: RunConfig) -> int:
    reports = []
    for path in args.report:
        with open(path, "r", encoding="utf-8") as fh:
            reports.append(evaluation.EvalReport.from_json(fh.read()))
    print(evaluation.render_reports(reports), end="")
    return EXIT_OK


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


_COMMANDS = {
    "ingest-check": _cmd_ingest_check,
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "baseline": _cmd_baseline,
    "evaluate": _cmd_evaluate,
    "gradcheck": _cmd_gradcheck,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
