"""Command-line driver for the full pipeline.

Commands are listed once, in ``_COMMANDS``. Configuration comes from a
sectioned key=value file plus the override flags of ``OVERRIDES``;
artifacts land in a per-run directory named by config hash and timestamp
(or a directory pinned with --run-dir for reproducible comparisons).
Exit codes: 0 ok, 2 config, 3 data, 4 numeric, 5 io.
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
from .data import DataError, Dataset
from .tensor import NumericError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_IO = 5

GRADCHECK_TOLERANCE = 1e-4


# flag -> (the "section.key" it overrides, type, help example)
OVERRIDES = {
    "--seed": ("run.seed", int, ""),
    "--data-dir": ("data.dir", None, ""),
    "--out-dir": ("run.out_dir", None, ""),
    "--pretrain-epochs": ("pretrain.epochs", int, ""),
    "--finetune-epochs": ("finetune.epochs", int, ""),
    "--baseline-epochs": ("baseline.epochs", int, ""),
    "--epsilons": ("attacks.epsilons", cfgmod.parse_float_list, ", e.g. 0.03,0.06"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advclr",
        description="Adversarial-contrastive pretraining, linear-probe "
                    "fine-tuning, and robustness evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, own_flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="path to a sectioned key=value config file")
        for flag, (dotted, kind, example) in OVERRIDES.items():
            section, _, key = dotted.partition(".")
            p.add_argument(flag, type=kind, help=f"override [{section}] {key}{example}")
        p.add_argument("--run-dir", help="exact artifact directory (skips "
                                         "hash+timestamp naming)")
        for flag, kwargs in own_flags.items():
            p.add_argument(flag, **kwargs)
    return parser


def _load_config(args) -> RunConfig:
    overrides = {}
    for flag, (dotted, _, _) in OVERRIDES.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        overrides[dotted] = None if value == [] else value   # --epsilons '' keeps the file's
    return cfgmod.parse_config(args.config, overrides)


def _run_dir(args, cfg: RunConfig) -> str:
    if args.run_dir:
        path = args.run_dir
    else:
        stamp = datetime.now().strftime("%Y%m%d-%H%M%S")
        path = os.path.join(cfg.get("run", "out_dir"),
                            f"{args.command}-{cfg.digest()}-{stamp}")
    os.makedirs(path, exist_ok=True)
    return path


def _cmd_ingest_check(args, cfg: RunConfig) -> int:
    train, test = cfgmod.build_cifar10(cfg)
    counts = np.bincount(train.labels, minlength=train.num_classes)
    print(f"train: {len(train)} images, test: {len(test)} images")
    print("train class counts:",
          ", ".join(f"{name}={int(c)}" for name, c in zip(train.class_names, counts)))
    return EXIT_OK


def _cmd_pretrain(args, cfg: RunConfig) -> int:
    train, _ = cfgmod.build_dataset(cfg)
    spec = cfgmod.build_encoder_spec(cfg)
    pre_cfg = cfgmod.build_section(cfg, "pretrain",
                                   augment=cfgmod.build_augment(cfg, train.image_size))
    run_dir = _run_dir(args, cfg)
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
    ft_cfg = cfgmod.build_section(cfg, "finetune")
    run_dir = _run_dir(args, cfg)
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
    base_cfg = cfgmod.build_section(cfg, "baseline",
                                    augment=cfgmod.build_augment(cfg, train.image_size))
    run_dir = _run_dir(args, cfg)
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
        test = Dataset(test.images[:max_test], test.labels[:max_test],
                       test.class_names, split=test.split)
    stems = [os.path.splitext(os.path.basename(path))[0] for path in args.checkpoint]
    # a stem given twice takes its directory's name as a prefix: ft-model, base-model
    ids = [f"{os.path.basename(os.path.dirname(os.path.abspath(path)))}-{stem}"
           if stems.count(stem) > 1 else stem for path, stem in zip(args.checkpoint, stems)]
    if len(set(ids)) < len(ids):
        raise ConfigError(f"--checkpoint: two checkpoints share a report id in {ids}")
    model_list = [(model_id, models.load_checkpoint(path))
                  for model_id, path in zip(ids, args.checkpoint)]
    attack_list = cfgmod.build_attacks(cfg)
    reports = evaluation.eval_table(model_list, attack_list, test,
                                    seed=cfg.get("run", "seed"),
                                    batch_size=cfg.get("eval", "batch_size"))
    run_dir = _run_dir(args, cfg)
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
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            reports.append(evaluation.EvalReport.from_json(raw))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
    print(evaluation.render_reports(reports), end="")
    return EXIT_OK


def _write(path: str, text: str):
    with models.atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# name -> (function, help, the command's own flags), in --help's order
_COMMANDS = {
    "ingest-check": (_cmd_ingest_check, "validate a CIFAR-10 directory", {}),
    "pretrain": (_cmd_pretrain, "adversarial-contrastive pretraining", {}),
    "finetune": (_cmd_finetune, "train a linear probe on a checkpoint",
                 {"--checkpoint": dict(required=True, help="pretraining checkpoint")}),
    "baseline": (_cmd_baseline, "plain cross-entropy training", {}),
    "evaluate": (_cmd_evaluate, "clean + robust accuracy table",
                 {"--checkpoint": dict(action="append", required=True,
                                       help="fine-tuned model checkpoint (repeatable)")}),
    "gradcheck": (_cmd_gradcheck, "finite-difference check of the autodiff core", {}),
    "report": (_cmd_report, "render evaluation report files",
               {"--report": dict(action="append", required=True,
                                 help="report JSON file (repeatable)")}),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command][0](args, cfg)
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
