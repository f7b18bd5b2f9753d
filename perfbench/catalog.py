"""The benchmark's workloads and metrics, in one table.

BENCHMARK.json at the repository root is generated from this file:

    python3 perfbench/catalog.py > BENCHMARK.json

Each per-layer metric also names the end-to-end metric (and workload) it is
expected to move. That target does not fit BENCHMARK.json's fixed keys, so it
lives here and in the committed baseline, where later changes cite it by name.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 42

WORKLOADS = [
    ("act_pretrain",
     "ACT epoch on 10x500 16x16 images, B=128, PGD/CW views at eps 0.04 x 5 steps, "
     "then a linear probe: view generation in attacks at B plus a 3B weight-gradient step"),
    ("robust_eval",
     "linear probe on a CE-trained encoder, then fgsm/pgd/cw x eps 0.01/0.03/0.08 on 1000 "
     "test images at batch 256: eval-mode input-gradient traffic, no weight gradients"),
    ("cli_ce_probe",
     "advclr baseline then finetune commands from a config file: no attack work at all; "
     "covers config parsing, cli, checkpoint save/load and the tiny-step probe fit"),
]

# name, unit, better, bound
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("img_per_s", "img/s", "higher", 0.2),
    ("probe_fit_s", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

CONV_LAYERS = {"l1": (3, 8, 16), "l2": (8, 16, 8), "l3": (16, 32, 4)}   # cin, cout, H=W
CONV_BATCHES = (128, 256, 384)
ATTACK_KINDS = ("fgsm", "pgd", "cw")
EVAL_EPSILONS = (0.01, 0.03, 0.08)
PHASES = ("augment", "pgd_view", "cw_view", "forward", "backward", "optimizer")

_ACT = "img_per_s@act_pretrain"
_ROBUST = "img_per_s@robust_eval"
_CLI = "img_per_s@cli_ce_probe"
_PROBE = "probe_fit_s"
_ALL = "img_per_s@all"
_RATIO = "none: a pure speed change must leave it unmoved"


def _conv_metrics():
    moves = {128: f"{_ACT}, {_CLI}", 256: _ROBUST, 384: _ACT}
    return [(f"tensor.conv2d.{layer}.b{b}.{part}_ms", "ms", "lower", moves[b])
            for layer in CONV_LAYERS for b in CONV_BATCHES
            for part in ("fwd", "dx", "dw")]


# name, unit, better, the end-to-end metric it should move
PER_LAYER = _conv_metrics() + [
    ("tensor.backward_s", "s", "lower", _ALL),
    ("tensor.op_calls", "count", "lower", _ALL),
    ("tensor.probe_step_us", "us", "lower", _PROBE),
    ("data.augment_batch_ms.p50", "ms", "lower", f"{_CLI}, {_ACT}"),
    ("data.augment_batch.n", "count", "higher", f"{_CLI}, {_ACT}"),
    ("data.make_synthetic_s", "s", "lower", "setup_s"),
    ("models.encode.train_s", "s", "lower", f"{_ACT}, {_ROBUST}"),
    ("models.encode.eval_s", "s", "lower", f"{_ACT}, {_ROBUST}"),
    ("models.encode.train_rows", "count", "lower", f"{_ACT}, {_ROBUST}"),
    ("models.encode.eval_rows", "count", "lower", f"{_ACT}, {_ROBUST}"),
    ("models.project_s", "s", "lower", f"{_ACT}, {_ROBUST}"),
    ("models.save_checkpoint_ms", "ms", "lower", _CLI),
    ("models.load_checkpoint_ms", "ms", "lower", _CLI),
    ("models.checkpoint_bytes", "bytes", "lower", _CLI),
    ("losses.adv_contrastive_ms", "ms", "lower", _ACT),
    ("losses.cross_entropy_ms", "ms", "lower", _CLI),
    ("attacks.pgd_view_ms.p50", "ms", "lower", _ACT),
    ("attacks.pgd_view_ms.p90", "ms", "lower", _ACT),
    ("attacks.cw_view_ms.p50", "ms", "lower", _ACT),
    ("attacks.cw_view_ms.p90", "ms", "lower", _ACT),
    ("attacks.view_calls", "count", "lower", _ACT),
] + [
    (f"attacks.run_attack_ms.{kind}", "ms", "lower", _ROBUST) for kind in ATTACK_KINDS
] + [
    ("attacks.encode_calls", "count", "lower",
     "view stacking halves it on act_pretrain, rows unchanged"),
    ("attacks.encode_rows", "count", "lower",
     "early drop lowers it on robust_eval"),
    ("attacks.view_gain.pgd", "objective", "higher", _RATIO),
    ("attacks.view_gain.cw", "objective", "higher", _RATIO),
    ("attacks.view_raised_frac.pgd", "fraction", "higher", _RATIO),
    ("attacks.view_raised_frac.cw", "fraction", "higher", _RATIO),
] + [
    (f"attacks.fooled_frac.{kind}.eps{eps}", "fraction", "higher", _RATIO)
    for kind in ATTACK_KINDS for eps in EVAL_EPSILONS
] + [
    ("training.act_step_ms.p50", "ms", "lower", _ACT),
    ("training.act_step_ms.p90", "ms", "lower", _ACT),
    ("training.act_step.n", "count", "higher", _ACT),
    ("training.ce_step_ms.p50", "ms", "lower", _CLI),
    ("training.ce_step_ms.p90", "ms", "lower", _CLI),
    ("training.ce_step.n", "count", "higher", _CLI),
] + [
    (f"training.phase_share.{phase}", "fraction", "lower", _ACT) for phase in PHASES
] + [
    ("training.sgd_step_ms", "ms", "lower", f"{_ACT}, {_CLI}"),
    ("training.adam_step_ms", "ms", "lower", _PROBE),
    ("training.embed_dataset_s", "s", "lower", _PROBE),
    ("evaluation.robust_cell_s.p50", "s", "lower", _ROBUST),
    ("evaluation.clean_accuracy_s", "s", "lower", _ROBUST),
    ("config.parse_config_ms", "ms", "lower", _CLI),
    ("cli.baseline_s", "s", "lower", _CLI),
    ("cli.finetune_s", "s", "lower", f"{_PROBE}@cli_ce_probe"),
    ("trace.overhead_frac", "fraction", "lower", "none: tracing cost, traced vs untraced wall"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
