"""End-to-end command-line driver checks on a miniature pipeline."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import advclr
from advclr import attacks, cli, config, evaluation, models, threads
from advclr.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_NUMERIC, EXIT_OK
from advclr.tensor import NumericError
from conftest import cell_threads, force_cpus

TINY_CFG = """
[run]
seed = 3

[data]
source = synthetic
num_classes = 4
per_class = 30
test_per_class = 10
image_size = 16

[model]
kind = toy_conv
widths = 4,6,8
proj_dim = 8

[augment]
crop_pad = 1
hflip_prob = 0.0

[pretrain]
epochs = 2
batch_size = 32
lr0 = 0.05
view_steps = 2

[finetune]
epochs = 4
lr = 0.01

[baseline]
epochs = 2

[attacks]
kinds = fgsm,pgd
epsilons = 0.0,0.03
steps = 2

[eval]
batch_size = 64
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


def test_subcommand_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["pretrain", "--help"])
    assert exc.value.code == 0


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nseed = oops\n")
    assert cli.main(["pretrain", "--config", str(bad)]) == EXIT_CONFIG


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes(b"[run]\n# caf\xe9\nseed = 3\n")
    assert cli.main(["gradcheck", "--config", str(bad)]) == EXIT_CONFIG
    assert f"cannot read config {bad}" in capsys.readouterr().err


def test_data_error_exit_code(tmp_path):
    assert cli.main(["ingest-check", "--data-dir", str(tmp_path)]) == EXIT_DATA


def test_ingest_check_without_config_file(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ADVCLR_DATA_DIR", raising=False)
    assert cli.main(["ingest-check"]) == EXIT_CONFIG
    env_dir, flag_dir = tmp_path / "env", tmp_path / "flag"
    env_dir.mkdir()
    flag_dir.mkdir()
    monkeypatch.setenv("ADVCLR_DATA_DIR", str(env_dir))
    capsys.readouterr()
    assert cli.main(["ingest-check"]) == EXIT_DATA
    assert str(env_dir) in capsys.readouterr().err
    # the flag wins over the environment
    assert cli.main(["ingest-check", "--data-dir", str(flag_dir)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(flag_dir) in err and str(env_dir) not in err


@pytest.mark.parametrize("command,flag", [("pretrain", "--pretrain-epochs"),
                                          ("finetune", "--finetune-epochs"),
                                          ("baseline", "--baseline-epochs")])
def test_zero_epochs_is_config_error(cfg_file, tmp_path, command, flag):
    argv = [command, "--config", cfg_file, flag, "0", "--run-dir", str(tmp_path / "run")]
    if command == "finetune":
        argv += ["--checkpoint", str(tmp_path / "unused.ckpt")]
    assert cli.main(argv) == EXIT_CONFIG


# (flag, raw value, the key it sets, the parsed value); TINY_CFG holds another
OVERRIDE_ROWS = {
    "seed": ("--seed", "7", "run.seed", 7),
    "data-dir": ("--data-dir", "some/cifar", "data.dir", "some/cifar"),
    "out-dir": ("--out-dir", "elsewhere", "run.out_dir", "elsewhere"),
    "pretrain-epochs": ("--pretrain-epochs", "5", "pretrain.epochs", 5),
    "finetune-epochs": ("--finetune-epochs", "6", "finetune.epochs", 6),
    "baseline-epochs": ("--baseline-epochs", "7", "baseline.epochs", 7),
    "epsilons": ("--epsilons", "0.01,0.05", "attacks.epsilons", [0.01, 0.05]),
    "empty-epsilons": ("--epsilons", "", "attacks.epsilons", [0.0, 0.03]),   # the file's
}


@pytest.mark.parametrize("flag,raw,dotted,value", OVERRIDE_ROWS.values(), ids=OVERRIDE_ROWS)
def test_override_flag_sets_its_key_and_no_other(cfg_file, monkeypatch, flag, raw, dotted,
                                                 value):
    monkeypatch.delenv("ADVCLR_DATA_DIR", raising=False)
    real, loaded = config.parse_config, []

    def spy(*args):
        loaded.append(real(*args))
        return loaded[-1]

    monkeypatch.setattr(config, "parse_config", spy)
    assert cli.main(["gradcheck", "--config", cfg_file, flag, raw]) == EXIT_OK
    expected = real(cfg_file).values
    section, _, key = dotted.partition(".")
    expected[section][key] = value
    assert [cfg.values for cfg in loaded] == [expected]


BAD_INPUTS = {
    "epsilons-not-a-number": ("evaluate", ["--epsilons", "abc"], None, "--epsilons"),
    "epsilons-negative": ("evaluate", ["--epsilons", "-0.1"], None, "[attacks]"),
    "unknown-attack-kind": ("evaluate", [], ("kinds = fgsm,pgd", "kinds = pgd,deepfool"),
                            "[attacks]"),
    "zero-steps": ("evaluate", [], ("\nsteps = 2", "\nsteps = 0"), "[attacks]"),
    "negative-step-size": ("evaluate", [], ("\nsteps = 2", "\nsteps = 2\nstep_size = -0.1"),
                           "[attacks]"),
    "hflip-prob-above-one": ("pretrain", [], ("hflip_prob = 0.0", "hflip_prob = 1.5"),
                             "[augment]"),
    "unknown-model-kind": ("pretrain", [], ("kind = toy_conv", "kind = vgg"), "[model]"),
    "toy-conv-two-widths": ("pretrain", [], ("widths = 4,6,8", "widths = 8,16"), "[model]"),
    "negative-lr0": ("pretrain", [], ("lr0 = 0.05", "lr0 = -1"), "[pretrain]"),
    "zero-view-steps": ("pretrain", [], ("view_steps = 2", "view_steps = 0"), "[pretrain]"),
    "zero-finetune-batch": ("finetune", [], ("lr = 0.01", "lr = 0.01\nbatch_size = 0"),
                            "[finetune]"),
    "zero-tau": ("pretrain", [], ("view_steps = 2", "view_steps = 2\ntau = 0"), "[pretrain]"),
    "negative-baseline-lr0": ("baseline", [], ("[baseline]\nepochs = 2",
                                               "[baseline]\nepochs = 2\nlr0 = -1"),
                              "[baseline]"),
    "empty-kinds": ("evaluate", [], ("kinds = fgsm,pgd", "kinds ="), "[attacks]"),
    "empty-epsilons": ("evaluate", [], ("epsilons = 0.0,0.03", "epsilons ="), "[attacks]"),
    "zero-eval-batch": ("evaluate", [], ("batch_size = 64", "batch_size = 0"), "[eval]"),
    "zero-proj-dim": ("pretrain", [], ("proj_dim = 8", "proj_dim = 0"), "[model]"),
    "zero-image-size": ("pretrain", [], ("image_size = 16", "image_size = 0"), "[data]"),
    "crop-pad-beyond-image": ("pretrain", [], ("crop_pad = 1", "crop_pad = 20"), "[augment]"),
    "negative-max-test": ("evaluate", [], ("batch_size = 64", "batch_size = 64\nmax_test = -30"),
                          "[eval]"),
    "negative-finetune-lr": ("finetune", [], ("lr = 0.01", "lr = -1"), "[finetune]"),
    "nan-finetune-lr": ("finetune", [], ("lr = 0.01", "lr = nan"), "[finetune]"),
    "negative-checkpoint-every": ("pretrain", [], ("view_steps = 2",
                                                   "view_steps = 2\ncheckpoint_every = -1"),
                                  "[pretrain]"),
    "negative-noise": ("pretrain", [], ("image_size = 16", "image_size = 16\nnoise = -1"),
                       "[data]"),
    "nan-epsilon": ("evaluate", [], ("epsilons = 0.0,0.03", "epsilons = nan"), "[attacks]"),
    "inf-epsilon": ("evaluate", [], ("epsilons = 0.0,0.03", "epsilons = inf"), "[attacks]"),
    "nan-step-size": ("evaluate", [], ("\nsteps = 2", "\nsteps = 2\nstep_size = nan"),
                      "[attacks]"),
    "negative-kappa": ("evaluate", [], ("\nsteps = 2", "\nsteps = 2\nkappa = -1"),
                       "[attacks]"),
    "nan-kappa": ("evaluate", [], ("\nsteps = 2", "\nsteps = 2\nkappa = nan"), "[attacks]"),
    "inf-view-epsilon": ("pretrain", [], ("view_steps = 2",
                                          "view_steps = 2\nview_epsilon = inf"),
                         "[pretrain]"),
    "nan-baseline-lr0": ("baseline", ["--baseline-epochs", "1"],
                         ("[baseline]\nepochs = 2", "[baseline]\nepochs = 2\nlr0 = nan"),
                         "[baseline]"),
    "nan-tau": ("pretrain", [], ("view_steps = 2", "view_steps = 2\ntau = nan"), "[pretrain]"),
    "momentum-above-one": ("pretrain", ["--pretrain-epochs", "1"],
                           ("view_steps = 2", "view_steps = 2\nmomentum = 5"), "[pretrain]"),
    "nan-noise": ("pretrain", [], ("image_size = 16", "image_size = 16\nnoise = nan"),
                  "[data]"),
    "nan-signal": ("baseline", ["--baseline-epochs", "1"],
                   ("image_size = 16", "image_size = 16\nsignal = nan"), "[data]"),
    "negative-seed": ("pretrain", [], ("seed = 3", "seed = -1"), "[run]"),
    "one-class": ("pretrain", [], ("num_classes = 4", "num_classes = 1"), "[data]"),
    "negative-per-class": ("pretrain", [], ("per_class = 30", "per_class = -1"), "[data]"),
    "zero-per-class": ("baseline", ["--baseline-epochs", "1"],
                       ("per_class = 30", "per_class = 0"), "[data]"),
    "zero-test-per-class": ("evaluate", [], ("test_per_class = 10", "test_per_class = 0"),
                            "[data]"),
    "resnet-odd-image-size": ("baseline", ["--baseline-epochs", "1"],
                              ("image_size = 16\n\n[model]\nkind = toy_conv",
                               "image_size = 15\n\n[model]\nkind = resnet_small"), "[model]"),
}


@pytest.mark.parametrize("command,flags,edit,named", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_config_value_is_config_error(tmp_path, capsys, command, flags, edit,
                                          named):
    text = TINY_CFG.replace(*edit) if edit else TINY_CFG
    assert text != TINY_CFG or flags
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    ckpt = str(tmp_path / "model.ckpt")
    models.save_checkpoint(ckpt, models.init_params(
        models.EncoderSpec("toy_conv", (4, 6, 8)), num_classes=4, seed=0, proj_dim=8))
    argv = [command, "--config", str(path), "--run-dir", str(tmp_path / "run"), *flags]
    if command in ("evaluate", "finetune"):
        argv += ["--checkpoint", ckpt]
    try:
        code = cli.main(argv)
    except SystemExit as exc:   # argparse rejects a bad flag value itself
        code = exc.code
    assert code == EXIT_CONFIG
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["not-a-checkpoint", "truncated", "swapped-shape",
                                    "missing-array"])
def test_bad_checkpoint_is_data_error(cfg_file, tmp_path, capsys, damage):
    ckpt = tmp_path / "model.ckpt"
    params = models.init_params(
        models.EncoderSpec("toy_conv", (4, 6, 8)), num_classes=4, seed=0, proj_dim=8)
    if damage == "swapped-shape":       # a whole file whose arrays miss the spec
        params.arrays["classifier.w"] = params.arrays["classifier.w"].T.copy()
    elif damage == "missing-array":
        del params.arrays["encoder.conv2.w"]
    models.save_checkpoint(str(ckpt), params)
    blob = ckpt.read_bytes()
    if damage == "not-a-checkpoint":
        ckpt.write_bytes(b"[run]\nseed = 1\n")
    elif damage == "truncated":
        ckpt.write_bytes(blob[:len(blob) // 2])
    assert cli.main(["finetune", "--config", cfg_file, "--checkpoint", str(ckpt),
                     "--run-dir", str(tmp_path / "ft")]) == EXIT_DATA
    assert str(ckpt) in capsys.readouterr().err


BAD_REPORTS = {
    "truncated-json": b"{",
    "missing-field": b'{"model_id": "m"}',
    "partial-cell": b'{"model_id": "m", "clean_accuracy": 0.5, "seed": 0, '
                    b'"cells": [{"attack": "pgd"}]}',
    "text-accuracy": b'{"model_id": "m", "clean_accuracy": "high", "seed": 0, "cells": []}',
    "not-utf8": b'{"model_id": "\xff"}',
}


@pytest.mark.parametrize("content", BAD_REPORTS.values(), ids=BAD_REPORTS)
def test_bad_report_file_is_data_error(tmp_path, capsys, content):
    path = tmp_path / "report.json"
    path.write_bytes(content)
    assert cli.main(["report", "--report", str(path)]) == EXIT_DATA
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["finetune", "evaluate"])
def test_checkpoint_class_mismatch_is_data_error(cfg_file, tmp_path, capsys, command):
    # TINY_CFG has 4 classes; the checkpoint's classifier has 5
    ckpt = str(tmp_path / "five.ckpt")
    models.save_checkpoint(ckpt, models.init_params(
        models.EncoderSpec("toy_conv", (4, 6, 8)), num_classes=5, seed=0, proj_dim=8))
    assert cli.main([command, "--config", cfg_file, "--checkpoint", ckpt,
                     "--run-dir", str(tmp_path / "out")]) == EXIT_DATA
    assert "5 classes" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["finetune", "evaluate"])
def test_resnet_checkpoint_on_odd_images_is_data_error(cfg_file, tmp_path, capsys,
                                                       command):
    # the spec comes from the checkpoint, not [model], so the config never sees it
    cfg = tmp_path / "odd.cfg"
    cfg.write_text(Path(cfg_file).read_text().replace("image_size = 16", "image_size = 15"))
    ckpt = str(tmp_path / "resnet.ckpt")
    models.save_checkpoint(ckpt, models.init_params(
        models.EncoderSpec("resnet_small", (4, 6, 8)), num_classes=4, seed=0, proj_dim=8))
    assert cli.main([command, "--config", str(cfg), "--checkpoint", ckpt,
                     "--run-dir", str(tmp_path / "out")]) == EXIT_DATA
    assert "even image size, got 15" in capsys.readouterr().err


def test_evaluate_checks_every_checkpoint_before_attacking(cfg_file, tmp_path,
                                                           monkeypatch, capsys):
    # a good checkpoint first, then a class-mismatched one: the mismatch is
    # found before the first model's sweep starts
    paths = [str(tmp_path / "good.ckpt"), str(tmp_path / "five.ckpt")]
    for path, classes in zip(paths, (4, 5)):
        models.save_checkpoint(path, models.init_params(
            models.EncoderSpec("toy_conv", (4, 6, 8)), num_classes=classes, seed=0,
            proj_dim=8))
    real, calls = attacks.run_attack, []

    def spy(*args, **kwargs):
        calls.append(args[2].kind)
        return real(*args, **kwargs)

    monkeypatch.setattr(attacks, "run_attack", spy)
    assert cli.main(["evaluate", "--config", cfg_file, "--checkpoint", paths[0],
                     "--checkpoint", paths[1], "--run-dir", str(tmp_path / "ev")]) == EXIT_DATA
    assert calls == []
    assert "5 classes" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def test_shared_checkpoint_stems_get_distinct_report_ids(cfg_file, tmp_path):
    paths = []
    for seed, tag in enumerate(("ft", "base")):
        (tmp_path / tag).mkdir()
        paths.append(str(tmp_path / tag / "model.ckpt"))
        models.save_checkpoint(paths[-1], models.init_params(
            models.EncoderSpec("toy_conv", (4, 6, 8)), num_classes=4, seed=seed,
            proj_dim=8))
    ev_dir = tmp_path / "ev"
    argv = ["evaluate", "--config", cfg_file, "--epsilons", "0.03",
            "--run-dir", str(ev_dir)]
    assert cli.main([*argv, "--checkpoint", paths[0], "--checkpoint", paths[1]]) == EXIT_OK
    assert sorted(os.listdir(ev_dir)) == ["report-base-model.json", "report-ft-model.json",
                                          "report.csv"]
    rows = (ev_dir / "report.csv").read_text().strip().splitlines()[1:]
    assert sorted(row.split(",")[0] for row in rows) == ["base-model"] * 2 + ["ft-model"] * 2
    # the same file twice would still write one report over the other
    assert cli.main([*argv, "--checkpoint", paths[0], "--checkpoint", paths[0]]) == EXIT_CONFIG


COLLAPSING_CFG = """
[data]
num_classes = 4
per_class = 20
image_size = 8

[model]
widths = 4,4,4
proj_dim = 8

[pretrain]
epochs = 2
batch_size = 16
"""


def test_collapsed_network_is_numeric_error(tmp_path, capsys):
    # so narrow a network maps some image to an all-zero embedding, which
    # the projection head cannot normalize
    path = tmp_path / "collapse.cfg"
    path.write_text(COLLAPSING_CFG)
    assert cli.main(["pretrain", "--config", str(path),
                     "--run-dir", str(tmp_path / "run")]) == EXIT_NUMERIC
    assert "zero-norm" in capsys.readouterr().err


def test_failing_cw_view_is_numeric_error(cfg_file, tmp_path, monkeypatch, capsys):
    # two usable CPUs and one BLAS thread, so the view fails on the worker thread
    def failing_view(*args):
        raise NumericError("cw view failed")

    force_cpus(monkeypatch, 2)
    monkeypatch.setattr(attacks, "cw", failing_view)
    assert cli.main(["pretrain", "--config", cfg_file,
                     "--run-dir", str(tmp_path / "run")]) == EXIT_NUMERIC
    assert "cw view failed" in capsys.readouterr().err


def test_failing_cell_on_the_worker_is_numeric_error(cfg_file, tmp_path, monkeypatch,
                                                     capsys):
    # two usable CPUs and one BLAS thread, so a worker thread shares the cells
    ckpt = str(tmp_path / "model.ckpt")
    models.save_checkpoint(ckpt, models.init_params(
        models.EncoderSpec("toy_conv", (4, 6, 8)), num_classes=4, seed=0, proj_dim=8))
    force_cpus(monkeypatch, 2)
    seen = cell_threads(monkeypatch, fail_on="worker")
    assert cli.main(["evaluate", "--config", cfg_file, "--checkpoint", ckpt,
                     "--run-dir", str(tmp_path / "ev")]) == EXIT_NUMERIC
    assert set(seen) - {threading.get_ident()}     # the worker ran a cell
    assert "cell failed on the worker thread" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


@pytest.mark.skipif(threads.usable_cpus() < 2, reason="needs two usable CPUs")
def test_evaluate_reports_equal_at_one_and_default_blas_threads(cfg_file, tmp_path):
    # one BLAS thread opens the worker-thread sweep on any host with two
    # CPUs; BLAS's default thread count does not on a 2-CPU host
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(Path(cfg_file).read_text()
                   .replace("kinds = fgsm,pgd", "kinds = fgsm,pgd,cw\nkappa = 0.5")
                   .replace("\nsteps = 2", "\nsteps = 3")
                   .replace("batch_size = 64", "batch_size = 16"))
    assert cli.main(["baseline", "--config", str(cfg),
                     "--run-dir", str(tmp_path / "base")]) == EXIT_OK
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(advclr.__file__)))
    env.pop("OPENBLAS_NUM_THREADS", None)
    reports = {}
    for blas in ("1", None):
        run_dir = tmp_path / f"ev-{blas}"
        done = subprocess.run(
            [sys.executable, "-m", "advclr.cli", "evaluate", "--config", str(cfg),
             "--checkpoint", str(tmp_path / "base" / "model.ckpt"), "--run-dir", str(run_dir)],
            env=dict(env, OPENBLAS_NUM_THREADS=blas) if blas else env,
            capture_output=True, text=True, timeout=300)
        assert done.returncode == EXIT_OK, done.stderr
        report = json.loads((run_dir / "report-model.json").read_text())
        reports[blas] = (report["clean_accuracy"], report["cells"])
    assert len(reports["1"][1]) == 3 * 2
    assert reports["1"] == reports[None]


# evaluate with the process's file-size limit below the report's size: the
# first report write fails partway through
_FAILING_WRITE = """
import resource, signal, sys
from advclr import cli
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (256, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(cli.main(sys.argv[1:]))
"""


def test_failed_report_write_leaves_no_file(cfg_file, tmp_path):
    ckpt = str(tmp_path / "model.ckpt")
    models.save_checkpoint(ckpt, models.init_params(
        models.EncoderSpec("toy_conv", (4, 6, 8)), num_classes=4, seed=0, proj_dim=8))
    run_dir = tmp_path / "ev"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(advclr.__file__)))
    done = subprocess.run([sys.executable, "-c", _FAILING_WRITE, "evaluate",
                           "--config", cfg_file, "--checkpoint", ckpt,
                           "--epsilons", "0.03", "--run-dir", str(run_dir)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == EXIT_IO, done.stderr
    assert "File too large" in done.stderr
    assert os.listdir(run_dir) == []


def test_gradcheck_passes(capsys):
    assert cli.main(["gradcheck", "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "max rel err" in out and "ok" in out


def test_full_pipeline_and_null_attack_report(cfg_file, tmp_path, capsys):
    pre_dir = str(tmp_path / "pre")
    assert cli.main(["pretrain", "--config", cfg_file, "--run-dir", pre_dir]) == EXIT_OK
    ckpt = os.path.join(pre_dir, "pretrain-final.ckpt")
    assert os.path.exists(ckpt)
    assert os.path.exists(os.path.join(pre_dir, "pretrain-log.jsonl"))

    ft_dir = str(tmp_path / "ft")
    assert cli.main(["finetune", "--config", cfg_file, "--checkpoint", ckpt,
                     "--run-dir", ft_dir]) == EXIT_OK
    model = os.path.join(ft_dir, "model.ckpt")
    assert os.path.exists(model)

    ev_dir = str(tmp_path / "ev")
    assert cli.main(["evaluate", "--config", cfg_file, "--checkpoint", model,
                     "--run-dir", ev_dir]) == EXIT_OK
    report_path = os.path.join(ev_dir, "report-model.json")
    report = evaluation.EvalReport.from_json(Path(report_path).read_text())
    # epsilon 0 cells must equal clean accuracy exactly
    for cell in report.cells:
        if cell.epsilon == 0.0:
            assert cell.robust_accuracy == report.clean_accuracy
    csv_lines = Path(ev_dir, "report.csv").read_text().strip().splitlines()
    assert len(csv_lines) - 1 == len(report.cells)

    capsys.readouterr()
    assert cli.main(["report", "--report", report_path]) == EXIT_OK
    assert "clean accuracy" in capsys.readouterr().out


def test_identical_config_and_seed_reproduce_artifacts(cfg_file, tmp_path):
    runs = []
    for tag in ("a", "b"):
        pre_dir = str(tmp_path / f"pre-{tag}")
        assert cli.main(["pretrain", "--config", cfg_file,
                         "--run-dir", pre_dir]) == EXIT_OK
        runs.append(Path(pre_dir, "pretrain-final.ckpt").read_bytes())
    assert runs[0] == runs[1]


def test_flag_overrides_epochs(cfg_file, tmp_path):
    pre_dir = str(tmp_path / "pre1")
    assert cli.main(["pretrain", "--config", cfg_file, "--pretrain-epochs", "1",
                     "--run-dir", pre_dir]) == EXIT_OK
    log = Path(pre_dir, "pretrain-log.jsonl").read_text()
    assert len(log.strip().splitlines()) == 1


def test_commands_do_not_mutate_config(cfg_file, tmp_path):
    before = Path(cfg_file).read_text()
    cli.main(["pretrain", "--config", cfg_file,
              "--run-dir", str(tmp_path / "x")])
    assert Path(cfg_file).read_text() == before
