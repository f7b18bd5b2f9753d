"""End-to-end command-line driver checks on a miniature pipeline."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import advclr
from advclr import cli, evaluation, models
from advclr.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_NUMERIC, EXIT_OK

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


def test_checkpoint_class_mismatch_is_data_error(cfg_file, tmp_path):
    # TINY_CFG has 4 classes; the checkpoint's classifier has 5
    ckpt = str(tmp_path / "five.ckpt")
    models.save_checkpoint(ckpt, models.init_params(
        models.EncoderSpec("toy_conv", (4, 6, 8)), num_classes=5, seed=0, proj_dim=8))
    assert cli.main(["finetune", "--config", cfg_file, "--checkpoint", ckpt,
                     "--run-dir", str(tmp_path / "ft")]) == EXIT_DATA


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
