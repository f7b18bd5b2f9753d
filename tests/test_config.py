"""Config grammar: parsing, validation, suggestions, overrides, builders."""

import dataclasses
import math
from pathlib import Path

import pytest

from advclr import config as cfgmod
from advclr.attacks import AttackConfig
from advclr.config import ConfigError, parse_config
from advclr.data import AugmentPolicy
from advclr.training import FinetuneConfig, PretrainConfig, SupervisedConfig

README = Path(__file__).resolve().parents[1] / "README.md"

# valid keyword arguments for each config dataclass; pgd, because FGSM
# overwrites its step size
VALID = {PretrainConfig: dict(epochs=1, batch_size=8, lr0=0.1),
         SupervisedConfig: dict(epochs=1, batch_size=8, lr0=0.1),
         FinetuneConfig: dict(epochs=1),
         AttackConfig: dict(kind="pgd", epsilon=0.03),
         AugmentPolicy: dict()}
FLOAT_FIELDS = [(cls, f.name) for cls in VALID for f in dataclasses.fields(cls)
                if "float" in str(f.type)]

MINIMAL = """
[run]
seed = 1

[data]
source = synthetic
num_classes = 4
per_class = 20

[model]
kind = toy_conv
widths = 4,6,8

[pretrain]
epochs = 2

[finetune]
epochs = 3
"""


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestParse:
    def test_minimal_file_fills_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        pre = cfgmod.build_section(cfg, "pretrain")
        assert pre.tau == 0.1
        assert pre.momentum == 0.9
        assert pre.epochs == 2
        assert cfg.get("attacks", "epsilons") == [0.03, 0.06, 0.08]

    def test_unknown_key_suggests_fix(self, tmp_path):
        bad = MINIMAL + "\n[attacks]\nepsilonn = 0.03\n"
        with pytest.raises(ConfigError, match=r"epsilonn.*did you mean 'epsilons'"):
            parse_config(write(tmp_path, bad))

    def test_unknown_section_suggests_fix(self, tmp_path):
        bad = MINIMAL + "\n[attack]\nkinds = fgsm\n"
        with pytest.raises(ConfigError, match=r"\[attack\].*did you mean"):
            parse_config(write(tmp_path, bad))

    def test_type_error_reports_line(self, tmp_path):
        bad = "[run]\nseed = not_a_number\n"
        with pytest.raises(ConfigError, match=r"run\.cfg:2"):
            parse_config(write(tmp_path, bad))

    def test_key_outside_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="outside"):
            parse_config(write(tmp_path, "seed = 3\n"))

    def test_syntax_error_reports_line(self, tmp_path):
        bad = "[run]\nseed 3\n"
        with pytest.raises(ConfigError, match=r"run\.cfg:2"):
            parse_config(write(tmp_path, bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path / "absent.cfg"))

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "# top comment\n\n[run]\nseed = 5   # inline\n"
        cfg = parse_config(write(tmp_path, text))
        assert cfg.get("run", "seed") == 5


class TestOverrides:
    def test_flag_beats_file(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL), {"run.seed": 9})
        assert cfg.get("run", "seed") == 9

    def test_env_var_sets_data_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADVCLR_DATA_DIR", "/data/cifar")
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert cfg.get("data", "dir") == "/data/cifar"

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADVCLR_DATA_DIR", "/from/env")
        cfg = parse_config(write(tmp_path, MINIMAL), {"data.dir": "/from/flag"})
        assert cfg.get("data", "dir") == "/from/flag"

    def test_unknown_override_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="override"):
            parse_config(write(tmp_path, MINIMAL), {"run.sneed": 1})


class TestBuilders:
    def test_missing_required_epochs_reported_with_section(self, tmp_path):
        no_epochs = MINIMAL.replace("[pretrain]\nepochs = 2\n", "")
        cfg = parse_config(write(tmp_path, no_epochs))
        with pytest.raises(ConfigError, match=r"\[pretrain\] epochs"):
            cfgmod.build_section(cfg, "pretrain")

    def test_section_builder_passes_every_key_then_seed_then_extras(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL), {
            "pretrain.batch_size": 7, "pretrain.lr0": 0.2, "pretrain.momentum": 0.5,
            "pretrain.tau": 0.3, "pretrain.view_epsilon": 0.05, "pretrain.view_steps": 3,
            "pretrain.checkpoint_every": 2, "finetune.batch_size": 9, "finetune.lr": 0.01,
            "baseline.epochs": 4, "baseline.batch_size": 11, "baseline.lr0": 0.02})
        policy = AugmentPolicy(crop_pad=0, hflip_prob=0.0)
        pre = cfgmod.build_section(cfg, "pretrain", augment=policy)
        assert (pre.epochs, pre.batch_size, pre.lr0, pre.momentum, pre.tau,
                pre.checkpoint_every, pre.seed, pre.augment) == (2, 7, 0.2, 0.5, 0.3, 2, 1,
                                                                 policy)
        assert [(v.kind, v.epsilon, v.num_steps, v.random_start)
                for v in (pre.pgd_view, pre.cw_view)] == [("pgd", 0.05, 3, True),
                                                          ("cw", 0.05, 3, True)]
        assert cfgmod.build_section(cfg, "finetune") == FinetuneConfig(3, 9, 0.01, seed=1)
        assert cfgmod.build_section(cfg, "baseline", augment=policy) == SupervisedConfig(
            4, 11, 0.02, augment=policy, seed=1)

    def test_attack_grid(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        grid = cfgmod.build_attacks(cfg)
        assert len(grid) == 9  # 3 kinds x 3 epsilons
        kinds = {a.kind for a in grid}
        assert kinds == {"fgsm", "pgd", "cw"}

    def test_dataset_builder_synthetic(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        train, test = cfgmod.build_dataset(cfg)
        assert len(train) == 80 and train.num_classes == 4
        assert test.split == "test"

    def test_cifar_requires_dir(self, tmp_path):
        text = MINIMAL.replace("source = synthetic", "source = cifar10")
        cfg = parse_config(write(tmp_path, text))
        with pytest.raises(ConfigError, match="dir"):
            cfgmod.build_dataset(cfg)

    def test_cifar_ignores_synthetic_counts(self, tmp_path):
        # per_class and test_per_class size synthetic data only
        text = MINIMAL.replace("source = synthetic", "source = cifar10").replace(
            "per_class = 20", "per_class = 0\ntest_per_class = 0")
        cfg = parse_config(write(tmp_path, text))
        with pytest.raises(ConfigError, match=r"\[data\] dir"):
            cfgmod.build_dataset(cfg)

    def test_digest_stable_and_sensitive(self, tmp_path):
        a = parse_config(write(tmp_path, MINIMAL))
        b = parse_config(write(tmp_path, MINIMAL))
        assert a.digest() == b.digest()
        c = parse_config(write(tmp_path, MINIMAL), {"run.seed": 2})
        assert c.digest() != a.digest()


class TestNumericBounds:
    def test_every_config_has_float_fields(self):
        assert {cls for cls, _ in FLOAT_FIELDS} == set(VALID)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls,name", FLOAT_FIELDS,
                             ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS])
    def test_float_field_rejects_non_finite(self, cls, name, value):
        cls(**VALID[cls])
        with pytest.raises(ValueError, match=name):
            cls(**{**VALID[cls], name: value})

    def test_pretrain_extends_the_supervised_schedule(self):
        # the schedule fields and their checks are declared once
        assert issubclass(PretrainConfig, SupervisedConfig)
        assert set(vars(PretrainConfig)["__annotations__"]) == {
            "tau", "pgd_view", "cw_view", "checkpoint_every"}


def test_readme_config_block_builds_every_config(tmp_path):
    # README's config block and SCHEMA must not drift apart
    block = README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(write(tmp_path, block))
    size = cfg.get("data", "image_size")
    for section in ("pretrain", "finetune", "baseline"):
        cfgmod.build_section(cfg, section)
    cfgmod.build_encoder_spec(cfg)
    assert cfgmod.build_augment(cfg, size) == AugmentPolicy(crop_pad=2, hflip_prob=0.5)
    assert len(cfgmod.build_attacks(cfg)) == 9
