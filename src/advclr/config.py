"""Sectioned key=value run configuration.

Grammar: ``[section]`` headers, ``key = value`` lines, ``#`` comments, blank
lines ignored. Unknown sections or keys are rejected (with a nearest-match
suggestion), values are type-checked, and command-line overrides win over
file values. The environment variable ADVCLR_DATA_DIR overrides the data
directory from the file; an explicit flag wins over both.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import os
from dataclasses import dataclass

from .attacks import AttackConfig
from .data import AugmentPolicy, Dataset, load_cifar10, make_synthetic
from .models import EncoderSpec
from .training import (PretrainConfig, FinetuneConfig, SupervisedConfig,
                       default_view_attacks)

DATA_DIR_ENV = "ADVCLR_DATA_DIR"


class ConfigError(ValueError):
    """Unparseable, unknown, or ill-typed configuration input."""


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def parse_float_list(raw: str) -> list[float]:
    return [float(part) for part in raw.split(",") if part.strip()]


def _parse_int_list(raw: str) -> list[int]:
    return [int(part) for part in raw.split(",") if part.strip()]


def _parse_str_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "str": str.strip,
            "floats": parse_float_list, "ints": _parse_int_list,
            "strs": _parse_str_list}

# (type, default); default None means "optional, validated by the command"
SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "run": {"seed": ("int", 0), "out_dir": ("str", "runs")},
    "data": {"source": ("str", "synthetic"), "dir": ("str", ""),
             "num_classes": ("int", 10), "per_class": ("int", 500),
             "test_per_class": ("int", 100), "image_size": ("int", 16),
             "noise": ("float", 0.08), "signal": ("float", 0.12)},
    "model": {"kind": ("str", "toy_conv"), "widths": ("ints", [8, 16, 32]),
              "blocks_per_stage": ("int", 1), "proj_dim": ("int", 128)},
    "augment": {"enabled": ("bool", True), "crop_pad": ("int", 2),
                "hflip_prob": ("float", 0.5)},
    "pretrain": {"epochs": ("int", None), "batch_size": ("int", 128),
                 "lr0": ("float", 0.1), "momentum": ("float", 0.9),
                 "tau": ("float", 0.1), "view_epsilon": ("float", 0.03),
                 "view_steps": ("int", 5), "checkpoint_every": ("int", 0)},
    "finetune": {"epochs": ("int", None), "batch_size": ("int", 128),
                 "lr": ("float", 0.0001)},
    "baseline": {"epochs": ("int", None), "batch_size": ("int", 128),
                 "lr0": ("float", 0.05)},
    "attacks": {"kinds": ("strs", ["fgsm", "pgd", "cw"]),
                "epsilons": ("floats", [0.03, 0.06, 0.08]),
                "steps": ("int", 10), "step_size": ("float", 0.0),
                "random_start": ("bool", True), "kappa": ("float", 0.0)},
    "eval": {"batch_size": ("int", 256), "max_test": ("int", 0)},
}
# lower bounds of integer keys, whichever command reads them
MINIMUMS = {("data", "image_size"): 1, ("model", "proj_dim"): 1,
            ("eval", "batch_size"): 1, ("eval", "max_test"): 0}


@dataclass
class RunConfig:
    values: dict[str, dict[str, object]]
    path: str = ""

    def get(self, section: str, key: str):
        return self.values[section][key]

    def require(self, section: str, key: str):
        value = self.values[section][key]
        if value is None:
            raise ConfigError(f"missing required key: [{section}] {key}")
        return value

    def digest(self) -> str:
        blob = json.dumps(self.values, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:8]


def _suggest(name: str, options) -> str:
    close = difflib.get_close_matches(name, list(options), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def default_config() -> RunConfig:
    values = {section: {k: default for k, (_, default) in keys.items()}
              for section, keys in SCHEMA.items()}
    return RunConfig(values)


def parse_config(path: str | None = None,
                 overrides: dict[str, object] | None = None) -> RunConfig:
    """Parse and validate a config file, then apply flag/env overrides.

    ``path`` None means no file: the defaults, then the overrides.
    ``overrides`` maps "section.key" to already-typed values.
    """
    cfg = default_config()
    lines = []
    if path is not None:
        cfg.path = path
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown section "
                                  f"[{section}]{_suggest(section, SCHEMA)}")
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SCHEMA[section]:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in "
                              f"[{section}]{_suggest(key, SCHEMA[section])}")
        type_name, _ = SCHEMA[section][key]
        try:
            cfg.values[section][key] = _PARSERS[type_name](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for [{section}] "
                              f"{key}: {exc}") from exc
    env_dir = os.environ.get(DATA_DIR_ENV)
    if env_dir:
        cfg.values["data"]["dir"] = env_dir
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown override {dotted!r}")
        if value is not None:
            cfg.values[section][key] = value
    for (section, key), least in MINIMUMS.items():
        if cfg.values[section][key] < least:
            raise ConfigError(f"[{section}] {key} must be >= {least}, "
                              f"got {cfg.values[section][key]}")
    return cfg


# --- builders for the module-level config objects --------------------------


def build_dataset(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    source = cfg.get("data", "source")
    if source == "cifar10":
        directory = cfg.get("data", "dir")
        if not directory:
            raise ConfigError(f"missing required key: [data] dir "
                              f"(or set {DATA_DIR_ENV})")
        return load_cifar10(directory)
    if source != "synthetic":
        raise ConfigError(f"[data] source must be 'synthetic' or 'cifar10', "
                          f"got {source!r}")
    seed = cfg.get("run", "seed")
    common = dict(num_classes=cfg.get("data", "num_classes"),
                  image_size=cfg.get("data", "image_size"),
                  seed=seed, noise=cfg.get("data", "noise"),
                  signal=cfg.get("data", "signal"))
    train = make_synthetic(per_class=cfg.get("data", "per_class"),
                           split="train", **common)
    test = make_synthetic(per_class=cfg.get("data", "test_per_class"),
                          split="test", **common)
    return train, test


def _checked(section: str, make, **kwargs):
    """``make(**kwargs)``, with its ValueError reported as a config error."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def build_encoder_spec(cfg: RunConfig) -> EncoderSpec:
    return _checked("model", EncoderSpec, kind=cfg.get("model", "kind"),
                    widths=tuple(cfg.get("model", "widths")),
                    blocks_per_stage=cfg.get("model", "blocks_per_stage"))


def build_augment(cfg: RunConfig, image_size: int) -> AugmentPolicy:
    """The augmentation policy for images of side ``image_size``."""
    crop_pad = cfg.get("augment", "crop_pad")
    if crop_pad >= image_size:      # np.pad would reflect more than once
        raise ConfigError(f"[augment] crop_pad must be below the image size "
                          f"{image_size}, got {crop_pad}")
    return _checked("augment", AugmentPolicy, crop_pad=crop_pad,
                    hflip_prob=cfg.get("augment", "hflip_prob"),
                    enabled=cfg.get("augment", "enabled"))


def build_pretrain(cfg: RunConfig, image_size: int) -> PretrainConfig:
    pgd_view, cw_view = _checked("pretrain", default_view_attacks,
                                 epsilon=cfg.get("pretrain", "view_epsilon"),
                                 num_steps=cfg.get("pretrain", "view_steps"))
    return _checked("pretrain", PretrainConfig,
                    epochs=cfg.require("pretrain", "epochs"),
                    batch_size=cfg.get("pretrain", "batch_size"),
                    lr0=cfg.get("pretrain", "lr0"),
                    momentum=cfg.get("pretrain", "momentum"),
                    tau=cfg.get("pretrain", "tau"),
                    pgd_view=pgd_view, cw_view=cw_view,
                    augment=build_augment(cfg, image_size),
                    seed=cfg.get("run", "seed"),
                    checkpoint_every=cfg.get("pretrain", "checkpoint_every"))


def build_finetune(cfg: RunConfig) -> FinetuneConfig:
    return _checked("finetune", FinetuneConfig,
                    epochs=cfg.require("finetune", "epochs"),
                    batch_size=cfg.get("finetune", "batch_size"),
                    lr=cfg.get("finetune", "lr"),
                    seed=cfg.get("run", "seed"))


def build_baseline(cfg: RunConfig, image_size: int) -> SupervisedConfig:
    return _checked("baseline", SupervisedConfig,
                    epochs=cfg.require("baseline", "epochs"),
                    batch_size=cfg.get("baseline", "batch_size"),
                    lr0=cfg.get("baseline", "lr0"),
                    augment=build_augment(cfg, image_size),
                    seed=cfg.get("run", "seed"))


def build_attacks(cfg: RunConfig) -> list[AttackConfig]:
    kinds = cfg.get("attacks", "kinds")
    epsilons = cfg.get("attacks", "epsilons")
    steps = cfg.get("attacks", "steps")
    step_size = cfg.get("attacks", "step_size") or None
    random_start = cfg.get("attacks", "random_start")
    kappa = cfg.get("attacks", "kappa")
    for key, values in (("kinds", kinds), ("epsilons", epsilons)):
        if not values:
            raise ConfigError(f"[attacks] {key} must name at least one value")
    return [_checked("attacks", AttackConfig, kind=kind, epsilon=eps,
                     step_size=step_size, num_steps=steps,
                     random_start=random_start and kind == "pgd", kappa=kappa)
            for kind in kinds for eps in epsilons]
