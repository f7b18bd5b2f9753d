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
import math
import os
from dataclasses import dataclass

from .attacks import AttackConfig
from .data import AugmentPolicy, Dataset, check_range, load_cifar10, make_synthetic
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


def _list_of(item):
    """A parser of comma-separated ``item`` values; empty parts are skipped."""
    def parse(raw: str) -> list:
        return [item(part.strip()) for part in raw.split(",") if part.strip()]
    parse.__name__ = f"parse_{item.__name__}_list"    # argparse names it in errors
    return parse


parse_float_list = _list_of(float)

_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "str": str.strip,
            "floats": parse_float_list, "ints": _list_of(int), "strs": _list_of(str)}

# (type, default); a default of None marks a key that its builder requires
SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "run": {"seed": ("int", 0), "out_dir": ("str", "runs")},
    "data": {"source": ("str", "synthetic"), "dir": ("str", ""),
             "num_classes": ("int", 10), "per_class": ("int", 500),
             "test_per_class": ("int", 100), "image_size": ("int", 16),
             "noise": ("float", 0.08), "signal": ("float", 0.12)},
    "model": {"kind": ("str", "toy_conv"), "widths": ("ints", [8, 16, 32]),
              "blocks_per_stage": ("int", 1), "proj_dim": ("int", 128)},
    "augment": {"crop_pad": ("int", 2), "hflip_prob": ("float", 0.5)},
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
# lower bounds of numeric keys, whichever command reads them; all must be finite
MINIMUMS = {("run", "seed"): 0, ("data", "image_size"): 1, ("data", "noise"): 0,
            ("data", "signal"): -math.inf, ("model", "proj_dim"): 1,
            ("eval", "batch_size"): 1, ("eval", "max_test"): 0}


@dataclass
class RunConfig:
    values: dict[str, dict[str, object]]

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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
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
        _checked(section, check_range, name=key, value=cfg.values[section][key],
                 low=least)
    return cfg


# --- builders for the module-level config objects --------------------------


def build_dataset(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    source = cfg.get("data", "source")
    if source == "cifar10":
        return build_cifar10(cfg)
    if source != "synthetic":
        raise ConfigError(f"[data] source must be 'synthetic' or 'cifar10', "
                          f"got {source!r}")
    for key in ("per_class", "test_per_class"):   # only synthetic data reads them
        _checked("data", check_range, name=key, value=cfg.get("data", key), low=1)
    seed = cfg.get("run", "seed")
    common = dict(num_classes=cfg.get("data", "num_classes"),
                  image_size=cfg.get("data", "image_size"),
                  seed=seed, noise=cfg.get("data", "noise"),
                  signal=cfg.get("data", "signal"))
    train = _checked("data", make_synthetic, per_class=cfg.get("data", "per_class"),
                     split="train", **common)
    test = _checked("data", make_synthetic, per_class=cfg.get("data", "test_per_class"),
                    split="test", **common)
    return train, test


def build_cifar10(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    """The CIFAR-10 train and test splits from ``[data] dir``, which is required."""
    directory = cfg.get("data", "dir")
    if not directory:
        raise ConfigError(f"missing required key: [data] dir (or set {DATA_DIR_ENV})")
    return load_cifar10(directory)


def _checked(section: str, make, **kwargs):
    """``make(**kwargs)``, with its ValueError reported as a config error."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def build_encoder_spec(cfg: RunConfig) -> EncoderSpec:
    spec = _checked("model", EncoderSpec, kind=cfg.get("model", "kind"),
                    widths=tuple(cfg.get("model", "widths")),
                    blocks_per_stage=cfg.get("model", "blocks_per_stage"))
    if cfg.get("data", "source") == "synthetic":     # image_size sizes synthetic data only
        _checked("model", spec.check_image_size, image_size=cfg.get("data", "image_size"))
    return spec


def build_augment(cfg: RunConfig, image_size: int) -> AugmentPolicy:
    """The augmentation policy for images of side ``image_size``."""
    crop_pad = cfg.get("augment", "crop_pad")
    _checked("augment", check_range, name="crop_pad", value=crop_pad, low=0,
             high=image_size, high_open=True)   # np.pad would reflect more than once
    return _checked("augment", AugmentPolicy, crop_pad=crop_pad,
                    hflip_prob=cfg.get("augment", "hflip_prob"))


def _pretrain_config(view_epsilon: float, view_steps: int, **fields) -> PretrainConfig:
    pgd_view, cw_view = default_view_attacks(epsilon=view_epsilon, num_steps=view_steps)
    return PretrainConfig(pgd_view=pgd_view, cw_view=cw_view, **fields)


# what makes each training section's config object from the section's keys
_SECTION_MAKERS = {"pretrain": _pretrain_config, "finetune": FinetuneConfig,
                   "baseline": SupervisedConfig}


def build_section(cfg: RunConfig, section: str, **extras):
    """``[section]``'s config object from every key of the section (one with
    no default is required), then ``[run] seed``, then ``extras``."""
    values = {key: cfg.require(section, key) for key in SCHEMA[section]}
    return _checked(section, _SECTION_MAKERS[section], **values,
                    seed=cfg.get("run", "seed"), **extras)


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
