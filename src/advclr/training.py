"""Training loops: adversarial-contrastive pretraining, linear-probe
fine-tuning, a plain cross-entropy baseline, and the optimizers behind them.
The three loops share one epoch driver; each supplies its per-batch loss and
names the weights it trains.

All loops are deterministic for a fixed (dataset, spec, config, seed): every
random decision (shuffling, augmentation, attack starts) is drawn from child
generators of one seed sequence, so repeated runs produce bitwise-identical
weights.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import attacks, data, losses, models, tensor as T
from .attacks import AttackConfig, AttackContext
from .data import AugmentPolicy, Dataset
from .models import ModelParams
from .tensor import NumericError


def default_view_attacks(epsilon: float = 0.03, num_steps: int = 5) -> tuple[AttackConfig, AttackConfig]:
    """Attack configs used to generate the PGD and CW views during pretraining."""
    pgd_view = AttackConfig("pgd", epsilon, num_steps=num_steps,
                            random_start=True, objective="contrastive")
    cw_view = AttackConfig("cw", epsilon, num_steps=num_steps,
                           random_start=True, objective="embedding_margin")
    return pgd_view, cw_view


@dataclass
class PretrainConfig:
    epochs: int
    batch_size: int
    lr0: float
    momentum: float = 0.9
    tau: float = 0.1
    pgd_view: AttackConfig = field(default_factory=lambda: default_view_attacks()[0])
    cw_view: AttackConfig = field(default_factory=lambda: default_view_attacks()[1])
    augment: AugmentPolicy = field(default_factory=lambda: AugmentPolicy(crop_pad=2, hflip_prob=0.5))
    seed: int = 0
    checkpoint_every: int = 0    # epochs between mid-run checkpoints; 0 = final only

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr0 <= 0:
            raise ValueError(f"lr0 must be positive, got {self.lr0}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")


@dataclass
class FinetuneConfig:
    epochs: int
    batch_size: int = 128
    lr: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class SupervisedConfig:
    """Plain cross-entropy training of encoder + classifier (baseline arm)."""

    epochs: int
    batch_size: int
    lr0: float
    momentum: float = 0.9
    augment: AugmentPolicy = field(default_factory=lambda: AugmentPolicy(crop_pad=2, hflip_prob=0.5))
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr0 <= 0:
            raise ValueError(f"lr0 must be positive, got {self.lr0}")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    lr: float
    seconds: float
    pgd_views: int = 0
    cw_views: int = 0


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(vars(r), sort_keys=True) + "\n"
                       for r in self.records)

    @staticmethod
    def from_jsonl(text: str) -> "TrainLog":
        records = [EpochRecord(**json.loads(line))
                   for line in text.splitlines() if line.strip()]
        return TrainLog(records)


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Half-cosine decay from lr0 at step 0 to 0 at total_steps."""
    if total_steps <= 0:
        raise ValueError(f"total_steps must be positive, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def sgd_momentum_step(params: ModelParams, grads: dict[str, np.ndarray],
                      state: dict[str, np.ndarray], lr: float, momentum: float):
    """v <- momentum*v + g; p <- p - lr*v for each named gradient."""
    for name, g in grads.items():
        p = params.arrays[name]
        if g.shape != p.shape:
            raise T.ShapeError(f"sgd step: gradient {g.shape} != param "
                               f"{p.shape} for {name!r}")
        v = state.get(name)
        if v is None:
            v = np.zeros_like(p)
        v = momentum * v + g.astype(p.dtype)
        state[name] = v
        params.arrays[name] = p - np.float32(lr) * v


def adam_step(params: ModelParams, grads: dict[str, np.ndarray],
              state: dict, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    """Bias-corrected Adam update of each named gradient's weight."""
    t = state.get("t", 0) + 1
    state["t"] = t
    for name, g in grads.items():
        p = params.arrays[name]
        if g.shape != p.shape:
            raise T.ShapeError(f"adam step: gradient {g.shape} != param "
                               f"{p.shape} for {name!r}")
        g = g.astype(np.float32)
        m = state.setdefault("m", {}).get(name, np.zeros_like(p))
        v = state.setdefault("v", {}).get(name, np.zeros_like(p))
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        state["m"][name] = m
        state["v"][name] = v
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        params.arrays[name] = p - np.float32(lr) * m_hat / (np.sqrt(v_hat) + np.float32(eps))


def _loss_guard(value: float, epoch: int, batch_idx: int) -> float:
    if not math.isfinite(value):
        raise NumericError(f"non-finite loss at epoch {epoch}, batch {batch_idx}")
    return value


def _descend(params: ModelParams, trains: tuple[str, ...], n: int, batch_size: int,
             shuffle_seeds, batch_loss, lr_at, update) -> Iterator[EpochRecord]:
    """Descend ``batch_loss(idx, leaves)`` over ``n`` rows, one epoch per seed.

    Only the weights whose names start with one of ``trains`` are lifted as
    gradient leaves, so only they are updated; ``update(params, grads, state,
    lr)`` steps them at ``lr_at(step)``. Yields each epoch's record, whose lr
    is its last step's.
    """
    state: dict = {}
    step = 0
    for epoch, seed in enumerate(shuffle_seeds):
        t0 = time.monotonic()
        epoch_losses = []
        for batch_idx, idx in enumerate(data.batch_iter(n, batch_size, int(seed))):
            tape = T.Tape()
            leaves = {name: tape.leaf(arr, requires_grad=True, dtype=np.float32)
                      for name, arr in params.arrays.items() if name.startswith(trains)}
            loss = batch_loss(idx, leaves)
            epoch_losses.append(_loss_guard(float(loss.data), epoch, batch_idx))
            grads = tape.backward(loss)
            lr = lr_at(step)
            update(params, {name: grads[t.handle] for name, t in leaves.items()},
                   state, lr)
            step += 1
        yield EpochRecord(epoch, float(np.mean(epoch_losses)), lr, time.monotonic() - t0)


def _momentum_on_cosine(cfg: PretrainConfig | SupervisedConfig, n: int):
    """``lr_at`` and ``update`` for momentum SGD on the cosine schedule."""
    total_steps = cfg.epochs * math.ceil(n / cfg.batch_size)
    return (lambda step: cosine_lr(step, total_steps, cfg.lr0),
            lambda params, grads, state, lr: sgd_momentum_step(
                params, grads, state, lr, cfg.momentum))


def act_pretrain(dataset: Dataset, spec: models.EncoderSpec, cfg: PretrainConfig,
                 out_dir: str | None = None,
                 proj_dim: int = 128) -> tuple[ModelParams, TrainLog]:
    """Adversarial-contrastive pretraining of encoder + projection head.

    Per batch: augment, generate a PGD view and a CW view of each augmented
    image against the current weights, then descend the contrastive loss over
    the (clean, PGD, CW) projections with momentum SGD on a cosine schedule.
    """
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    aug_rng = np.random.default_rng(seeds[0])
    attack_rng = np.random.default_rng(seeds[1])
    shuffle_seeds = np.random.default_rng(seeds[2]).integers(0, 2 ** 31, size=cfg.epochs)
    params = models.init_params(spec, dataset.num_classes, cfg.seed, proj_dim)
    views = [0, 0]      # PGD and CW views made this epoch

    def batch_loss(idx, leaves):
        x_aug = data.augment_batch(dataset.images[idx], cfg.augment, aug_rng)
        z_ref = models.project(params, models.encode(params, x_aug)).data
        ctx = AttackContext(reference=z_ref, temperature=cfg.tau, rng=attack_rng)
        x_pgd = attacks.pgd(params, x_aug, cfg.pgd_view, ctx)
        x_cw = attacks.cw(params, x_aug, cfg.cw_view, ctx)
        views[0] += len(x_pgd)
        views[1] += len(x_cw)
        emb = models.encode(params, np.concatenate([x_aug, x_pgd, x_cw]),
                            train=True, lifted=leaves)
        z_all = models.project(params, emb, lifted=leaves)
        b = len(idx)
        triple = losses.ViewTriple(*(T.slice_rows(z_all, i * b, (i + 1) * b)
                                     for i in range(3)))
        return losses.adv_contrastive(triple, cfg.tau)

    log = TrainLog()
    for record in _descend(params, ("encoder.", "proj."), len(dataset), cfg.batch_size,
                           shuffle_seeds, batch_loss,
                           *_momentum_on_cosine(cfg, len(dataset))):
        if views != [len(dataset)] * 2:
            raise AssertionError(f"view accounting broke at epoch {record.epoch}: "
                                 f"{views[0]} pgd / {views[1]} cw for "
                                 f"{len(dataset)} images")
        record.pgd_views, record.cw_views = views
        views[:] = [0, 0]
        log.records.append(record)
        done = record.epoch + 1
        if out_dir is not None and cfg.checkpoint_every and \
                done % cfg.checkpoint_every == 0 and done < cfg.epochs:
            models.save_checkpoint(f"{out_dir}/pretrain-epoch{done}.ckpt", params)
    if out_dir is not None:
        models.save_checkpoint(f"{out_dir}/pretrain-final.ckpt", params)
    return params, log


def finetune(dataset: Dataset, checkpoint, num_classes: int,
             cfg: FinetuneConfig) -> tuple[ModelParams, TrainLog]:
    """Train a linear probe on frozen encoder features with Adam.

    The projection head is dropped from the forward path; the classifier is
    re-initialized from cfg.seed and attached directly to encoder output.
    Only the classifier trains, so every other weight (and the running
    statistics) is bitwise unchanged.
    """
    params = checkpoint.copy() if isinstance(checkpoint, ModelParams) \
        else models.load_checkpoint(checkpoint)
    if num_classes != dataset.num_classes:
        raise ValueError(f"num_classes {num_classes} != dataset classes "
                         f"{dataset.num_classes}")
    if params.num_classes != num_classes:
        raise data.DataError(f"checkpoint classifier has {params.num_classes} "
                             f"classes, dataset has {num_classes}")
    rng = np.random.default_rng(cfg.seed)
    emb_dim = params.spec.embedding_dim
    params.arrays["classifier.w"] = (
        rng.standard_normal((emb_dim, num_classes)) * np.sqrt(2.0 / emb_dim)
    ).astype(np.float32)
    params.arrays["classifier.b"] = np.zeros(num_classes, dtype=np.float32)

    # frozen eval-mode encoder => embeddings can be computed once up front
    emb_all = embed_dataset(params, dataset)
    shuffle_seeds = rng.integers(0, 2 ** 31, size=cfg.epochs)

    def batch_loss(idx, leaves):
        logits = models.classify(params, emb_all[idx], lifted=leaves)
        return losses.cross_entropy(logits, dataset.labels[idx])

    records = _descend(params, ("classifier.",), len(dataset), cfg.batch_size,
                       shuffle_seeds, batch_loss, lambda step: cfg.lr, adam_step)
    return params, TrainLog(list(records))


def supervised_train(dataset: Dataset, spec: models.EncoderSpec,
                     cfg: SupervisedConfig, proj_dim: int = 128
                     ) -> tuple[ModelParams, TrainLog]:
    """Cross-entropy training of encoder + classifier (no adversarial views)."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    aug_rng = np.random.default_rng(seeds[0])
    shuffle_seeds = np.random.default_rng(seeds[1]).integers(0, 2 ** 31, size=cfg.epochs)
    params = models.init_params(spec, dataset.num_classes, cfg.seed, proj_dim)

    def batch_loss(idx, leaves):
        x_aug = data.augment_batch(dataset.images[idx], cfg.augment, aug_rng)
        emb = models.encode(params, x_aug, train=True, lifted=leaves)
        logits = models.classify(params, emb, lifted=leaves)
        return losses.cross_entropy(logits, dataset.labels[idx])

    records = _descend(params, ("encoder.", "classifier."), len(dataset), cfg.batch_size,
                       shuffle_seeds, batch_loss, *_momentum_on_cosine(cfg, len(dataset)))
    return params, TrainLog(list(records))


def embed_dataset(params: ModelParams, dataset: Dataset,
                  batch_size: int = 512) -> np.ndarray:
    """Eval-mode encoder embeddings for every image, in dataset order."""
    chunks = [models.encode(params, dataset.images[i:i + batch_size]).data
              for i in range(0, len(dataset), batch_size)]
    return np.concatenate(chunks) if chunks else \
        np.zeros((0, params.spec.embedding_dim), dtype=np.float32)
