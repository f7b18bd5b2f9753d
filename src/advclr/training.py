"""Training loops: adversarial-contrastive pretraining, linear-probe
fine-tuning, a plain cross-entropy baseline, and the optimizers behind them.

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
    """v <- momentum*v + g; p <- p - lr*v. Frozen weights are untouched."""
    for name, g in grads.items():
        if name in params.frozen:
            continue
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
    """Bias-corrected Adam update. Frozen weights are untouched."""
    t = state.get("t", 0) + 1
    state["t"] = t
    for name, g in grads.items():
        if name in params.frozen:
            continue
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


def _grad_by_name(tape: T.Tape, loss, leaves: dict[str, T.Tensor]) -> dict[str, np.ndarray]:
    handle_grads = tape.backward(loss)
    return {name: handle_grads[t.handle] for name, t in leaves.items()
            if t.requires_grad}


def _loss_guard(value: float, epoch: int, batch_idx: int) -> float:
    if not math.isfinite(value):
        raise NumericError(f"non-finite loss at epoch {epoch}, batch {batch_idx}")
    return value


def act_pretrain(dataset: Dataset, spec: models.EncoderSpec, cfg: PretrainConfig,
                 out_dir: str | None = None,
                 proj_dim: int = 128) -> tuple[ModelParams, TrainLog]:
    """Adversarial-contrastive pretraining of encoder + projection head.

    Per batch: augment, generate a PGD view and a CW view of each augmented
    image against the current weights, then descend the contrastive loss over
    the (clean, PGD, CW) projections with momentum SGD on a cosine schedule.
    """
    if len(dataset) == 0:
        raise data.DataError("act_pretrain: empty dataset")
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    aug_rng = np.random.default_rng(seeds[0])
    attack_rng = np.random.default_rng(seeds[1])
    shuffle_seeds = np.random.default_rng(seeds[2]).integers(0, 2 ** 31, size=cfg.epochs)

    params = models.init_params(spec, dataset.num_classes, cfg.seed, proj_dim)
    batches_per_epoch = math.ceil(len(dataset) / cfg.batch_size)
    total_steps = cfg.epochs * batches_per_epoch
    opt_state: dict[str, np.ndarray] = {}
    log = TrainLog()
    step = 0
    for epoch in range(cfg.epochs):
        t0 = time.monotonic()
        epoch_losses = []
        pgd_views = cw_views = 0
        for batch_idx, batch in enumerate(
                data.batch_iter(dataset, cfg.batch_size, int(shuffle_seeds[epoch]))):
            x_aug = data.augment_batch(batch.images, cfg.augment, aug_rng)
            z_ref = models.project(params, models.encode(params, x_aug)).data
            ctx = AttackContext(reference=z_ref, temperature=cfg.tau, rng=attack_rng)
            x_pgd = attacks.pgd(params, x_aug, cfg.pgd_view, ctx)
            x_cw = attacks.cw(params, x_aug, cfg.cw_view, ctx)
            pgd_views += len(batch)
            cw_views += len(batch)

            tape = T.Tape()
            leaves = models.lift_params(tape, params, trainable=True)
            x_all = tape.leaf(np.concatenate([x_aug, x_pgd, x_cw]))
            emb = models.encode(params, x_all, train=True, lifted=leaves)
            z_all = models.project(params, emb, lifted=leaves)
            b = len(batch)
            triple = losses.ViewTriple(T.slice_rows(z_all, 0, b),
                                       T.slice_rows(z_all, b, 2 * b),
                                       T.slice_rows(z_all, 2 * b, 3 * b))
            loss = losses.adv_contrastive(triple, cfg.tau)
            epoch_losses.append(_loss_guard(float(loss.data), epoch, batch_idx))
            grads = _grad_by_name(tape, loss, leaves)
            lr = cosine_lr(step, total_steps, cfg.lr0)
            sgd_momentum_step(params, grads, opt_state, lr, cfg.momentum)
            step += 1
        expected = len(dataset)
        if pgd_views != expected or cw_views != expected:
            raise AssertionError(f"view accounting broke at epoch {epoch}: "
                                 f"{pgd_views} pgd / {cw_views} cw for {expected} images")
        log.records.append(EpochRecord(epoch, float(np.mean(epoch_losses)),
                                       cosine_lr(step - 1, total_steps, cfg.lr0),
                                       time.monotonic() - t0, pgd_views, cw_views))
        if out_dir is not None and cfg.checkpoint_every and \
                (epoch + 1) % cfg.checkpoint_every == 0 and epoch + 1 < cfg.epochs:
            models.save_checkpoint(f"{out_dir}/pretrain-epoch{epoch + 1}.ckpt", params)
    if out_dir is not None:
        models.save_checkpoint(f"{out_dir}/pretrain-final.ckpt", params)
    return params, log


def finetune(dataset: Dataset, checkpoint, num_classes: int,
             cfg: FinetuneConfig) -> tuple[ModelParams, TrainLog]:
    """Train a linear probe on frozen encoder features with Adam.

    The projection head is dropped from the forward path; the classifier is
    re-initialized from cfg.seed and attached directly to encoder output.
    Frozen weights (and running statistics) are bitwise unchanged.
    """
    if len(dataset) == 0:
        raise data.DataError("finetune: empty dataset")
    params = checkpoint.copy() if isinstance(checkpoint, ModelParams) \
        else models.load_checkpoint(checkpoint)
    if num_classes != dataset.num_classes:
        raise ValueError(f"num_classes {num_classes} != dataset classes "
                         f"{dataset.num_classes}")
    if params.num_classes != num_classes:
        raise data.DataError(f"checkpoint classifier has {params.num_classes} "
                             f"classes, dataset has {num_classes}")
    models.set_freeze(params, "encoder", True)
    models.set_freeze(params, "projection", True)
    rng = np.random.default_rng(cfg.seed)
    emb_dim = params.spec.embedding_dim
    params.arrays["classifier.w"] = (
        rng.standard_normal((emb_dim, num_classes)) * np.sqrt(2.0 / emb_dim)
    ).astype(np.float32)
    params.arrays["classifier.b"] = np.zeros(num_classes, dtype=np.float32)

    # frozen eval-mode encoder => embeddings can be computed once up front
    emb_all = embed_dataset(params, dataset)
    opt_state: dict = {}
    shuffle_seeds = rng.integers(0, 2 ** 31, size=cfg.epochs)
    log = TrainLog()
    n = len(dataset)
    for epoch in range(cfg.epochs):
        t0 = time.monotonic()
        order = np.random.default_rng(int(shuffle_seeds[epoch])).permutation(n)
        epoch_losses = []
        for batch_idx, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            tape = T.Tape()
            leaves = {"classifier.w": tape.leaf(params.arrays["classifier.w"],
                                                requires_grad=True),
                      "classifier.b": tape.leaf(params.arrays["classifier.b"],
                                                requires_grad=True)}
            logits = models.classify(params, emb_all[idx], lifted=leaves)
            loss = losses.cross_entropy(logits, dataset.labels[idx])
            epoch_losses.append(_loss_guard(float(loss.data), epoch, batch_idx))
            grads = _grad_by_name(tape, loss, leaves)
            adam_step(params, grads, opt_state, cfg.lr)
        log.records.append(EpochRecord(epoch, float(np.mean(epoch_losses)),
                                       cfg.lr, time.monotonic() - t0))
    return params, log


def supervised_train(dataset: Dataset, spec: models.EncoderSpec,
                     cfg: SupervisedConfig, proj_dim: int = 128
                     ) -> tuple[ModelParams, TrainLog]:
    """Cross-entropy training of encoder + classifier (no adversarial views)."""
    if len(dataset) == 0:
        raise data.DataError("supervised_train: empty dataset")
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    aug_rng = np.random.default_rng(seeds[0])
    shuffle_seeds = np.random.default_rng(seeds[1]).integers(0, 2 ** 31, size=cfg.epochs)
    params = models.init_params(spec, dataset.num_classes, cfg.seed, proj_dim)
    models.set_freeze(params, "projection", True)  # head unused by this loop
    batches_per_epoch = math.ceil(len(dataset) / cfg.batch_size)
    total_steps = cfg.epochs * batches_per_epoch
    opt_state: dict[str, np.ndarray] = {}
    log = TrainLog()
    step = 0
    for epoch in range(cfg.epochs):
        t0 = time.monotonic()
        epoch_losses = []
        for batch_idx, batch in enumerate(
                data.batch_iter(dataset, cfg.batch_size, int(shuffle_seeds[epoch]))):
            x_aug = data.augment_batch(batch.images, cfg.augment, aug_rng)
            tape = T.Tape()
            leaves = models.lift_params(tape, params, trainable=True)
            x = tape.leaf(x_aug)
            emb = models.encode(params, x, train=True, lifted=leaves)
            logits = models.classify(params, emb, lifted=leaves)
            loss = losses.cross_entropy(logits, batch.labels)
            epoch_losses.append(_loss_guard(float(loss.data), epoch, batch_idx))
            grads = _grad_by_name(tape, loss, leaves)
            lr = cosine_lr(step, total_steps, cfg.lr0)
            sgd_momentum_step(params, grads, opt_state, lr, cfg.momentum)
            step += 1
        log.records.append(EpochRecord(epoch, float(np.mean(epoch_losses)),
                                       cosine_lr(step - 1, total_steps, cfg.lr0),
                                       time.monotonic() - t0))
    return params, log


def embed_dataset(params: ModelParams, dataset: Dataset,
                  batch_size: int = 512) -> np.ndarray:
    """Eval-mode encoder embeddings for every image, in dataset order."""
    chunks = [models.encode(params, dataset.images[i:i + batch_size]).data
              for i in range(0, len(dataset), batch_size)]
    return np.concatenate(chunks) if chunks else \
        np.zeros((0, params.spec.embedding_dim), dtype=np.float32)
