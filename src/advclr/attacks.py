"""White-box L-infinity input attacks: FGSM, PGD, and a margin-loss CW.

All three are one engine, :func:`run_attack`: projected sign-gradient ascent
of a scalar objective on the eps-ball around the clean input intersected with
the [0, 1] pixel range; model weights are never touched. FGSM takes one step
of size epsilon and returns that point. PGD and CW take ``num_steps`` steps,
optionally from a random start, and return each sample's best visited iterate
(start point included). ``DEFAULT_OBJECTIVES`` gives each kind's objective
when ``cfg.objective`` is unset. ``fgsm``, ``pgd`` and ``cw`` are aliases of
``run_attack``: each runs ``cfg.kind``.

Objectives (all "ascend to attack"):

* ``supervised_ce``        mean cross-entropy against the true labels
* ``supervised_margin``    sum of max(max_{j!=y} Z_j - Z_y, -kappa) on logits
* ``embedding_repel``      mean of -cos(z_adv, z_ref) against reference rows
* ``embedding_margin``     mean of -max(cos(z_adv, z_ref_self)
                              - max_{j!=i} cos(z_adv, z_ref_j), -kappa)
* ``contrastive``          one-positive-vs-batch softmax loss with the clean
                           projections as positive and negative pool
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses, models, tensor as T
from .losses import ContrastiveBatch
from .tensor import NumericError, Tensor

# kind -> (objective with labels, objective with reference embeddings only)
DEFAULT_OBJECTIVES = {
    "fgsm": ("supervised_ce", "embedding_repel"),
    "pgd": ("supervised_ce", "contrastive"),
    "cw": ("supervised_margin", "embedding_margin"),
}
ATTACK_KINDS = tuple(DEFAULT_OBJECTIVES)
OBJECTIVES = ("supervised_ce", "supervised_margin", "embedding_repel",
              "embedding_margin", "contrastive")


@dataclass(frozen=True)
class AttackConfig:
    kind: str
    epsilon: float
    step_size: float | None = None   # defaults to epsilon / 4 for pgd and cw
    num_steps: int = 10
    random_start: bool = False
    objective: str | None = None     # default depends on kind and context
    kappa: float = 0.0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {self.num_steps}")
        if self.objective is not None and self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if (self.kind != "fgsm" and self.step_size is not None
                and self.step_size <= 0):
            raise ValueError(f"step_size must be positive, got {self.step_size}")

    @property
    def step(self) -> float:
        return self.step_size if self.step_size is not None else self.epsilon / 4.0


@dataclass
class AttackContext:
    """Side information the objective needs: labels or reference projections."""

    labels: np.ndarray | None = None        # (B,) int, supervised objectives
    reference: np.ndarray | None = None     # (B, proj_dim) unit rows, embedding ones
    temperature: float = 0.1
    rng: np.random.Generator | None = None  # drives the optional random start


def project_linf(x_adv: np.ndarray, x_ref: np.ndarray,
                 epsilon: float) -> np.ndarray:
    """Clamp into the eps-ball around x_ref, then into the [0, 1] pixel range."""
    if x_adv.shape != x_ref.shape:
        raise T.ShapeError(f"project_linf: shapes {x_adv.shape} != {x_ref.shape}")
    out = np.clip(x_adv, x_ref - epsilon, x_ref + epsilon)
    return np.clip(out, 0.0, 1.0)


def _margin_terms(scores: Tensor, own: np.ndarray, kappa: float,
                  ascent: bool = False) -> Tensor:
    """Per-row clamped margin (best-other minus own-score), one-hot own mask.

    Reported form is max(m, -kappa): saturated once the own score dominates
    by more than kappa. An attack that *ascends* the margin needs the cap on
    the success side instead, min(m, kappa), or the clamp zeroes the gradient
    exactly on the samples it is trying to flip.
    """
    own_t = T.constant(own.astype(scores.data.dtype))
    s_own = T.mul(scores, own_t).sum(axis=1)
    masked = T.add(scores, T.constant(
        np.where(own > 0, losses.MASK_VALUE, 0.0).astype(scores.data.dtype)))
    s_other = T.rowmax(masked)
    margin = T.sub(s_other, s_own)
    if ascent:
        # min(m, kappa) == m - relu(m - kappa)
        return T.sub(margin, T.relu(T.add(margin, -kappa)))
    # max(m, -kappa) == relu(m + kappa) - kappa
    return T.add(T.relu(T.add(margin, kappa)), -kappa)


def _objective_graph(params: models.ModelParams, x: Tensor, mode: str,
                     ctx: AttackContext, kappa: float, ascent: bool = False):
    """Build the ascend-objective for a tape input; returns (scalar, per_sample)."""
    b = x.shape[0]
    if mode in ("supervised_ce", "supervised_margin"):
        if ctx.labels is None:
            raise ValueError(f"{mode}: attack context is missing labels")
        labels = np.asarray(ctx.labels)
        logits = models.classify(params, models.encode(params, x))
        if mode == "supervised_ce":
            per = losses.cross_entropy_terms(logits, labels)
            return per.mean(), per.data
        onehot = np.zeros(logits.shape)
        onehot[np.arange(b), labels] = 1.0
        per = _margin_terms(logits, onehot, kappa, ascent=ascent)
        return per.sum(), per.data
    if ctx.reference is None:
        raise ValueError(f"{mode}: attack context is missing reference embeddings")
    ref = np.asarray(ctx.reference, dtype=x.data.dtype)
    z = models.project(params, models.encode(params, x))
    if mode == "embedding_repel":
        per = T.neg(T.mul(z, T.constant(ref)).sum(axis=1))
        return per.mean(), per.data
    if mode == "embedding_margin":
        sims = T.matmul(z, T.constant(np.ascontiguousarray(ref.T)))
        eye = np.eye(b)
        per = T.neg(_margin_terms(sims, eye, kappa))
        return per.mean(), per.data
    if mode == "contrastive":
        batch = ContrastiveBatch(z, T.constant(ref), T.constant(ref),
                                 np.eye(b, dtype=bool), ctx.temperature)
        per = losses.info_nce_terms(batch)
        return per.mean(), per.data
    raise ValueError(f"unknown objective {mode!r}")


def _eval_objective(params, x_np, mode, ctx, kappa, want_grad):
    tape = T.Tape()
    x = tape.leaf(x_np, requires_grad=want_grad)
    scalar, per = _objective_graph(params, x, mode, ctx, kappa, ascent=True)
    if not want_grad:
        return per, None
    grad = tape.backward(scalar)[x.handle]
    if not np.all(np.isfinite(grad)):
        raise NumericError(f"{mode}: non-finite input gradient")
    return per, grad


def attack_objective(model: models.ModelParams, x, mode: str,
                     context: AttackContext, kappa: float = 0.0) -> float:
    """Scalar value of an attack objective (higher = more adversarial)."""
    tape = T.Tape()
    xt = tape.leaf(np.asarray(x, dtype=np.float32))
    scalar, _ = _objective_graph(model, xt, mode, context, kappa)
    return float(scalar.data)


def objective_for(cfg: AttackConfig, supervised: bool) -> str:
    """``cfg.objective`` if set, else the kind's default for the context."""
    if cfg.objective is not None:
        return cfg.objective
    return DEFAULT_OBJECTIVES[cfg.kind][0 if supervised else 1]


def run_attack(model: models.ModelParams, x: np.ndarray, cfg: AttackConfig,
               context: AttackContext) -> np.ndarray:
    """Attack a batch with ``cfg.kind``'s step schedule; see the module doc."""
    x = np.asarray(x, dtype=np.float32)
    mode = objective_for(cfg, context.labels is not None)
    if cfg.kind == "fgsm":
        _, grad = _eval_objective(model, x, mode, context, cfg.kappa, want_grad=True)
        return np.clip(x + np.float32(cfg.epsilon) * np.sign(grad), 0.0, 1.0)
    eps = np.float32(cfg.epsilon)
    step = np.float32(cfg.step)
    cur = x
    if cfg.random_start and cfg.epsilon > 0:
        rng = context.rng if context.rng is not None else np.random.default_rng()
        noise = rng.uniform(-cfg.epsilon, cfg.epsilon, size=x.shape).astype(np.float32)
        cur = project_linf(x + noise, x, eps)
    best_x, best_val = cur, np.full(len(x), -np.inf)
    for i in range(cfg.num_steps + 1):
        # the last evaluation only scores the final iterate, so needs no gradient
        stepping = i < cfg.num_steps
        per, grad = _eval_objective(model, cur, mode, context, cfg.kappa,
                                    want_grad=stepping)
        improved = per >= best_val
        if improved.any():
            best_val = np.where(improved, per, best_val)
            best_x = np.where(improved.reshape((-1,) + (1,) * (x.ndim - 1)),
                              cur, best_x)
        if stepping:
            cur = project_linf(cur + step * np.sign(grad), x, eps)
    return np.asarray(best_x, dtype=np.float32)


# the kind-named entry points; each runs cfg.kind
fgsm = pgd = cw = run_attack
