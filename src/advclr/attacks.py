"""White-box L-infinity input attacks: FGSM, PGD, and a margin-loss CW.

All three are one engine, :func:`run_attack`: projected sign-gradient ascent
of a scalar objective on the eps-ball around the clean input intersected with
the [0, 1] pixel range; model weights are never touched. It takes
``num_steps`` steps, optionally from a random start, and returns each
sample's best visited iterate (start point included). For FGSM,
:class:`AttackConfig` fixes one step of size epsilon and no random start.
``DEFAULT_OBJECTIVES`` gives each kind's objective when ``cfg.objective`` is
unset. ``fgsm``, ``pgd`` and ``cw`` are aliases of ``run_attack``. A random
start draws one uniform double per input value from ``context.rng`` (a
ValueError when it is None), and the attack draws nothing else.

Under a supervised objective the clean input also counts as visited, and a
sample leaves the attack at the first visited point the model misclassifies:
that point is returned and no later step evaluates the sample. Only samples
never misclassified get the return rule above. ``context.fooled`` receives
the verdict: true for exactly the samples that left, which are exactly the
samples whose returned point the model misclassifies.

``context.clean``, when set, is the caller's evaluation of the unperturbed
batch ``x`` (as float32) under the attack's objective and kappa: the
``(per-row objective, input gradient or None, misclassified rows)`` triple of
``_eval_objective``. The engine reads it, and never writes it, in place of
its own evaluation of ``x``: the first evaluation of an attack that
``steps_from_clean`` (the gradient must be there), else the clean pass before
the random start. Many attacks on one batch can so share one clean
evaluation, and the outputs are bitwise those of an attack that makes its own.

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

import math
from dataclasses import dataclass, replace

import numpy as np

from . import losses, models, tensor as T
from .data import check_range
from .tensor import NumericError, Tensor

# kind -> (objective with labels, objective with reference embeddings only)
DEFAULT_OBJECTIVES = {
    "fgsm": ("supervised_ce", "embedding_repel"),
    "pgd": ("supervised_ce", "contrastive"),
    "cw": ("supervised_margin", "embedding_margin"),
}
ATTACK_KINDS = tuple(DEFAULT_OBJECTIVES)
# float64 values per random-start draw: about 512 KB at a time
_NOISE_CHUNK = 1 << 16
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
        check_range("epsilon", self.epsilon, 0)
        check_range("num_steps", self.num_steps, 1)
        check_range("kappa", self.kappa, 0)
        if self.objective is not None and self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.kind == "fgsm":     # one step of size epsilon from the clean input
            for name, value in (("step_size", self.epsilon), ("num_steps", 1),
                                ("random_start", False)):
                object.__setattr__(self, name, value)
        elif self.step_size is not None:
            check_range("step_size", self.step_size, 0, low_open=True)

    @property
    def step(self) -> float:
        return self.step_size if self.step_size is not None else self.epsilon / 4.0

    @property
    def steps_from_clean(self) -> bool:
        """No random start: the first step needs the clean input's gradient."""
        return not (self.random_start and self.epsilon > 0)


@dataclass
class AttackContext:
    """Side information the objective needs: labels or reference projections."""

    labels: np.ndarray | None = None        # (B,) int, supervised objectives
    reference: np.ndarray | None = None     # (B, proj_dim) unit rows, embedding ones
    temperature: float = 0.1
    rng: np.random.Generator | None = None  # drives a random start, which needs it
    fooled: np.ndarray | None = None        # (B,) bool, set by a supervised attack
    clean: tuple | None = None              # read-only evaluation of x; module doc


def project_linf(x_adv: np.ndarray, x_ref: np.ndarray,
                 epsilon: float) -> np.ndarray:
    """Clamp into the eps-ball around x_ref, then into the [0, 1] pixel range.

    For x_ref in [0, 1] that is one clip to the box [max(x_ref - eps, 0),
    min(x_ref + eps, 1)], bitwise the two clips; it is built in the output
    and one temporary.
    """
    if x_adv.shape != x_ref.shape:
        raise T.ShapeError(f"project_linf: shapes {x_adv.shape} != {x_ref.shape}")
    bound = np.subtract(x_ref, epsilon)
    out = np.maximum(x_adv, np.maximum(bound, 0.0, out=bound))
    bound = np.add(x_ref, epsilon, out=bound)
    return np.minimum(out, np.minimum(bound, 1.0, out=bound), out=out)


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
    """Build the ascend-objective for a tape input.

    Returns (scalar, per_sample, wrong): ``wrong`` marks the rows whose logits'
    argmax misses the label, or is None for an embedding objective.
    """
    b = x.shape[0]
    if mode in ("supervised_ce", "supervised_margin"):
        if ctx.labels is None:
            raise ValueError(f"{mode}: attack context is missing labels")
        labels = np.asarray(ctx.labels)
        logits = models.classify(params, models.encode(params, x))
        wrong = logits.data.argmax(axis=1) != labels
        if mode == "supervised_ce":
            per = T.softmax_cross_entropy(logits, labels)
            return per.mean(), per.data, wrong
        onehot = np.zeros(logits.shape)
        onehot[np.arange(b), labels] = 1.0
        per = _margin_terms(logits, onehot, kappa, ascent=ascent)
        return per.sum(), per.data, wrong
    if ctx.reference is None:
        raise ValueError(f"{mode}: attack context is missing reference embeddings")
    ref = np.asarray(ctx.reference, dtype=x.data.dtype)
    z = models.project(params, models.encode(params, x))
    if mode == "embedding_repel":
        per = T.neg(T.mul(z, T.constant(ref)).sum(axis=1))
        return per.mean(), per.data, None
    if mode == "embedding_margin":
        sims = T.matmul(z, T.constant(np.ascontiguousarray(ref.T)))
        eye = np.eye(b)
        per = T.neg(_margin_terms(sims, eye, kappa))
        return per.mean(), per.data, None
    if mode == "contrastive":
        per = losses.info_nce_terms(z, ref, ref, np.eye(b, dtype=bool), ctx.temperature)
        return per.mean(), per.data, None
    raise ValueError(f"unknown objective {mode!r}")


def _eval_objective(params, x_np, mode, ctx, kappa, want_grad):
    """(per-row objective, input gradient or None, misclassified rows or None)."""
    tape = T.Tape()
    x = tape.leaf(x_np, requires_grad=True) if want_grad else T.constant(x_np)
    scalar, per, wrong = _objective_graph(params, x, mode, ctx, kappa, ascent=True)
    if not want_grad:
        return per, None, wrong
    grad = tape.backward(scalar)[x.handle]
    if not np.all(np.isfinite(grad)):
        raise NumericError(f"{mode}: non-finite input gradient")
    return per, grad, wrong


def attack_objective(model: models.ModelParams, x, mode: str,
                     context: AttackContext, kappa: float = 0.0) -> float:
    """Scalar value of an attack objective (higher = more adversarial)."""
    xt = T.constant(x, np.float32)
    scalar, _, _ = _objective_graph(model, xt, mode, context, kappa)
    return float(scalar.data)


def objective_for(cfg: AttackConfig, supervised: bool) -> str:
    """``cfg.objective`` if set, else the kind's default for the context."""
    if cfg.objective is not None:
        return cfg.objective
    return DEFAULT_OBJECTIVES[cfg.kind][0 if supervised else 1]


def run_attack(model: models.ModelParams, x: np.ndarray, cfg: AttackConfig,
               context: AttackContext) -> np.ndarray:
    """Attack a batch with ``cfg``'s step schedule; see the module doc."""
    x = np.asarray(x, dtype=np.float32)
    mode = objective_for(cfg, context.labels is not None)
    labels = np.asarray(context.labels) if mode.startswith("supervised") else None
    eps, step = np.float32(cfg.epsilon), np.float32(cfg.step)
    # the active rows' batch positions, context and iterate
    rows, ctx, cur = np.arange(len(x)), context, x
    fooled = np.zeros(len(x), dtype=bool)
    clean = context.clean
    if not cfg.steps_from_clean:
        if context.rng is None:     # an unseeded start would not reproduce
            raise ValueError("a random start needs context.rng")
        if labels is not None:      # the clean input counts as visited
            _, _, wrong = clean or _eval_objective(model, x, mode, ctx, cfg.kappa,
                                                   want_grad=False)
            fooled |= wrong         # a copy: the loop below writes fooled
            rows = np.flatnonzero(~fooled)
            ctx = replace(context, labels=labels[rows])
        # drawn for the whole batch, so the stream does not depend on who
        # left, in row chunks: the same values in the same order
        noise = np.empty(x.shape, np.float32)
        chunk = max(1, _NOISE_CHUNK // max(1, math.prod(x.shape[1:])))
        for i in range(0, len(x), chunk):
            noise[i:i + chunk] = context.rng.uniform(
                -cfg.epsilon, cfg.epsilon, size=noise[i:i + chunk].shape)
        if len(rows) < len(x):
            noise = noise[rows]
        noise += x[rows]
        cur = project_linf(noise, x[rows], eps)
        del noise
    # each left row's frozen point, each active row's best; allocated after
    # the first evaluation, the one with the most rows
    out = None
    best = np.full(len(rows), -np.inf)
    for i in range(cfg.num_steps + 1):
        if not len(rows):
            break
        # the last evaluation only scores the final iterate, so needs no gradient
        stepping = i < cfg.num_steps
        if cur is x and clean is not None:
            per, grad, wrong = clean
        else:
            per, grad, wrong = _eval_objective(model, cur, mode, ctx, cfg.kappa,
                                               want_grad=stepping)
        if out is None:
            out = x.copy()
        if labels is not None and wrong.any():
            out[rows[wrong]] = cur[wrong]
            fooled[rows[wrong]] = True
            keep = ~wrong
            rows, cur, per, best = rows[keep], cur[keep], per[keep], best[keep]
            ctx = replace(context, labels=labels[rows])
            grad = grad[keep] if stepping else None
        improved = per >= best
        best = np.where(improved, per, best)
        out[rows[improved]] = cur[improved]
        if stepping:
            # cur + step * sign(grad) in one C-order buffer, the same bits;
            # the gradient and the old iterate are dropped as soon as read
            moved = np.sign(grad, out=np.empty(cur.shape, grad.dtype))
            del grad
            moved *= step
            moved += cur
            del cur
            cur = project_linf(moved, x[rows], eps)
            del moved
    if labels is not None:
        context.fooled = fooled
    return x.copy() if out is None else out


# the kind-named entry points; each runs cfg.kind
fgsm = pgd = cw = run_attack
