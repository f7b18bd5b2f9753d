"""Contrastive and classification losses.

All losses are pure functions of tensors and can run either on a tape (for
gradients) or on plain constants. Embedding inputs are expected row-wise
L2-normalized; similarities are plain dot products of those unit rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

# Additive penalty that effectively removes an entry from a softmax without
# introducing infinities.
MASK_VALUE = -1e9

UNIT_ROW_ATOL = 1e-4


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else T.constant(x)


def _check_unit_rows(name: str, t: Tensor):
    norms = np.sqrt((t.data ** 2).sum(axis=1))
    if norms.size and np.max(np.abs(norms - 1.0)) > UNIT_ROW_ATOL:
        raise ValueError(f"{name}: rows must be unit-norm (max |norm-1| = "
                         f"{np.max(np.abs(norms - 1.0)):.2e})")


def cosine_sim(a, b) -> float:
    """Cosine similarity of two vectors; raises on zero-norm input."""
    av = np.asarray(a, dtype=np.float64).reshape(-1)
    bv = np.asarray(b, dtype=np.float64).reshape(-1)
    na, nb = np.linalg.norm(av), np.linalg.norm(bv)
    if na < 1e-12 or nb < 1e-12:
        raise ValueError("cosine_sim: zero vector")
    return float(av @ bv / (na * nb))


@dataclass
class ContrastiveBatch:
    """One anchor row, one positive row, and a shared pool of negatives.

    ``exclude[i, j]`` marks pool row j as not-a-negative for anchor i
    (at minimum the anchor's own views).
    """

    anchors: Tensor          # (B, D) unit rows
    positives: Tensor        # (B, D) unit rows
    negative_pool: Tensor    # (P, D) unit rows
    exclude: np.ndarray      # (B, P) bool
    temperature: float = 0.1


@dataclass
class ViewTriple:
    """Projections of the clean batch and its two perturbed views."""

    z_orig: Tensor
    z_pgd: Tensor
    z_cw: Tensor


def info_nce_terms(batch: ContrastiveBatch) -> Tensor:
    """Per-anchor one-positive-vs-pool softmax loss, shape (B,).

    For each anchor: -log( e^(pos/t) / (e^(pos/t) + sum_j e^(neg_j/t)) ),
    computed with the usual max-shift for stability.
    """
    if batch.temperature <= 0:
        raise ValueError(f"info_nce: temperature must be positive, got {batch.temperature}")
    anchors = _as_tensor(batch.anchors)
    positives = _as_tensor(batch.positives)
    pool = _as_tensor(batch.negative_pool)
    for name, t in (("anchors", anchors), ("positives", positives), ("pool", pool)):
        _check_unit_rows(f"info_nce {name}", t)
    b, p = anchors.shape[0], pool.shape[0]
    exclude = np.asarray(batch.exclude, dtype=bool)
    if exclude.shape != (b, p):
        raise T.ShapeError(f"info_nce: exclude mask {exclude.shape} != ({b}, {p})")

    inv_t = 1.0 / batch.temperature
    s_pos = T.mul(anchors, positives).sum(axis=1, keepdims=True) * inv_t   # (B, 1)
    s_neg = T.matmul(anchors, T.transpose(pool)) * inv_t                   # (B, P)
    mask = np.where(exclude, MASK_VALUE, 0.0).astype(anchors.data.dtype)
    logits = T.concat([s_pos, T.add(s_neg, T.constant(mask))], axis=1)
    logp = T.log_softmax(logits)
    picker = np.zeros((b, p + 1), dtype=anchors.data.dtype)
    picker[:, 0] = 1.0
    return T.neg(T.mul(logp, T.constant(picker)).sum(axis=1))


def info_nce(batch: ContrastiveBatch) -> Tensor:
    """:func:`info_nce_terms` averaged over anchors."""
    return info_nce_terms(batch).mean()


def adv_contrastive(views: ViewTriple, temperature: float = 0.1) -> Tensor:
    """Average of two anchored losses: clean-vs-PGD view and clean-vs-CW view.

    Negatives for both terms are every view (clean, PGD, CW) of every other
    image in the batch.
    """
    z_orig = _as_tensor(views.z_orig)
    z_pgd = _as_tensor(views.z_pgd)
    z_cw = _as_tensor(views.z_cw)
    b = z_orig.shape[0]
    if z_pgd.shape != z_orig.shape or z_cw.shape != z_orig.shape:
        raise T.ShapeError(
            f"adv_contrastive: view shapes differ: {z_orig.shape}, "
            f"{z_pgd.shape}, {z_cw.shape}")
    pool = T.concat([z_orig, z_pgd, z_cw], axis=0)   # (3B, D)
    exclude = np.zeros((b, 3 * b), dtype=bool)
    rows = np.arange(b)
    for k in range(3):
        exclude[rows, k * b + rows] = True
    first = info_nce(ContrastiveBatch(z_orig, z_pgd, pool, exclude, temperature))
    second = info_nce(ContrastiveBatch(z_orig, z_cw, pool, exclude, temperature))
    return T.mul(T.add(first, second), 0.5)


def cross_entropy_terms(logits, labels) -> Tensor:
    """Per-row negative log-likelihood of integer labels under softmax logits.

    Shape (B,); the ``supervised_ce`` attack objective ascends these terms.
    """
    lt = _as_tensor(logits)
    y = np.asarray(labels)
    if lt.ndim != 2:
        raise T.ShapeError(f"cross_entropy: logits must be 2-d, got {lt.shape}")
    b, c = lt.shape
    if y.shape != (b,):
        raise T.ShapeError(f"cross_entropy: labels shape {y.shape} != ({b},)")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ValueError(f"cross_entropy: label out of range [0, {c})")
    onehot = np.zeros((b, c), dtype=lt.data.dtype)
    onehot[np.arange(b), y] = 1.0
    logp = T.log_softmax(lt)
    return T.neg(T.mul(logp, T.constant(onehot)).sum(axis=1))


def cross_entropy(logits, labels) -> Tensor:
    """:func:`cross_entropy_terms` averaged over rows."""
    return cross_entropy_terms(logits, labels).mean()
