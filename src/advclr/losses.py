"""Contrastive and classification losses.

All losses are pure functions of tensors and can run either on a tape (for
gradients) or on plain constants. Embedding inputs are expected row-wise
L2-normalized; similarities are plain dot products of those unit rows.
"""

from __future__ import annotations

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


def info_nce_terms(anchors, positives, pool, exclude,
                   temperature: float = 0.1) -> Tensor:
    """Per-anchor one-positive-vs-pool softmax loss, shape (B,).

    ``anchors`` and ``positives`` are (B, D) unit rows, ``pool`` (P, D) unit
    rows, and ``exclude[i, j]`` marks pool row j as not a negative of anchor i
    (at least the anchor's own views). For each anchor:
    -log( e^(pos/t) / (e^(pos/t) + sum_j e^(neg_j/t)) ), the cross-entropy of
    the logits [positive | masked negatives] at 0.
    """
    if temperature <= 0:
        raise ValueError(f"info_nce: temperature must be positive, got {temperature}")
    anchors, positives, pool = map(_as_tensor, (anchors, positives, pool))
    for name, t in (("anchors", anchors), ("positives", positives), ("pool", pool)):
        _check_unit_rows(f"info_nce {name}", t)
    b, p = anchors.shape[0], pool.shape[0]
    exclude = np.asarray(exclude, dtype=bool)
    if exclude.shape != (b, p):
        raise T.ShapeError(f"info_nce: exclude mask {exclude.shape} != ({b}, {p})")

    inv_t = 1.0 / temperature
    s_pos = T.mul(anchors, positives).sum(axis=1, keepdims=True) * inv_t   # (B, 1)
    s_neg = T.matmul(anchors, T.transpose(pool)) * inv_t                   # (B, P)
    mask = np.where(exclude, MASK_VALUE, 0.0).astype(anchors.data.dtype)
    logits = T.concat([s_pos, T.add(s_neg, T.constant(mask))], axis=1)
    return T.softmax_cross_entropy(logits, np.zeros(b, dtype=int))   # class 0: the positive


def info_nce(anchors, positives, pool, exclude, temperature: float = 0.1) -> Tensor:
    """:func:`info_nce_terms` averaged over anchors."""
    return info_nce_terms(anchors, positives, pool, exclude, temperature).mean()


def adv_contrastive(z_orig, z_pgd, z_cw, temperature: float = 0.1) -> Tensor:
    """Average of two anchored losses: clean-vs-PGD view and clean-vs-CW view.

    The arguments are the projections of the clean batch and of its two
    perturbed views. Negatives for both terms are every view (clean, PGD, CW)
    of every other image in the batch.
    """
    z_orig, z_pgd, z_cw = map(_as_tensor, (z_orig, z_pgd, z_cw))
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
    first = info_nce(z_orig, z_pgd, pool, exclude, temperature)
    second = info_nce(z_orig, z_cw, pool, exclude, temperature)
    return T.mul(T.add(first, second), 0.5)


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax logits."""
    return T.softmax_cross_entropy(_as_tensor(logits), labels).mean()
