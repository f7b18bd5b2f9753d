import os
import threading

import numpy as np
import pytest

import advclr as A
from advclr import attacks, data, threads, training
from advclr import tensor as T
from advclr.models import ModelParams
from advclr.tensor import NumericError, Tensor


TOY_SPEC = A.EncoderSpec("toy_conv", (8, 16, 32))


@pytest.fixture(scope="session")
def toy_data():
    """Small separable dataset shared across the slower fixtures."""
    train = data.make_synthetic(10, 100, 16, seed=0, split="train")
    test = data.make_synthetic(10, 50, 16, seed=0, split="test")
    return train, test


@pytest.fixture(scope="session")
def toy_baseline(toy_data):
    """Cross-entropy-trained toy model (decent clean accuracy, not robust)."""
    train, _ = toy_data
    cfg = training.SupervisedConfig(epochs=5, batch_size=128, lr0=0.05, seed=0,
                                    augment=data.AugmentPolicy(crop_pad=2))
    params, _ = training.supervised_train(train, TOY_SPEC, cfg)
    return params


@pytest.fixture(scope="session")
def toy_act(toy_data):
    """ACT-pretrained encoder plus fine-tuned linear probe."""
    train, _ = toy_data
    pgd_view, cw_view = training.default_view_attacks(0.04, num_steps=4)
    pre = training.PretrainConfig(epochs=6, batch_size=128, lr0=0.1, seed=0,
                                  pgd_view=pgd_view, cw_view=cw_view,
                                  augment=data.AugmentPolicy(crop_pad=2))
    encoder, _ = training.act_pretrain(train, TOY_SPEC, pre)
    probe, _ = training.finetune(train, encoder, train.num_classes,
                                 training.FinetuneConfig(epochs=25, lr=0.01, seed=0))
    return encoder, probe


@pytest.fixture()
def random_model():
    return A.init_params(TOY_SPEC, 10, seed=99)


# --- whole-network gradient oracle (acceptance criterion 1) ----------------


def flatten_arrays(params: ModelParams) -> np.ndarray:
    """All weights packed into one vector, in sorted-name order."""
    return np.concatenate([params.arrays[k].reshape(-1)
                           for k in sorted(params.arrays)])


def lift_from_vector(theta: Tensor, params: ModelParams) -> dict[str, Tensor]:
    """Split a packed weight vector tensor back into named weight tensors.

    Inverse of :func:`flatten_arrays`; used to differentiate a whole forward
    pass with respect to every weight at once.
    """
    lifted = {}
    offset = 0
    for name in sorted(params.arrays):
        shape = params.arrays[name].shape
        count = int(np.prod(shape)) if shape else 1
        lifted[name] = T.reshape(T.slice_rows(theta, offset, offset + count), shape)
        offset += count
    if offset != theta.data.size:
        raise T.ShapeError(f"packed vector has {theta.data.size} entries, "
                           f"weights need {offset}")
    return lifted


# --- composed cross-entropy and tape-stepped probe (oracles for the fused
# cross-entropy op and finetune's closed-form step) -------------------------


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-softmax of a (batch, classes) input as its own tape node."""
    z = x.data - x.data.max(axis=1, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return T._result("log_softmax", out,
                     [(x, lambda g: g - np.exp(out) * g.sum(axis=1, keepdims=True))])


def composed_cross_entropy_terms(logits: Tensor, labels) -> Tensor:
    """Per-row cross-entropy as log-softmax, a one-hot pick and a negation."""
    onehot = np.zeros(logits.shape, dtype=logits.dtype)
    onehot[np.arange(len(labels)), labels] = 1.0
    return T.neg(T.mul(log_softmax(logits), T.constant(onehot)).sum(axis=1))


def tape_finetune(dataset, encoder: ModelParams, cfg: training.FinetuneConfig):
    """``training.finetune`` with every Adam step taken through a tape over
    classify's matmul and bias ops and the composed cross-entropy.

    Returns the classifier arrays and the epoch losses.
    """
    rng = np.random.default_rng(cfg.seed)
    params = encoder.copy()
    emb_dim, classes = params.spec.embedding_dim, dataset.num_classes
    params.arrays["classifier.w"] = (
        rng.standard_normal((emb_dim, classes)) * np.sqrt(2.0 / emb_dim)).astype(np.float32)
    params.arrays["classifier.b"] = np.zeros(classes, dtype=np.float32)
    emb_all = training.embed_dataset(params, dataset)
    state, epoch_losses = {}, []
    for seed in rng.integers(0, 2 ** 31, size=cfg.epochs):
        batch_losses = []
        for idx in data.batch_iter(len(dataset), cfg.batch_size, int(seed)):
            tape = T.Tape()
            w = tape.leaf(params.arrays["classifier.w"], requires_grad=True)
            b = tape.leaf(params.arrays["classifier.b"], requires_grad=True)
            logits = T.bias_add(T.matmul(T.constant(emb_all[idx]), w), b)
            loss = composed_cross_entropy_terms(logits, dataset.labels[idx]).mean()
            batch_losses.append(float(loss.data))
            grads = tape.backward(loss)
            training.adam_step(params, {"classifier.w": grads[w.handle],
                                        "classifier.b": grads[b.handle]}, state, cfg.lr)
        epoch_losses.append(float(np.mean(batch_losses)))
    return {name: params.arrays[name] for name in ("classifier.w", "classifier.b")}, epoch_losses


# --- C-order pooling and the per-image crop loop (oracles for batch-last
# pooling and the one-gather crop, which must give the same bits) ----------


def reference_max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling on a C-order copy of the windows: argmax picks each
    window's first max, and the gradient is scattered back in C order."""
    batch, ch, h, w = x.shape
    ho, wo = h // 2, w // 2
    windows = x.data.reshape(batch, ch, ho, 2, wo, 2).transpose(0, 1, 2, 4, 3, 5)
    windows = np.ascontiguousarray(windows).reshape(batch, ch, ho, wo, 4)
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def pull(g):
        gw = np.zeros((batch, ch, ho, wo, 4), dtype=g.dtype)
        np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
        gw = gw.reshape(batch, ch, ho, wo, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return np.ascontiguousarray(gw).reshape(batch, ch, h, w)

    return T._result("max_pool2", np.ascontiguousarray(out), [(x, pull)])


def reference_global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean whose gradient is broadcast from C-order (batch, channels)."""
    batch, ch, h, w = x.shape
    n = h * w
    return T._result("global_avg_pool", x.data.mean(axis=(2, 3)),
                     [(x, lambda g: np.broadcast_to(g[:, :, None, None] / n,
                                                    (batch, ch, h, w)))])


def reference_augment_batch(images: np.ndarray, policy: data.AugmentPolicy,
                            rng: np.random.Generator) -> np.ndarray:
    """``data.augment_batch`` with ``np.pad`` and one crop copy per image."""
    n, _, h, w = images.shape
    out = images
    pad = policy.crop_pad
    if pad > 0:
        padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="reflect")
        offs = rng.integers(0, 2 * pad + 1, size=(n, 2))
        out = np.empty_like(images)
        for i in range(n):
            oy, ox = offs[i]
            out[i] = padded[i, :, oy:oy + h, ox:ox + w]
    if policy.hflip_prob > 0:
        flips = rng.random(n) < policy.hflip_prob
        out = out.copy() if out is images else out
        out[flips] = out[flips, :, :, ::-1]
    return images.copy() if out is images else np.ascontiguousarray(out)


def force_cpus(monkeypatch, n, blas=1):
    """Make ``threads.worker_fits`` see ``n`` usable CPUs and ``blas`` BLAS threads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(threads, "blas_threads", lambda: blas)


def cell_threads(monkeypatch, fail_on=None):
    """Record the thread of each cell, for a sweep with a worker thread: the
    calling thread's cells wait until the worker has started one. ``fail_on``
    ("main" or "worker") names the thread whose cells raise NumericError."""
    main, worker_started = threading.get_ident(), threading.Event()
    real_run, seen = attacks.run_attack, []

    def run_spy(*args, **kwargs):
        on_main = threading.get_ident() == main
        seen.append(threading.get_ident())
        if not on_main:
            worker_started.set()
        if fail_on == ("main" if on_main else "worker"):
            raise NumericError(f"cell failed on the {fail_on} thread")
        if on_main:
            worker_started.wait(10)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(attacks, "run_attack", run_spy)
    return seen
