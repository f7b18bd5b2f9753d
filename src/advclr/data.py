"""Dataset ingestion, synthetic data, augmentation, and batching.

Images are float32 arrays of shape (3, H, W) with values in [0, 1]. No
per-channel normalization is applied anywhere, so attack budgets stay in
raw pixel units. Datasets are immutable after construction; iterators are
independent per consumer.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

CIFAR10_CLASSES = ["airplane", "automobile", "bird", "cat", "deer",
                   "dog", "frog", "horse", "ship", "truck"]

_CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
_CIFAR_TEST_FILES = ["test_batch.bin"]
_CIFAR_RECORD_BYTES = 3073          # 1 label byte + 32*32*3 channel-major pixels
_CIFAR_RECORDS_PER_FILE = 10000


class DataError(ValueError):
    """Malformed, missing, or inconsistent dataset input."""


def check_range(name: str, value, low=-math.inf, high=math.inf, *,
                low_open: bool = False, high_open: bool = False):
    """``value`` if it is finite and within [low, high], else ValueError.

    ``low_open``/``high_open`` make that end strict. NaN and +-inf never pass.
    """
    above = value > low if low_open else value >= low
    below = value < high if high_open else value <= high
    if not (above and below and -math.inf < value < math.inf):
        raise ValueError(f"{name} must be finite and in {'[('[low_open]}{low}, "
                         f"{high}{'])'[high_open]}, got {value}")
    return value


@dataclass
class AugmentPolicy:
    """Random crop and flip; the default draws nothing and changes nothing."""

    crop_pad: int = 0
    hflip_prob: float = 0.0

    def __post_init__(self):
        check_range("crop_pad", self.crop_pad, 0)
        check_range("hflip_prob", self.hflip_prob, 0, 1)


@dataclass
class Dataset:
    images: np.ndarray          # (N, 3, H, W) float32
    labels: np.ndarray          # (N,) int64
    class_names: list[str]
    split: str = "train"

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.shape[1] != 3:
            raise DataError(f"images must be (N, 3, H, W), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DataError(f"labels shape {self.labels.shape} does not match "
                            f"{self.images.shape[0]} images")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= len(self.class_names)):
            raise DataError("label outside [0, num_classes)")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def image_size(self) -> int:
        return self.images.shape[2]


def _read_cifar_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    expected = _CIFAR_RECORD_BYTES * _CIFAR_RECORDS_PER_FILE
    if not os.path.isfile(path):
        raise DataError(f"missing CIFAR-10 batch file {path} "
                        f"(expected {expected} bytes)")
    size = os.path.getsize(path)
    if size != expected:
        raise DataError(f"truncated record in {path}: {size} bytes, "
                        f"expected {expected}")
    raw = np.fromfile(path, dtype=np.uint8).reshape(
        _CIFAR_RECORDS_PER_FILE, _CIFAR_RECORD_BYTES)
    labels = raw[:, 0].astype(np.int64)
    if labels.max() >= len(CIFAR10_CLASSES):
        raise DataError(f"label byte out of range in {path}")
    pixels = raw[:, 1:].reshape(_CIFAR_RECORDS_PER_FILE, 3, 32, 32)
    return (pixels.astype(np.float32) / 255.0), labels


def load_cifar10(directory: str) -> tuple[Dataset, Dataset]:
    """Load the binary-format CIFAR-10 batches from a directory.

    Returns (train, test) with 50000 and 10000 images, record order
    preserved and pixel bytes mapped to [0, 1] by division by 255.
    """
    parts = [_read_cifar_file(os.path.join(directory, f)) for f in _CIFAR_TRAIN_FILES]
    train = Dataset(np.concatenate([p for p, _ in parts]),
                    np.concatenate([l for _, l in parts]),
                    list(CIFAR10_CLASSES), split="train")
    tpix, tlab = _read_cifar_file(os.path.join(directory, _CIFAR_TEST_FILES[0]))
    test = Dataset(tpix, tlab, list(CIFAR10_CLASSES), split="test")
    return train, test


def _gaussian_blobs(rng, image_size: int, count: int, signed: bool) -> np.ndarray:
    ys, xs = np.mgrid[0:image_size, 0:image_size].astype(np.float64)
    acc = np.zeros((image_size, image_size))
    for _ in range(count):
        cy, cx = rng.uniform(0, image_size, size=2)
        sigma = rng.uniform(image_size / 8, image_size / 3)
        amp = rng.uniform(0.5, 1.0)
        if signed:
            amp *= rng.choice((-1.0, 1.0))
        acc += amp * np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * sigma ** 2))
    return acc


def _class_templates(num_classes: int, image_size: int, seed: int, blobs: int,
                     signal: float) -> np.ndarray:
    """One shared base texture plus a small per-class signed-blob pattern.

    The base carries no label information; class identity lives entirely in
    the low-amplitude pattern, so class margins are controlled by ``signal``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    base = np.empty((3, image_size, image_size), dtype=np.float64)
    for ch in range(3):
        acc = _gaussian_blobs(rng, image_size, blobs, signed=False)
        lo, hi = acc.min(), acc.max()
        span = hi - lo if hi > lo else 1.0
        base[ch] = 0.3 + 0.4 * (acc - lo) / span
    templates = np.empty((num_classes, 3, image_size, image_size), dtype=np.float64)
    for c in range(num_classes):
        for ch in range(3):
            pattern = _gaussian_blobs(rng, image_size, blobs, signed=True)
            peak = np.abs(pattern).max()
            if peak > 0:
                pattern = pattern / peak
            templates[c, ch] = base[ch] + signal * pattern
    return templates


def make_synthetic(num_classes: int, per_class: int, image_size: int = 16,
                   seed: int = 0, split: str = "train", noise: float = 0.08,
                   signal: float = 0.12, blobs: int = 3) -> Dataset:
    """Build a separable toy dataset of noisy per-class blob textures.

    The class textures depend only on (num_classes, image_size, seed, signal,
    blobs), so train and test splits drawn with the same seed share class
    structure while their sample noise streams are disjoint. Deterministic
    per (seed, split): repeated calls return bitwise-identical arrays.
    """
    if num_classes < 2:
        raise DataError(f"need at least 2 classes, got {num_classes}")
    if per_class < 0:
        raise DataError(f"per_class must be non-negative, got {per_class}")
    if split not in ("train", "test"):
        raise DataError(f"split must be 'train' or 'test', got {split!r}")
    templates = _class_templates(num_classes, image_size, seed, blobs, signal)
    stream = 1 if split == "train" else 2
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    n = num_classes * per_class
    images = np.empty((n, 3, image_size, image_size), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    for c in range(num_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        jitter = rng.normal(0.0, noise, size=(per_class, 3, image_size, image_size))
        images[block] = np.clip(templates[c][None] + jitter, 0.0, 1.0)
        labels[block] = c
    names = [f"class_{c}" for c in range(num_classes)]
    return Dataset(images, labels, names, split=split)


def _reflect_index(size: int, pad: int) -> np.ndarray:
    """The source index of each position of a length-``size`` axis padded by
    ``pad`` on both ends as ``np.pad(mode="reflect")`` pads it."""
    i = np.abs(np.arange(-pad, size + pad))
    period = max(2 * (size - 1), 1)
    i %= period
    return np.minimum(i, period - i)


def augment_batch(images: np.ndarray, policy: AugmentPolicy,
                  rng: np.random.Generator) -> np.ndarray:
    """Per-image reflection-pad random crop plus random horizontal flip.

    Shape is preserved and the result is a new array; one rng stream drives
    the whole batch, so its state fully determines the output.
    """
    n, _, h, w = images.shape
    out = images
    pad = policy.crop_pad
    if pad > 0:
        padded = images.take(_reflect_index(h, pad), axis=2).take(_reflect_index(w, pad), axis=3)
        offs = rng.integers(0, 2 * pad + 1, size=(n, 2))
        # each image's crop, in one gather from the (n, c, oy, ox, h, w) crop view
        crops = sliding_window_view(padded, (h, w), axis=(2, 3))
        out = crops[np.arange(n), :, offs[:, 0], offs[:, 1]]
    if policy.hflip_prob > 0:
        flips = rng.random(n) < policy.hflip_prob
        out = out.copy() if out is images else out
        out[flips] = out[flips, :, :, ::-1]
    return images.copy() if out is images else np.ascontiguousarray(out)


def batch_iter(n: int, batch_size: int,
               shuffle_seed: int | None = None) -> Iterator[np.ndarray]:
    """Yield the row indices of one epoch over ``n`` rows, in batches.

    Every row appears exactly once, last partial batch included. Without a
    seed the rows keep their order; with a seed the shuffle is deterministic.
    """
    if n == 0:
        raise DataError("cannot iterate an empty dataset")
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(n)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]
