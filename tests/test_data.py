"""Dataset ingestion, synthesis, augmentation, and batching contracts."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advclr.data import (AugmentPolicy, DataError, augment_batch, batch_iter,
                         load_cifar10, make_synthetic)

RECORD = 3073
PER_FILE = 10000


def write_cifar_file(path, labels, pixels):
    """labels: (n,) uint8; pixels: (n, 3072) uint8."""
    rows = np.concatenate([labels[:, None], pixels], axis=1).astype(np.uint8)
    rows.tofile(path)


@pytest.fixture(scope="session")
def cifar_dir(tmp_path_factory):
    """Synthetic full-size CIFAR-10 binary directory with known contents."""
    root = tmp_path_factory.mktemp("cifar")
    rng = np.random.default_rng(0)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        labels = (np.arange(PER_FILE) % 10).astype(np.uint8)
        pixels = rng.integers(0, 256, size=(PER_FILE, 3072), dtype=np.uint8)
        pixels[0, 0] = 255      # first record, red plane corner: exact 1.0
        pixels[1, 0] = 0
        write_cifar_file(os.path.join(root, name), labels, pixels)
    return str(root)


class TestCifarLoader:
    def test_sizes_and_normalization(self, cifar_dir):
        train, test = load_cifar10(cifar_dir)
        assert len(train) == 50000 and len(test) == 10000
        assert train.images.dtype == np.float32
        assert train.images[0, 0, 0, 0] == 1.0     # byte 255 -> exactly 1.0
        assert train.images[1, 0, 0, 0] == 0.0
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0

    def test_record_order_and_class_counts(self, cifar_dir):
        train, test = load_cifar10(cifar_dir)
        np.testing.assert_array_equal(train.labels[:10], np.arange(10))
        counts = np.bincount(train.labels, minlength=10)
        assert counts.sum() == len(train)
        np.testing.assert_array_equal(counts, 5000)
        assert len(train.class_names) == 10

    def test_missing_file_names_file_and_size(self, tmp_path):
        with pytest.raises(DataError, match=r"data_batch_1\.bin.*30730000"):
            load_cifar10(str(tmp_path))

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "data_batch_1.bin"
        path.write_bytes(b"\x00" * 3072)
        with pytest.raises(DataError, match="truncated record"):
            load_cifar10(str(tmp_path))

    def test_label_byte_out_of_range(self, tmp_path):
        labels = np.full(PER_FILE, 11, dtype=np.uint8)
        pixels = np.zeros((PER_FILE, 3072), dtype=np.uint8)
        write_cifar_file(tmp_path / "data_batch_1.bin", labels, pixels)
        with pytest.raises(DataError, match="label"):
            load_cifar10(str(tmp_path))


def pooled_features(images, k=4):
    n, c, h, w = images.shape
    f = images.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5)).reshape(n, -1)
    return np.concatenate([f, np.ones((n, 1), dtype=f.dtype)], axis=1)


def train_linear_probe(x, y, classes, steps=300, lr=0.5):
    """Softmax regression by plain gradient descent; the separability oracle."""
    w = np.zeros((x.shape[1], classes))
    onehot = np.eye(classes)[y]
    for _ in range(steps):
        logits = x @ w
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        w -= lr * x.T @ (p - onehot) / len(x)
    return w


class TestSynthetic:
    def test_deterministic_per_seed(self):
        a = make_synthetic(10, 100, 32, seed=7)
        b = make_synthetic(10, 100, 32, seed=7)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_seeds_differ(self):
        a = make_synthetic(4, 10, 16, seed=1)
        b = make_synthetic(4, 10, 16, seed=2)
        assert not np.array_equal(a.images, b.images)

    def test_empty_is_valid(self):
        empty = make_synthetic(3, 0, 16, seed=0)
        assert len(empty) == 0

    def test_pixels_in_range(self):
        ds = make_synthetic(5, 20, 16, seed=3)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_small_linear_probe_separates_two_classes(self):
        # oracle: a <=200-parameter softmax probe on pooled raw pixels
        train = make_synthetic(2, 500, 16, seed=1, split="train")
        test = make_synthetic(2, 250, 16, seed=1, split="test")
        xt, xv = pooled_features(train.images), pooled_features(test.images)
        w = train_linear_probe(xt, train.labels, 2)
        assert w.size <= 200
        acc = float(((xv @ w).argmax(axis=1) == test.labels).mean())
        assert acc >= 0.9

    def test_rejects_single_class(self):
        with pytest.raises(DataError):
            make_synthetic(1, 10, 16, seed=0)


class TestAugment:
    def test_disabled_is_identity(self):
        rng = np.random.default_rng(0)
        images = rng.random((5, 3, 8, 8)).astype(np.float32)
        out = augment_batch(images, AugmentPolicy(crop_pad=4, hflip_prob=1.0,
                                                  enabled=False),
                            np.random.default_rng(1))
        assert np.array_equal(out, images)
        assert out is not images

    def test_hflip_swaps_halves(self):
        images = np.zeros((3, 3, 4, 4), dtype=np.float32)
        images[:, :, :, :2] = 1.0
        images[1] *= 0.5
        out = augment_batch(images, AugmentPolicy(crop_pad=0, hflip_prob=1.0),
                            np.random.default_rng(0))
        np.testing.assert_array_equal(out, images[:, :, :, ::-1])
        assert np.all(out[1, :, :, 2:] == 0.5) and np.all(out[:, :, :, :2] == 0.0)

    def test_crop_output_is_a_valid_shift(self):
        # oracle: enumerate all reachable pad-and-crop results of each image
        rng = np.random.default_rng(5)
        images = rng.random((6, 3, 32, 32)).astype(np.float32)
        pad = 4
        out = augment_batch(images, AugmentPolicy(crop_pad=pad, hflip_prob=0.0),
                            np.random.default_rng(123))
        assert out.shape == images.shape
        for image, result in zip(images, out):
            padded = np.pad(image, ((0, 0), (pad, pad), (pad, pad)), mode="reflect")
            candidates = [padded[:, oy:oy + 32, ox:ox + 32]
                          for oy in range(2 * pad + 1) for ox in range(2 * pad + 1)]
            assert any(np.array_equal(result, c) for c in candidates)

    def test_deterministic_given_rng_state(self):
        rng = np.random.default_rng(2)
        images = rng.random((8, 3, 16, 16)).astype(np.float32)
        policy = AugmentPolicy(crop_pad=2, hflip_prob=0.5)
        a = augment_batch(images, policy, np.random.default_rng(42))
        b = augment_batch(images, policy, np.random.default_rng(42))
        assert np.array_equal(a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 16), st.integers(0, 4),
           st.floats(0.0, 1.0))
    def test_batch_range_preserved(self, seed, n, pad, flip_p):
        rng = np.random.default_rng(seed)
        images = rng.random((n, 3, 8, 8)).astype(np.float32)
        out = augment_batch(images, AugmentPolicy(crop_pad=pad, hflip_prob=flip_p), rng)
        assert out.shape == images.shape and out.dtype == images.dtype
        assert out.min() >= 0.0 and out.max() <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(0, 4),
           st.floats(0.0, 1.0))
    def test_range_and_label_preserved(self, seed, pad, flip_p):
        # one image, as the training loops see it: augmenting a batch's images
        # leaves the batch (and so the image-label pairing) untouched
        rng = np.random.default_rng(seed)
        images = rng.random((1, 3, 8, 8)).astype(np.float32)
        labels = np.array([3])
        before = images.copy()
        out = augment_batch(images, AugmentPolicy(crop_pad=pad, hflip_prob=flip_p), rng)
        assert labels.tolist() == [3]
        assert np.array_equal(images, before)
        assert out.shape == (1, 3, 8, 8)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            AugmentPolicy(hflip_prob=1.5)


class TestBatchIter:
    def test_partial_last_batch(self):
        ds = make_synthetic(2, 5, 8, seed=0)   # 10 images
        sizes = [len(idx) for idx in batch_iter(len(ds), 3)]
        assert sizes == [3, 3, 3, 1]

    def test_same_seed_same_order(self):
        ds = make_synthetic(2, 10, 8, seed=0)
        a = [ds.labels[idx].tolist() for idx in batch_iter(len(ds), 4, shuffle_seed=9)]
        b = [ds.labels[idx].tolist() for idx in batch_iter(len(ds), 4, shuffle_seed=9)]
        assert a == b

    def test_no_seed_preserves_order(self):
        ds = make_synthetic(2, 4, 8, seed=0)
        flat = np.concatenate([ds.labels[idx] for idx in batch_iter(len(ds), 3)])
        np.testing.assert_array_equal(flat, ds.labels)

    def test_empty_dataset_rejected(self):
        empty = make_synthetic(2, 0, 8, seed=0)
        with pytest.raises(DataError):
            next(batch_iter(len(empty), 2))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 13), st.one_of(st.none(), st.integers(0, 1000)))
    def test_epoch_covers_dataset_exactly_once(self, batch_size, seed):
        ds = make_synthetic(3, 4, 8, seed=1)   # 12 images
        seen_pixels = []
        seen_labels = []
        for idx in batch_iter(len(ds), batch_size, shuffle_seed=seed):
            seen_pixels.append(ds.images[idx])
            seen_labels.append(ds.labels[idx])
        images = np.concatenate(seen_pixels)
        labels = np.concatenate(seen_labels)
        assert len(images) == len(ds)
        # multiset equality via sorting on a stable per-image key
        key = images.reshape(len(images), -1).sum(axis=1) + 1000 * labels
        ref = ds.images.reshape(len(ds), -1).sum(axis=1) + 1000 * ds.labels
        np.testing.assert_allclose(np.sort(key), np.sort(ref), rtol=1e-6)
