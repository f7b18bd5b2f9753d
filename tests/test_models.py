"""Encoder/head contracts and the checkpoint container."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from advclr import models, tensor as T
from advclr.data import DataError
from advclr.models import EncoderSpec
from advclr.tensor import NumericError


def rand_images(rng, n, size=8):
    return rng.uniform(0.05, 0.95, size=(n, 3, size, size)).astype(np.float32)


class TestInit:
    def test_deterministic_per_seed(self):
        spec = EncoderSpec("toy_conv", (4, 8, 12))
        a = models.init_params(spec, 5, seed=3)
        b = models.init_params(spec, 5, seed=3)
        assert a.arrays.keys() == b.arrays.keys()
        for k in a.arrays:
            assert np.array_equal(a.arrays[k], b.arrays[k]), k

    def test_seeds_differ(self):
        spec = EncoderSpec("toy_conv", (4, 8, 12))
        a = models.init_params(spec, 5, seed=1)
        b = models.init_params(spec, 5, seed=2)
        assert any(not np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays)

    def test_toy_conv_output_shape(self):
        spec = EncoderSpec("toy_conv", (16, 32, 64))
        params = models.init_params(spec, 10, seed=0)
        rng = np.random.default_rng(0)
        emb = models.encode(params, rand_images(rng, 3, size=8))
        assert emb.data.shape == (3, 64)

    def test_resnet_small_output_shape(self):
        spec = EncoderSpec("resnet_small", (8, 16), blocks_per_stage=2)
        params = models.init_params(spec, 10, seed=0)
        rng = np.random.default_rng(0)
        emb = models.encode(params, rand_images(rng, 2, size=16))
        assert emb.data.shape == (2, 16)

    def test_classifier_param_count(self):
        spec = EncoderSpec("toy_conv", (4, 8, 12))
        params = models.init_params(spec, 7, seed=0)
        n = params.arrays["classifier.w"].size + params.arrays["classifier.b"].size
        assert n == 12 * 7 + 7

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            EncoderSpec("mystery_net", (4, 8))
        with pytest.raises(ValueError):
            EncoderSpec("toy_conv", ())


class TestEncode:
    @pytest.mark.parametrize("spec", [EncoderSpec("toy_conv", (4, 6, 8)),
                                      EncoderSpec("resnet_small", (4, 6),
                                                  blocks_per_stage=1)],
                             ids=lambda s: s.kind)
    def test_eval_mode_is_per_sample(self, spec):
        # same image alone vs inside a batch: identical embedding row and
        # input-gradient row (batch is the conv GEMM's inner dimension)
        params = models.init_params(spec, 4, seed=1)
        rng = np.random.default_rng(1)
        batch = rand_images(rng, 4)

        def embed_and_grad(images):
            tape = T.Tape()
            x = tape.leaf(images, requires_grad=True)
            emb = models.encode(params, x)
            return emb.data, tape.backward(T.mul(emb, emb).sum())[x.handle]

        single, single_grad = embed_and_grad(batch[:1])
        grouped, grouped_grad = embed_and_grad(batch)
        # blas kernels may differ per batch size; values agree to rounding
        np.testing.assert_allclose(single[0], grouped[0], rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(single_grad[0], grouped_grad[0], rtol=1e-5, atol=1e-6)

    def test_zero_image_finite(self):
        spec = EncoderSpec("toy_conv", (4, 6, 8))
        params = models.init_params(spec, 4, seed=1)
        emb = models.encode(params, np.zeros((1, 3, 8, 8), dtype=np.float32))
        assert np.all(np.isfinite(emb.data))

    def test_input_gradient_matches_finite_differences(self):
        spec = EncoderSpec("toy_conv", (3, 4, 5))
        params = models.init_params(spec, 4, seed=2)
        rng = np.random.default_rng(2)
        x0 = rng.uniform(0.2, 0.8, size=(2, 3, 8, 8))
        err = T.grad_check(lambda t: models.encode(params, t).sum(), x0)
        assert err <= 1e-4

    def test_shape_mismatch_rejected(self):
        spec = EncoderSpec("toy_conv", (4, 6, 8))
        params = models.init_params(spec, 4, seed=1)
        with pytest.raises(T.ShapeError):
            models.encode(params, np.zeros((2, 1, 8, 8), dtype=np.float32))


class _Spy(dict):
    """A dict that records the keys read from it and the keys written to it."""

    def __init__(self, items):
        super().__init__(items)
        self.read, self.written = [], []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self.written.append(key)
        super().__setitem__(key, value)


@pytest.mark.parametrize("spec", [
    EncoderSpec("toy_conv", (8, 16, 32)), EncoderSpec("toy_conv", (4, 6, 8)),
    *(EncoderSpec("resnet_small", widths, blocks_per_stage=blocks)
      for widths in ((4,), (4, 6), (4, 6, 8)) for blocks in (1, 2)),
], ids=lambda s: f"{s.kind}-{'-'.join(map(str, s.widths))}-x{s.blocks_per_stage}")
def test_layout_names_what_the_forward_pass_reads(spec):
    # init_params and checkpoint validation read _layout; the forward pass
    # must read exactly its weights, in its order, and update exactly its buffers
    params = models.init_params(spec, 3, seed=0, proj_dim=5)
    weights, buffers = models._layout(spec, 3, 5)
    lifted = _Spy({name: T.constant(arr) for name, arr in params.arrays.items()})
    params.buffers = _Spy(params.buffers)
    images = rand_images(np.random.default_rng(0), 4)
    emb = models.encode(params, images, train=True, lifted=lifted)
    models.project(params, emb, lifted=lifted)
    models.classify(params, emb, lifted=lifted)
    assert lifted.read == list(weights)
    assert params.buffers.written == list(buffers)


class TestProject:
    @pytest.fixture()
    def params(self):
        return models.init_params(EncoderSpec("toy_conv", (4, 6, 8)), 4, seed=3,
                                  proj_dim=16)

    def test_unit_rows(self, params):
        rng = np.random.default_rng(3)
        z = models.project(params, rng.normal(size=(5, 8)).astype(np.float32))
        np.testing.assert_allclose(np.linalg.norm(z.data, axis=1), 1.0, atol=1e-6)

    def test_scale_invariance(self, params):
        rng = np.random.default_rng(4)
        emb = rng.normal(size=(3, 8)).astype(np.float32)
        a = models.project(params, emb).data
        b = models.project(params, emb * 5.0).data
        np.testing.assert_allclose(b, a, atol=1e-5)

    def test_identical_rows_map_identically(self, params):
        emb = np.tile(np.linspace(-1, 1, 8, dtype=np.float32), (2, 1))
        z = models.project(params, emb).data
        np.testing.assert_array_equal(z[0], z[1])

    def test_zero_embedding_rejected(self, params):
        with pytest.raises(NumericError, match="zero"):
            models.project(params, np.zeros((1, 8), dtype=np.float32))


class TestClassify:
    def test_zero_weights_zero_logits(self):
        params = models.init_params(EncoderSpec("toy_conv", (4, 6, 8)), 5, seed=0)
        params.arrays["classifier.w"] = np.zeros_like(params.arrays["classifier.w"])
        params.arrays["classifier.b"] = np.zeros_like(params.arrays["classifier.b"])
        out = models.classify(params, np.ones((3, 8), dtype=np.float32))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_linearity(self):
        params = models.init_params(EncoderSpec("toy_conv", (4, 6, 8)), 5, seed=1)
        rng = np.random.default_rng(5)
        emb = rng.normal(size=(2, 8)).astype(np.float32)
        bias = params.arrays["classifier.b"]
        l1 = models.classify(params, emb).data - bias
        l2 = models.classify(params, 2 * emb).data - bias
        np.testing.assert_allclose(l2, 2 * l1, rtol=1e-5, atol=1e-6)

    def test_random_params_argmax_roughly_uniform(self):
        # Monte-Carlo oracle: symmetric init => uniform argmax distribution;
        # a wide embedding keeps the per-draw geometry close to symmetric
        params = models.init_params(EncoderSpec("toy_conv", (4, 6, 64)), 10, seed=2)
        rng = np.random.default_rng(6)
        emb = rng.normal(size=(1000, 64)).astype(np.float32)
        preds = models.classify(params, emb).data.argmax(axis=1)
        freq = np.bincount(preds, minlength=10) / 1000.0
        assert np.all(np.abs(freq - 0.1) <= 0.1)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        spec = EncoderSpec("resnet_small", (4, 6), blocks_per_stage=1)
        params = models.init_params(spec, 3, seed=7, proj_dim=12)
        path = str(tmp_path / "model.ckpt")
        models.save_checkpoint(path, params, meta={"note": "test"})
        loaded = models.load_checkpoint(path)
        assert loaded.spec == params.spec
        assert loaded.num_classes == 3 and loaded.proj_dim == 12
        for k in params.arrays:
            assert np.array_equal(loaded.arrays[k], params.arrays[k]), k
        for k in params.buffers:
            assert np.array_equal(loaded.buffers[k], params.buffers[k]), k

    def test_layout_is_little_endian_and_documented(self, tmp_path):
        # parse the container with nothing but the documented layout
        spec = EncoderSpec("toy_conv", (3, 4, 5))
        params = models.init_params(spec, 2, seed=0, proj_dim=4)
        path = str(tmp_path / "model.ckpt")
        models.save_checkpoint(path, params)
        blob = Path(path).read_bytes()
        assert blob[:8] == b"ADVCLRC1"
        header_len = int(np.frombuffer(blob[8:12], dtype="<u4")[0])
        header = json.loads(blob[12:12 + header_len].decode("utf-8"))
        assert header["format_version"] == 2
        offset = 12 + header_len
        first = header["arrays"][0]
        count = int(np.prod(first["shape"]))
        raw = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        source = params.arrays if first["kind"] == "param" else params.buffers
        np.testing.assert_array_equal(raw.reshape(first["shape"]),
                                      source[first["name"]])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(DataError, match="not a checkpoint"):
            models.load_checkpoint(str(path))

    def test_truncated_at_every_boundary_is_data_error(self, tmp_path):
        params = models.init_params(EncoderSpec("toy_conv", (3, 4, 5)), 2, seed=0,
                                    proj_dim=4)
        path = tmp_path / "model.ckpt"
        models.save_checkpoint(str(path), params)
        blob = path.read_bytes()
        header_end = 12 + int(np.frombuffer(blob[8:12], dtype="<u4")[0])
        header = json.loads(blob[12:header_end].decode("utf-8"))
        cuts = [0, 4, 8, 10, 12, (12 + header_end) // 2, header_end]
        offset = header_end
        for entry in header["arrays"]:
            offset += 4 * int(np.prod(entry["shape"]))
            cuts += [offset - 2, offset]
        assert cuts.pop() == len(blob)
        cut = path.with_name("cut.ckpt")
        for end in cuts:
            cut.write_bytes(blob[:end])
            with pytest.raises(DataError):
                models.load_checkpoint(str(cut))
        cut.write_bytes(blob + b"\x00")
        with pytest.raises(DataError):
            models.load_checkpoint(str(cut))

    @pytest.mark.parametrize("edit", [
        (b'"format_version": 2', b'"format_version": 9'),
        (b'"format_version": 2', b'"format_version": 1'),
        (b'"format_version": 2', b'"format_version"= 2'),
        (b'"arrays": [', b'"arrayz": ['),
        (b'"num_classes": 2', b'"num_classes": 9'),
        (b'"num_classes": 2', b'"num_classes": 2.0'),
        (b'"proj_dim": 1', b'"proj_dim": true'),
        (b'"widths": [3, 4, 5]', b'"widths": [3, 4.5, 5]'),
    ], ids=["unknown-version", "previous-version", "bad-json", "missing-key",
            "head-size-unlike-arrays", "float-head-size", "bool-head-size",
            "float-width"])
    def test_bad_header_is_data_error(self, tmp_path, edit):
        # proj_dim 1, so a header's `true` matches the arrays' shapes
        path = tmp_path / "model.ckpt"
        models.save_checkpoint(str(path), models.init_params(
            EncoderSpec("toy_conv", (3, 4, 5)), 2, seed=0, proj_dim=1))
        blob = path.read_bytes()
        end = 12 + int.from_bytes(blob[8:12], "little")
        assert edit[0] in blob[12:end]
        header = blob[12:end].replace(*edit)     # a well-formed file around it
        path.write_bytes(blob[:8] + len(header).to_bytes(4, "little") + header + blob[end:])
        with pytest.raises(DataError):
            models.load_checkpoint(str(path))

    def test_failed_save_leaves_the_old_file(self, tmp_path):
        params = models.init_params(EncoderSpec("toy_conv", (3, 4, 5)), 2, seed=0)
        path = tmp_path / "model.ckpt"
        models.save_checkpoint(str(path), params)
        old = path.read_bytes()
        params.arrays["proj.fc2.w"] = np.array(["not a number"])   # fails mid-write
        with pytest.raises(ValueError):
            models.save_checkpoint(str(path), params)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_save_is_deterministic(self, tmp_path):
        params = models.init_params(EncoderSpec("toy_conv", (3, 4, 5)), 2, seed=1)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        models.save_checkpoint(p1, params)
        models.save_checkpoint(p2, params)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
