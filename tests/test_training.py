"""Optimizers, schedules, and the three training loops."""

import numpy as np
import pytest

import advclr as A
from advclr import data, models, training
from advclr.tensor import ShapeError
from advclr.training import (EpochRecord, FinetuneConfig, PretrainConfig,
                             SupervisedConfig, TrainLog, adam_step, cosine_lr,
                             sgd_momentum_step)

SPEC = A.EncoderSpec("toy_conv", (4, 6, 8))


def tiny_params():
    return models.init_params(SPEC, 4, seed=0, proj_dim=8)


class TestCosine:
    def test_endpoints_and_middle(self):
        assert cosine_lr(0, 100, 0.4) == pytest.approx(0.4)
        assert cosine_lr(100, 100, 0.4) == pytest.approx(0.0, abs=1e-12)
        assert cosine_lr(50, 100, 0.4) == pytest.approx(0.2)

    def test_non_increasing(self):
        values = [cosine_lr(s, 50, 0.4) for s in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 0, 0.4)


class TestSgdMomentum:
    def test_plain_gradient_descent(self):
        params = tiny_params()
        params.arrays["classifier.b"] = np.zeros(4, dtype=np.float32)
        grads = {"classifier.b": np.array([1, 0, 0, 0], dtype=np.float32)}
        sgd_momentum_step(params, grads, {}, lr=0.1, momentum=0.0)
        np.testing.assert_allclose(params.arrays["classifier.b"],
                                   [-0.1, 0, 0, 0], atol=1e-7)

    def test_momentum_recurrence_two_steps(self):
        # v1 = 1, p1 = -1; v2 = 0.9 + 1 = 1.9, p2 = -2.9
        params = tiny_params()
        params.arrays["classifier.b"] = np.zeros(4, dtype=np.float32)
        grads = {"classifier.b": np.ones(4, dtype=np.float32)}
        state = {}
        sgd_momentum_step(params, grads, state, lr=1.0, momentum=0.9)
        sgd_momentum_step(params, grads, state, lr=1.0, momentum=0.9)
        np.testing.assert_allclose(params.arrays["classifier.b"], -2.9, atol=1e-6)

    def test_zero_gradient_zero_velocity_is_fixed_point(self):
        params = tiny_params()
        before = params.arrays["classifier.w"].copy()
        grads = {"classifier.w": np.zeros_like(before)}
        sgd_momentum_step(params, grads, {}, lr=0.5, momentum=0.9)
        np.testing.assert_array_equal(params.arrays["classifier.w"], before)

    def test_shape_mismatch_rejected(self):
        params = tiny_params()
        with pytest.raises(ShapeError):
            sgd_momentum_step(params, {"classifier.b": np.zeros(3, np.float32)},
                              {}, lr=0.1, momentum=0.9)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        # bias correction makes the first update ~ lr * sign(g)
        for scale in (1e-3, 1.0, 100.0):
            params = tiny_params()
            before = params.arrays["classifier.b"].copy()
            grads = {"classifier.b": np.full(4, scale, dtype=np.float32)}
            adam_step(params, grads, {}, lr=0.01)
            delta = params.arrays["classifier.b"] - before
            np.testing.assert_allclose(np.abs(delta), 0.01, rtol=1e-3)

    def test_zero_gradient_is_fixed_point(self):
        params = tiny_params()
        before = params.arrays["classifier.w"].copy()
        state = {}
        for _ in range(5):
            adam_step(params, {"classifier.w": np.zeros_like(before)}, state,
                      lr=0.1)
        np.testing.assert_array_equal(params.arrays["classifier.w"], before)


def small_dataset(n_per_class=8, seed=0):
    return data.make_synthetic(4, n_per_class, 8, seed=seed)


def fast_pretrain_cfg(epochs, seed=0):
    pgd_view, cw_view = training.default_view_attacks(0.03, num_steps=2)
    return PretrainConfig(epochs=epochs, batch_size=16, lr0=0.05, seed=seed,
                          pgd_view=pgd_view, cw_view=cw_view,
                          augment=data.AugmentPolicy(crop_pad=1))


@pytest.mark.parametrize("config", [PretrainConfig, FinetuneConfig, SupervisedConfig])
def test_zero_batch_size_rejected(config):
    required = {} if config is FinetuneConfig else {"lr0": 0.1}
    with pytest.raises(ValueError, match="batch_size"):
        config(epochs=1, batch_size=0, **required)


class TestActPretrain:
    def test_rejects_zero_epochs(self):
        with pytest.raises(ValueError):
            fast_pretrain_cfg(epochs=0)

    def test_deterministic_checkpoints(self):
        ds = small_dataset()
        a, loga = training.act_pretrain(ds, SPEC, fast_pretrain_cfg(2), proj_dim=8)
        b, logb = training.act_pretrain(ds, SPEC, fast_pretrain_cfg(2), proj_dim=8)
        for k in a.arrays:
            assert np.array_equal(a.arrays[k], b.arrays[k]), k
        for k in a.buffers:
            assert np.array_equal(a.buffers[k], b.buffers[k]), k
        assert [r.loss for r in loga.records] == [r.loss for r in logb.records]

    def test_loss_trend_improves(self):
        ds = data.make_synthetic(4, 16, 8, seed=1)
        params, log = training.act_pretrain(ds, SPEC, fast_pretrain_cfg(5, seed=1),
                                            proj_dim=8)
        assert log.records[4].loss < log.records[0].loss

    def test_view_counts_logged(self):
        ds = small_dataset()
        _, log = training.act_pretrain(ds, SPEC, fast_pretrain_cfg(1), proj_dim=8)
        assert log.records[0].pgd_views == len(ds)
        assert log.records[0].cw_views == len(ds)

    def test_empty_dataset_rejected(self):
        empty = data.make_synthetic(4, 0, 8, seed=0)
        with pytest.raises(data.DataError):
            training.act_pretrain(empty, SPEC, fast_pretrain_cfg(1))

    def test_classifier_left_at_init(self):
        # the loop trains only encoder.* and proj.*; the classifier is unused
        params, _ = training.act_pretrain(small_dataset(), SPEC, fast_pretrain_cfg(2),
                                          proj_dim=8)
        init = tiny_params()
        for k in ("classifier.w", "classifier.b"):
            assert np.array_equal(params.arrays[k], init.arrays[k]), k
        assert not np.array_equal(params.arrays["proj.fc1.w"], init.arrays["proj.fc1.w"])

    def test_checkpoint_files_written(self, tmp_path):
        ds = small_dataset()
        cfg = fast_pretrain_cfg(2)
        cfg.checkpoint_every = 1
        training.act_pretrain(ds, SPEC, cfg, out_dir=str(tmp_path), proj_dim=8)
        assert (tmp_path / "pretrain-final.ckpt").exists()
        assert (tmp_path / "pretrain-epoch1.ckpt").exists()


class TestFinetune:
    def test_encoder_bitwise_frozen(self, toy_data, toy_act):
        train, _ = toy_data
        encoder, _ = toy_act
        probe, _ = training.finetune(train, encoder, train.num_classes,
                                     FinetuneConfig(epochs=2, seed=0))
        for k in encoder.arrays:
            if k.startswith(("encoder.", "proj.")):
                assert np.array_equal(probe.arrays[k], encoder.arrays[k]), k
        for k in encoder.buffers:
            assert np.array_equal(probe.buffers[k], encoder.buffers[k]), k

    def test_probe_reaches_clean_accuracy(self, toy_data, toy_act):
        from advclr import evaluation
        _, test = toy_data
        _, probe = toy_act
        assert evaluation.clean_accuracy(probe, test) >= 0.8

    def test_pretrained_features_beat_random_features(self, toy_data, toy_act):
        from advclr import evaluation
        train, test = toy_data
        encoder, _ = toy_act
        cfg = FinetuneConfig(epochs=25, lr=0.01, seed=0)
        pre_probe, _ = training.finetune(train, encoder, train.num_classes, cfg)
        random_encoder = models.init_params(encoder.spec, train.num_classes,
                                            seed=0, proj_dim=encoder.proj_dim)
        rand_probe, _ = training.finetune(train, random_encoder,
                                          train.num_classes, cfg)
        assert (evaluation.clean_accuracy(pre_probe, test)
                > evaluation.clean_accuracy(rand_probe, test))

    def test_class_count_mismatch_rejected(self, toy_data, toy_act):
        train, _ = toy_data
        encoder, _ = toy_act
        with pytest.raises(ValueError):
            training.finetune(train, encoder, 3, FinetuneConfig(epochs=1))

    def test_empty_dataset_rejected(self):
        empty = data.make_synthetic(4, 0, 8, seed=0)
        with pytest.raises(data.DataError):
            training.finetune(empty, tiny_params(), 4, FinetuneConfig(epochs=1))

    def test_accepts_checkpoint_path(self, tmp_path, toy_data, toy_act):
        train, _ = toy_data
        encoder, _ = toy_act
        path = str(tmp_path / "enc.ckpt")
        models.save_checkpoint(path, encoder)
        probe, _ = training.finetune(train, path, train.num_classes,
                                     FinetuneConfig(epochs=1, seed=0))
        assert probe.arrays["classifier.w"].shape == (32, 10)


class TestSupervised:
    def test_loss_decreases(self):
        ds = data.make_synthetic(4, 24, 8, seed=2)
        cfg = SupervisedConfig(epochs=4, batch_size=32, lr0=0.05, seed=0,
                               augment=data.AugmentPolicy(enabled=False))
        _, log = training.supervised_train(ds, SPEC, cfg, proj_dim=8)
        assert log.records[-1].loss < log.records[0].loss

    def test_deterministic(self):
        ds = data.make_synthetic(4, 8, 8, seed=3)
        cfg = SupervisedConfig(epochs=2, batch_size=16, lr0=0.05, seed=5)
        a, _ = training.supervised_train(ds, SPEC, cfg, proj_dim=8)
        b, _ = training.supervised_train(ds, SPEC, cfg, proj_dim=8)
        for k in a.arrays:
            assert np.array_equal(a.arrays[k], b.arrays[k]), k

    def test_projection_left_at_init(self):
        # the loop trains only encoder.* and classifier.*; the head is unused
        ds = data.make_synthetic(4, 8, 8, seed=3)
        cfg = SupervisedConfig(epochs=2, batch_size=16, lr0=0.05, seed=0)
        params, _ = training.supervised_train(ds, SPEC, cfg, proj_dim=8)
        init = tiny_params()
        for k in ("proj.fc1.w", "proj.fc2.w"):
            assert np.array_equal(params.arrays[k], init.arrays[k]), k
        assert not np.array_equal(params.arrays["classifier.w"],
                                  init.arrays["classifier.w"])


class TestTrainLog:
    def test_jsonl_round_trip(self):
        log = TrainLog([EpochRecord(0, 1.5, 0.1, 2.0, 64, 64),
                        EpochRecord(1, 1.1, 0.05, 2.1, 64, 64)])
        again = TrainLog.from_jsonl(log.to_jsonl())
        assert again == log
