"""Loss values against closed forms and pure-python brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advclr import losses, tensor as T
from advclr.tensor import constant


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def nce_bruteforce(anchor, positive, negatives, tau):
    """Independent oracle: plain python exp/log over explicit similarity lists."""
    pos = sum(a * p for a, p in zip(anchor, positive)) / tau
    negs = [sum(a * q for a, q in zip(anchor, neg)) / tau for neg in negatives]
    denom = math.exp(pos) + sum(math.exp(s) for s in negs)
    return -math.log(math.exp(pos) / denom)


def nce_terms_numpy(anchors, positives, pool, exclude, tau):
    """Per-anchor reference in plain numpy: excluded pool entries get MASK_VALUE."""
    sims = anchors @ pool.T / tau
    pos = np.einsum("ij,ij->i", anchors, positives) / tau
    neg = np.where(exclude, losses.MASK_VALUE, sims)
    logits = np.concatenate([pos[:, None], neg], axis=1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    return -(shifted[:, 0] - np.log(np.exp(shifted).sum(axis=1)))


def equal_similarity_args(n_negatives, tau=0.1, batch=3, dim=8):
    """``info_nce`` arguments whose every similarity is 1."""
    row = np.zeros(dim)
    row[0] = 1.0
    anchors = np.tile(row, (batch, 1))
    pool = np.tile(row, (n_negatives, 1))
    exclude = np.zeros((batch, n_negatives), dtype=bool)
    return constant(anchors), constant(anchors), constant(pool), exclude, tau


class TestInfoNCE:
    @pytest.mark.parametrize("n", [1, 7, 63])
    def test_equal_similarities_closed_form(self, n):
        loss = losses.info_nce(*equal_similarity_args(n))
        assert loss.item() == pytest.approx(math.log(1 + n), abs=1e-6)

    def test_perfect_separation_near_zero(self):
        # pos sim 1, all neg sims -1, tau 0.1 -> ln(1 + N e^-20)
        n, dim = 5, 4
        row = np.zeros(dim)
        row[0] = 1.0
        pool = np.tile(-row, (n, 1))
        loss = losses.info_nce(constant(row[None]), constant(row[None]),
                               constant(pool), np.zeros((1, n), dtype=bool), 0.1)
        expected = math.log(1 + n * math.exp(-20.0))
        assert loss.item() == pytest.approx(expected, abs=1e-9)

    def test_matches_bruteforce_on_random_batch(self):
        rng = np.random.default_rng(3)
        anchors = unit_rows(rng, 4, 6)
        positives = unit_rows(rng, 4, 6)
        pool = unit_rows(rng, 5, 6)
        exclude = rng.random((4, 5)) < 0.3
        value = losses.info_nce(constant(anchors), constant(positives),
                                constant(pool), exclude, 0.25).item()
        expected = np.mean([
            nce_bruteforce(anchors[i], positives[i],
                           [pool[j] for j in range(5) if not exclude[i, j]], 0.25)
            for i in range(4)])
        # masked entries contribute exp(-1e9/..) ~ 0, not exactly 0
        assert value == pytest.approx(expected, abs=1e-9)

    def test_terms_match_numpy_reference(self):
        rng = np.random.default_rng(14)
        anchors, positives = unit_rows(rng, 6, 8), unit_rows(rng, 6, 8)
        pool = unit_rows(rng, 10, 8)
        exclude = rng.random((6, 10)) < 0.3
        args = (*(constant(a, dtype=np.float32) for a in (anchors, positives, pool)),
                exclude, 0.1)
        terms = losses.info_nce_terms(*args)
        assert terms.shape == (6,) and terms.dtype == np.float32
        expected = nce_terms_numpy(anchors, positives, pool, exclude, 0.1)
        np.testing.assert_allclose(terms.data, expected, rtol=1e-5, atol=1e-5)
        assert losses.info_nce(*args).data.tobytes() == terms.mean().data.tobytes()

    def test_rescaling_embeddings_is_invariant(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(3, 8))
        pool_raw = rng.normal(size=(4, 8))

        def loss_of(scale):
            z = raw * scale / np.linalg.norm(raw * scale, axis=1, keepdims=True)
            pool = pool_raw * scale / np.linalg.norm(pool_raw * scale, axis=1,
                                                     keepdims=True)
            return losses.info_nce(constant(z), constant(z), constant(pool),
                                   np.zeros((3, 4), dtype=bool), 0.1).item()

        assert abs(loss_of(1.0) - loss_of(5.0)) <= 1e-6
        assert abs(loss_of(1.0) - loss_of(0.037)) <= 1e-6

    def test_positive_for_finite_inputs(self):
        rng = np.random.default_rng(5)
        loss = losses.info_nce(constant(unit_rows(rng, 3, 4)),
                               constant(unit_rows(rng, 3, 4)),
                               constant(unit_rows(rng, 6, 4)),
                               np.zeros((3, 6), dtype=bool), 0.1)
        assert loss.item() > 0.0

    def test_non_positive_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            losses.info_nce(*equal_similarity_args(2, tau=0.0))

    def test_non_unit_rows_rejected(self):
        bad = (constant(np.full((1, 4), 2.0)),
               constant(unit_rows(np.random.default_rng(0), 1, 4)),
               constant(unit_rows(np.random.default_rng(1), 2, 4)),
               np.zeros((1, 2), dtype=bool), 0.1)
        with pytest.raises(ValueError, match="unit-norm"):
            losses.info_nce(*bad)

    def test_exclude_of_wrong_shape_rejected(self):
        rng = np.random.default_rng(2)
        anchors, pool = unit_rows(rng, 3, 4), unit_rows(rng, 5, 4)
        for exclude in (np.zeros((3, 4), dtype=bool), np.zeros((5, 3), dtype=bool),
                        np.zeros(15, dtype=bool)):
            with pytest.raises(T.ShapeError, match="exclude mask"):
                losses.info_nce_terms(anchors, anchors, pool, exclude)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-0.95, 0.9), st.floats(0.001, 0.049))
    def test_loss_strictly_decreases_in_positive_similarity(self, s, delta):
        # anchor fixed, positive rotated toward it; negatives held fixed
        rng = np.random.default_rng(11)
        negatives = unit_rows(rng, 4, 2)

        def loss_at(sim):
            anchor = np.array([[1.0, 0.0]])
            positive = np.array([[sim, math.sqrt(1 - sim ** 2)]])
            return losses.info_nce(constant(anchor), constant(positive),
                                   constant(negatives),
                                   np.zeros((1, 4), dtype=bool), 0.1).item()

        assert loss_at(s + delta) < loss_at(s)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        raw = rng.normal(size=(3, 5))
        pool = unit_rows(rng, 4, 5)
        exclude = np.zeros((3, 4), dtype=bool)

        def fn(t):
            z = T.l2_normalize(t)
            return losses.info_nce(z, constant(pool[:3]), constant(pool),
                                   exclude, 0.2)

        assert T.grad_check(fn, raw) <= 1e-4


def brute_adv_contrastive(z_orig, z_pgd, z_cw, tau):
    """Oracle for the two-term average, negatives = other images' views."""
    b = len(z_orig)
    total = 0.0
    for pos_view in (z_pgd, z_cw):
        for i in range(b):
            negatives = []
            for j in range(b):
                if j != i:
                    negatives += [z_orig[j], z_pgd[j], z_cw[j]]
            total += nce_bruteforce(z_orig[i], pos_view[i], negatives, tau)
    return 0.5 * total / b


class TestAdvContrastive:
    def test_duplicate_views_collapse_to_single_term(self):
        rng = np.random.default_rng(7)
        z_orig = unit_rows(rng, 3, 6)
        z_view = unit_rows(rng, 3, 6)
        both = losses.adv_contrastive(
            constant(z_orig), constant(z_view), constant(z_view), 0.1)
        pool = np.concatenate([z_orig, z_view, z_view])
        exclude = np.zeros((3, 9), dtype=bool)
        for k in range(3):
            exclude[np.arange(3), 3 * k + np.arange(3)] = True
        single = losses.info_nce(
            constant(z_orig), constant(z_view), constant(pool), exclude, 0.1)
        assert both.item() == pytest.approx(single.item(), abs=1e-9)

    def test_b2_matches_bruteforce(self):
        rng = np.random.default_rng(9)
        z_orig, z_pgd, z_cw = (unit_rows(rng, 2, 5) for _ in range(3))
        value = losses.adv_contrastive(
            constant(z_orig), constant(z_pgd), constant(z_cw), 0.1)
        expected = brute_adv_contrastive(z_orig, z_pgd, z_cw, 0.1)
        assert value.item() == pytest.approx(expected, abs=1e-9)

    def test_batch_permutation_invariant(self):
        rng = np.random.default_rng(10)
        z_orig, z_pgd, z_cw = (unit_rows(rng, 4, 6) for _ in range(3))
        perm = np.array([2, 0, 3, 1])
        base = losses.adv_contrastive(
            constant(z_orig), constant(z_pgd), constant(z_cw), 0.1)
        permuted = losses.adv_contrastive(
            constant(z_orig[perm]), constant(z_pgd[perm]), constant(z_cw[perm]), 0.1)
        assert abs(base.item() - permuted.item()) <= 1e-6

    def test_symmetric_in_view_order(self):
        rng = np.random.default_rng(12)
        z_orig, z_pgd, z_cw = (unit_rows(rng, 4, 6) for _ in range(3))
        a = losses.adv_contrastive(
            constant(z_orig), constant(z_pgd), constant(z_cw), 0.1)
        b = losses.adv_contrastive(
            constant(z_orig), constant(z_cw), constant(z_pgd), 0.1)
        assert abs(a.item() - b.item()) <= 1e-6

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        raw = rng.normal(size=(2, 4))
        z_pgd = unit_rows(rng, 2, 4)
        z_cw = unit_rows(rng, 2, 4)

        def fn(t):
            return losses.adv_contrastive(T.l2_normalize(t), constant(z_pgd),
                                          constant(z_cw), 0.15)

        assert T.grad_check(fn, raw) <= 1e-4

    def test_views_of_different_shapes_rejected(self):
        rng = np.random.default_rng(16)
        z = unit_rows(rng, 3, 4)
        for z_pgd, z_cw in ((unit_rows(rng, 2, 4), z), (z, unit_rows(rng, 3, 5)),
                            (z, unit_rows(rng, 4, 4))):
            with pytest.raises(T.ShapeError, match="view shapes differ"):
                losses.adv_contrastive(z, z_pgd, z_cw)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((4, 10))
        labels = np.arange(4) % 10
        loss = losses.cross_entropy(constant(logits), labels)
        assert loss.item() == pytest.approx(math.log(10.0), abs=1e-7)

    def test_large_margin_goes_to_zero(self):
        logits = np.full((2, 5), -30.0)
        logits[np.arange(2), [1, 3]] = 30.0
        loss = losses.cross_entropy(constant(logits), np.array([1, 3]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            losses.cross_entropy(constant(np.zeros((2, 3))), np.array([0, 3]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(4, 10))
        labels = rng.integers(0, 10, size=4)
        err = T.grad_check(lambda t: losses.cross_entropy(t, labels), logits)
        assert err <= 1e-5

    def test_terms_match_numpy_reference(self):
        rng = np.random.default_rng(15)
        logits = rng.normal(scale=3.0, size=(7, 5))
        labels = rng.integers(0, 5, size=7)
        terms = T.softmax_cross_entropy(constant(logits, dtype=np.float32), labels)
        assert terms.shape == (7,) and terms.dtype == np.float32
        shifted = logits - logits.max(axis=1, keepdims=True)
        expected = np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(7), labels]
        np.testing.assert_allclose(terms.data, expected, rtol=1e-5, atol=1e-5)
        mean = losses.cross_entropy(constant(logits, dtype=np.float32), labels)
        assert mean.data.tobytes() == terms.mean().data.tobytes()
