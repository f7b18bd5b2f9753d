"""Attack contracts: objectives, ball/range invariants, best-so-far, collapse."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import advclr as A
from advclr import attacks, evaluation, models
from advclr import tensor as T
from advclr.attacks import AttackConfig, AttackContext
from conftest import reference_global_avg_pool, reference_max_pool2

SPEC = A.EncoderSpec("toy_conv", (4, 6, 8))


def small_model(seed=0, num_classes=4):
    return models.init_params(SPEC, num_classes, seed=seed, proj_dim=8)


def affine_region_model(rng, num_classes=4):
    """Weights rigged so every relu stays active on [0, 1] inputs.

    Non-negative kernels keep conv outputs non-negative and a large norm
    shift keeps pre-activations positive, so the network is affine on the
    whole pixel cube and cross-entropy is convex in the input.
    """
    params = small_model(seed=int(rng.integers(1 << 30)))
    for name, arr in params.arrays.items():
        if ".conv" in name:
            params.arrays[name] = np.abs(arr) * 0.5
        elif name.endswith(".shift"):
            params.arrays[name] = np.full_like(arr, 1.0)
    return params


def images(rng, n=4, size=8):
    return rng.uniform(0.1, 0.9, size=(n, 3, size, size)).astype(np.float32)


def source_rows(xq, x):
    """Index of the clean row each row of xq lies nearest to (L-inf)."""
    flat = x.reshape(len(x), -1)
    return np.array([np.abs(flat - row).max(axis=1).argmin()
                     for row in xq.reshape(len(xq), -1)], dtype=int)


class TestObjectives:
    def test_supervised_ce_small_when_confident(self):
        params = small_model()
        params.arrays["classifier.w"] = np.zeros_like(params.arrays["classifier.w"])
        params.arrays["classifier.b"] = np.array([12, 0, 0, 0], dtype=np.float32)
        x = images(np.random.default_rng(0), 2)
        value = attacks.attack_objective(params, x, "supervised_ce",
                                         AttackContext(labels=np.array([0, 0])))
        assert 0.0 < value < 1e-4

    def test_supervised_margin_hand_case(self):
        # logits [5, 1, 1], true label 0, kappa 0 -> max(1 - 5, 0) = 0 per row
        params = small_model(num_classes=3)
        params.arrays["classifier.w"] = np.zeros_like(params.arrays["classifier.w"])
        params.arrays["classifier.b"] = np.array([5, 1, 1], dtype=np.float32)
        x = images(np.random.default_rng(1), 2)
        value = attacks.attack_objective(params, x, "supervised_margin",
                                         AttackContext(labels=np.array([0, 0])))
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_embedding_repel_at_reference(self):
        params = small_model()
        x = images(np.random.default_rng(2), 3)
        ref = models.project(params, models.encode(params, x)).data
        value = attacks.attack_objective(params, x, "embedding_repel",
                                         AttackContext(reference=ref))
        assert value == pytest.approx(-1.0, abs=1e-5)

    def test_missing_context_rejected(self):
        params = small_model()
        x = images(np.random.default_rng(3), 2)
        with pytest.raises(ValueError, match="labels"):
            attacks.attack_objective(params, x, "supervised_ce", AttackContext())
        with pytest.raises(ValueError, match="reference"):
            attacks.attack_objective(params, x, "contrastive", AttackContext())


class TestProjectLinf:
    def test_inside_ball_unchanged(self):
        rng = np.random.default_rng(0)
        x = images(rng, 2)
        x_adv = np.clip(x + rng.uniform(-0.01, 0.01, x.shape).astype(np.float32),
                        0, 1)
        np.testing.assert_array_equal(attacks.project_linf(x_adv, x, 0.05), x_adv)

    def test_saturation(self):
        x = np.full((1, 3, 2, 2), 0.5, dtype=np.float32)
        out = attacks.project_linf(x + 10.0, x, 0.1)
        np.testing.assert_allclose(out, 0.6)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = images(rng, 2)
        noisy = x + rng.normal(0, 0.2, x.shape).astype(np.float32)
        once = attacks.project_linf(noisy, x, 0.03)
        twice = attacks.project_linf(once, x, 0.03)
        np.testing.assert_array_equal(once, twice)


class TestFgsm:
    def test_schedule_is_one_step_of_epsilon(self):
        cfg = AttackConfig("fgsm", 0.03, step_size=0.01, num_steps=5, random_start=True)
        assert (cfg.step, cfg.num_steps, cfg.random_start) == (0.03, 1, False)
        assert replace(AttackConfig("fgsm", 0.0), epsilon=0.05).step == 0.05

    def test_kept_row_returns_the_better_of_clean_and_stepped(self, monkeypatch):
        params = small_model()
        rng = np.random.default_rng(18)
        x = images(rng, 8)
        labels = models.logits_for(params, x).argmax(axis=1)   # all clean-correct
        visited = [[] for _ in x]        # (objective, point, misclassified) per row
        real = attacks._eval_objective

        def spy(model, xq, *args, **kwargs):
            per, grad, wrong = real(model, xq, *args, **kwargs)
            for row, point, value, w in zip(source_rows(xq, x), xq, per, wrong):
                visited[row].append((value, point.copy(), w))
            return per, grad, wrong

        monkeypatch.setattr(attacks, "_eval_objective", spy)
        out = attacks.fgsm(params, x, AttackConfig("fgsm", 0.05), AttackContext(labels=labels))
        kept = 0
        for row, (clean, stepped) in enumerate(visited):
            if stepped[2]:
                np.testing.assert_array_equal(out[row], stepped[1])
            else:
                kept += 1
                better = stepped if stepped[0] >= clean[0] else clean
                np.testing.assert_array_equal(out[row], better[1])
        assert kept

    def test_zero_epsilon_is_identity(self):
        params = small_model()
        rng = np.random.default_rng(4)
        x = images(rng, 3)
        ctx = AttackContext(labels=rng.integers(0, 4, 3))
        out = attacks.fgsm(params, x, AttackConfig("fgsm", 0.0), ctx)
        np.testing.assert_array_equal(out, x)

    def test_ball_and_range(self):
        params = small_model()
        rng = np.random.default_rng(5)
        x = images(rng, 4)
        ctx = AttackContext(labels=rng.integers(0, 4, 4))
        out = attacks.fgsm(params, x, AttackConfig("fgsm", 0.03), ctx)
        assert np.abs(out - x).max() <= 0.03 + 1e-7
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_objective_increases_on_affine_region_model(self):
        # exact for a model that is affine on the pixel cube: convexity makes
        # the sign step a guaranteed ascent direction
        rng = np.random.default_rng(6)
        for _ in range(5):
            params = affine_region_model(rng)
            x = images(rng, 3)
            labels = rng.integers(0, 4, 3)
            ctx = AttackContext(labels=labels)
            out = attacks.fgsm(params, x, AttackConfig("fgsm", 0.05), ctx)
            before = attacks.attack_objective(params, x, "supervised_ce", ctx)
            after = attacks.attack_objective(params, out, "supervised_ce", ctx)
            assert after >= before - 1e-7


class TestPgd:
    def test_single_step_equals_fgsm(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            params = affine_region_model(rng)
            x = images(rng, 2)
            ctx = AttackContext(labels=rng.integers(0, 4, 2))
            eps = float(rng.choice([0.01, 0.03, 0.06]))
            a = attacks.fgsm(params, x, AttackConfig("fgsm", eps), ctx)
            b = attacks.pgd(params, x,
                            AttackConfig("pgd", eps, step_size=eps, num_steps=1,
                                         random_start=False), ctx)
            assert np.abs(a - b).max() <= 1e-6

    def test_best_iterate_wins_including_start(self, monkeypatch):
        # a row the model never misclassifies returns its best visited
        # iterate (the clean start included); a row it misclassifies at some
        # visited point returns a misclassified point inside the ball
        params = small_model()
        rng = np.random.default_rng(8)
        x = images(rng, 8)
        labels = models.logits_for(params, x).argmax(axis=1)
        labels[:2] = (labels[:2] + 1) % 4          # two rows clean-misclassified
        ctx = AttackContext(labels=labels)
        seen = [[] for _ in x]                      # objectives per batch row
        ever_wrong = np.zeros(len(x), dtype=bool)
        real = attacks._eval_objective

        def spy(model, xq, *args, **kwargs):
            per, grad, wrong = real(model, xq, *args, **kwargs)
            rows = source_rows(xq, x)
            for row, value in zip(rows, per):
                seen[row].append(value)
            ever_wrong[rows[wrong]] = True
            return per, grad, wrong

        monkeypatch.setattr(attacks, "_eval_objective", spy)
        cfg = AttackConfig("pgd", 0.05, num_steps=5, random_start=False)
        out = attacks.pgd(params, x, cfg, ctx)
        returned, _, wrong = real(params, out, "supervised_ce", ctx, 0.0, False)
        assert ever_wrong[:2].all()
        assert ever_wrong.any() and not ever_wrong.all()
        for row in np.flatnonzero(~ever_wrong):
            assert len(seen[row]) == cfg.num_steps + 1
            assert returned[row] >= max(seen[row]) - 1e-6
        assert np.array_equal(wrong, ever_wrong)
        assert np.abs(out - x).max() <= cfg.epsilon + 1e-6
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_every_iterate_inside_ball(self, monkeypatch):
        params = small_model()
        rng = np.random.default_rng(9)
        x = images(rng, 4)
        labels = rng.integers(0, 4, 4)
        ctx = AttackContext(labels=labels, rng=np.random.default_rng(0))
        real_eval, real_project = attacks._eval_objective, attacks.project_linf
        projected = []      # (projection, the clean rows it was made around)
        evaluated = []

        def project_spy(x_adv, x_ref, epsilon):
            out = real_project(x_adv, x_ref, epsilon)
            projected.append((out, x_ref))
            return out

        def eval_spy(model, xq, mode, sub_ctx, *args, **kwargs):
            # each evaluated batch is the clean batch or the latest projection;
            # the active rows' batch stays aligned with their labels
            out, ref = projected[-1] if projected else (x, x)
            np.testing.assert_array_equal(xq, out)
            rows = source_rows(ref, x)
            np.testing.assert_array_equal(ref, x[rows])
            np.testing.assert_array_equal(sub_ctx.labels, labels[rows])
            assert np.abs(xq - ref).max() <= 0.03 + 1e-6
            assert xq.min() >= 0.0 and xq.max() <= 1.0
            evaluated.append(len(xq))
            return real_eval(model, xq, mode, sub_ctx, *args, **kwargs)

        monkeypatch.setattr(attacks, "project_linf", project_spy)
        monkeypatch.setattr(attacks, "_eval_objective", eval_spy)
        cfg = AttackConfig("pgd", 0.03, step_size=0.0075, num_steps=10,
                           random_start=True)
        out = attacks.pgd(params, x, cfg, ctx)
        assert evaluated and projected
        assert np.abs(out - x).max() <= 0.03 + 1e-6

    def test_random_start_visits_the_clean_input_first(self, monkeypatch):
        params = small_model()
        x = images(np.random.default_rng(17), 4)
        labels = models.logits_for(params, x).argmax(axis=1)
        labels[0] = (labels[0] + 1) % 4           # row 0 is clean-misclassified
        rng = np.random.default_rng(3)
        real = attacks._eval_objective
        calls = []

        def spy(model, xq, *args, want_grad):
            calls.append((len(xq), want_grad))
            return real(model, xq, *args, want_grad=want_grad)

        monkeypatch.setattr(attacks, "_eval_objective", spy)
        cfg = AttackConfig("pgd", 0.03, num_steps=3, random_start=True)
        out = attacks.pgd(params, x, cfg, AttackContext(labels=labels, rng=rng))
        np.testing.assert_array_equal(out[0], x[0])
        assert calls[:2] == [(4, False), (3, True)]
        # the noise is drawn for the whole batch, whichever rows left
        ref = np.random.default_rng(3)
        ref.uniform(size=x.shape)
        assert rng.random() == ref.random()

    def test_deterministic_without_random_start(self):
        params = small_model()
        rng = np.random.default_rng(10)
        x = images(rng, 3)
        ctx = AttackContext(labels=rng.integers(0, 4, 3))
        cfg = AttackConfig("pgd", 0.03, num_steps=4, random_start=False)
        a = attacks.pgd(params, x, cfg, ctx)
        b = attacks.pgd(params, x, cfg, ctx)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["pgd", "cw"])
    def test_random_start_needs_a_generator(self, kind):
        # an unseeded start would differ from run to run
        params = small_model()
        x = images(np.random.default_rng(12), 2)
        ctx = AttackContext(labels=np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="context.rng"):
            attacks.run_attack(params, x, AttackConfig(kind, 0.03, num_steps=2,
                                                       random_start=True), ctx)
        # at epsilon 0 there is no start to draw
        attacks.run_attack(params, x, AttackConfig(kind, 0.0, num_steps=2,
                                                   random_start=True), ctx)

    def test_params_never_modified(self):
        params = small_model()
        before = {k: v.copy() for k, v in params.arrays.items()}
        rng = np.random.default_rng(11)
        x = images(rng, 2)
        ctx = AttackContext(labels=rng.integers(0, 4, 2),
                            rng=np.random.default_rng(1))
        attacks.pgd(params, x, AttackConfig("pgd", 0.06, num_steps=3,
                                            random_start=True), ctx)
        for k, v in params.arrays.items():
            assert np.array_equal(v, before[k]), k


class TestCw:
    def test_zero_epsilon_is_identity(self):
        params = small_model()
        rng = np.random.default_rng(12)
        x = images(rng, 2)
        ctx = AttackContext(labels=rng.integers(0, 4, 2))
        out = attacks.cw(params, x, AttackConfig("cw", 0.0, num_steps=3), ctx)
        np.testing.assert_array_equal(out, x)

    def test_ball_and_range(self):
        params = small_model()
        rng = np.random.default_rng(13)
        x = images(rng, 4)
        ctx = AttackContext(labels=rng.integers(0, 4, 4))
        out = attacks.cw(params, x, AttackConfig("cw", 0.06, num_steps=5), ctx)
        assert np.abs(out - x).max() <= 0.06 + 1e-6
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_embedding_margin_mode_for_pretraining(self):
        params = small_model()
        rng = np.random.default_rng(14)
        x = images(rng, 4)
        ref = models.project(params, models.encode(params, x)).data
        ctx = AttackContext(reference=ref, rng=np.random.default_rng(2))
        out = attacks.cw(params, x, AttackConfig("cw", 0.03, num_steps=3,
                                                 random_start=True), ctx)
        assert np.abs(out - x).max() <= 0.03 + 1e-6

    def test_cw_hurts_at_least_as_much_as_fgsm_usually(self, toy_baseline, toy_data):
        # empirical oracle: iterative margin attacks dominate one-step attacks
        _, test = toy_data
        wins = 0
        seeds = (0, 1, 2)
        for seed in seeds:
            acc_fgsm = evaluation.robust_accuracy(
                toy_baseline, test, AttackConfig("fgsm", 0.03), seed=seed)
            acc_cw = evaluation.robust_accuracy(
                toy_baseline, test, AttackConfig("cw", 0.03, num_steps=10),
                seed=seed)
            wins += acc_cw <= acc_fgsm
        assert wins * 2 >= len(seeds)


def test_row_leaves_at_its_first_misclassified_point(monkeypatch):
    # a scripted objective that rises at every evaluation and reports row 1
    # misclassified at the second evaluation only
    params = small_model()
    x = images(np.random.default_rng(16), 3)
    ctx = AttackContext(labels=np.zeros(3, dtype=int))
    real = attacks._eval_objective
    evaluated = []

    def scripted(model, xq, *args, **kwargs):
        _, grad, _ = real(model, xq, *args, **kwargs)
        evaluated.append(xq.copy())
        wrong = np.zeros(len(xq), dtype=bool)
        wrong[1] = len(evaluated) == 2
        return np.full(len(xq), float(len(evaluated))), grad, wrong

    monkeypatch.setattr(attacks, "_eval_objective", scripted)
    out = attacks.pgd(params, x, AttackConfig("pgd", 0.03, num_steps=4), ctx)
    assert [len(batch) for batch in evaluated] == [3, 3, 2, 2, 2]
    np.testing.assert_array_equal(out[1], evaluated[1][1])
    np.testing.assert_array_equal(out[[0, 2]], evaluated[-1])


@pytest.mark.parametrize("kind", attacks.ATTACK_KINDS)
def test_correct_after_attack_only_if_correct_at_every_visited_point(
        kind, toy_baseline, toy_data, monkeypatch):
    # sound robust accuracy: the model classifies the returned point
    # correctly exactly when it classifies the clean input and every
    # evaluated iterate correctly
    _, test = toy_data
    x, labels = test.images[:200], test.labels[:200]
    ever_wrong = np.zeros(len(x), dtype=bool)
    real = attacks._eval_objective

    def spy(model, xq, *args, **kwargs):
        per, grad, wrong = real(model, xq, *args, **kwargs)
        ever_wrong[source_rows(xq, x)[wrong]] = True
        return per, grad, wrong

    monkeypatch.setattr(attacks, "_eval_objective", spy)
    cfg = AttackConfig(kind, 0.01, num_steps=5, random_start=kind == "pgd")
    ctx = AttackContext(labels=labels, rng=np.random.default_rng(6))
    x_adv = attacks.run_attack(toy_baseline, x, cfg, ctx)
    clean_ok = models.logits_for(toy_baseline, x).argmax(axis=1) == labels
    adv_ok = models.logits_for(toy_baseline, x_adv).argmax(axis=1) == labels
    assert adv_ok.any() and not adv_ok.all()
    assert not np.any(adv_ok & ~clean_ok)
    np.testing.assert_array_equal(adv_ok, clean_ok & ~ever_wrong)
    # the engine's own verdict is the same fact, with no forward of its own
    np.testing.assert_array_equal(ctx.fooled, ~adv_ok)
    # and it belongs to the returned point, not to the batch it was scored
    # in: a batch-of-one forward misclassifies every fooled row
    kept_alone = [int(i) for i in np.flatnonzero(ctx.fooled)
                  if models.logits_for(toy_baseline, x_adv[i:i + 1]).argmax() == labels[i]]
    assert kept_alone == []


@pytest.mark.parametrize("supervised", [True, False], ids=["labels", "reference"])
@pytest.mark.parametrize("kind", attacks.ATTACK_KINDS)
def test_one_engine_reads_the_objective_table(kind, supervised):
    params = small_model()
    rng = np.random.default_rng(15)
    x = images(rng, 3)
    if supervised:
        ctx = AttackContext(labels=rng.integers(0, 4, 3))
    else:
        ctx = AttackContext(reference=models.project(params, models.encode(params, x)).data)
    cfg = AttackConfig(kind, 0.03, num_steps=2)
    assert attacks.objective_for(cfg, supervised) == \
        attacks.DEFAULT_OBJECTIVES[kind][0 if supervised else 1]
    explicit = AttackConfig(kind, 0.03, objective="embedding_repel")
    assert attacks.objective_for(explicit, supervised) == "embedding_repel"
    # every kind-named entry point runs cfg.kind, whichever name is called
    expected = attacks.run_attack(params, x, cfg, ctx)
    for name in attacks.ATTACK_KINDS:
        np.testing.assert_array_equal(getattr(attacks, name)(params, x, cfg, ctx), expected)


@pytest.mark.parametrize("kind, random_start",
                         [("fgsm", False), ("pgd", False), ("pgd", True), ("cw", False)])
def test_read_only_inputs_and_a_shared_clean_evaluation(kind, random_start, monkeypatch):
    # the engine writes none of its inputs, and a caller's clean evaluation
    # stands in for its own evaluation of x with the same outputs
    params = small_model()
    x = images(np.random.default_rng(19), 6)
    labels = models.logits_for(params, x).argmax(axis=1)
    labels[0] = (labels[0] + 1) % 4           # row 0 is clean-misclassified
    cfg = AttackConfig(kind, 0.05, num_steps=3, random_start=random_start)
    ref = AttackContext(labels=labels.copy(), rng=np.random.default_rng(2))
    expected = attacks.run_attack(params, x.copy(), cfg, ref)
    assert ref.fooled[0] and not ref.fooled.all()
    clean = attacks._eval_objective(params, x, attacks.objective_for(cfg, True),
                                    AttackContext(labels=labels), cfg.kappa,
                                    want_grad=cfg.steps_from_clean)
    for arr in (x, labels, *clean):
        if arr is not None:
            arr.flags.writeable = False
    real, evaluations = attacks._eval_objective, []

    def spy(*args, **kwargs):
        evaluations[-1] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(attacks, "_eval_objective", spy)
    for shared in (None, clean):
        evaluations.append(0)
        ctx = AttackContext(labels=labels, rng=np.random.default_rng(2), clean=shared)
        np.testing.assert_array_equal(attacks.run_attack(params, x, cfg, ctx), expected)
        np.testing.assert_array_equal(ctx.fooled, ref.fooled)
    # the shared evaluation replaces exactly the engine's one evaluation of x
    assert evaluations[1] == evaluations[0] - 1


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["fgsm", "pgd", "cw"]),
       st.sampled_from([0.03, 0.06, 0.08]),
       st.integers(1, 5), st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_ball_and_range_invariants_hold(kind, eps, steps, random_start, seed):
    params = small_model()
    rng = np.random.default_rng(seed)
    x = images(rng, 3)
    ctx = AttackContext(labels=rng.integers(0, 4, 3),
                        rng=np.random.default_rng(seed))
    cfg = AttackConfig(kind, eps, num_steps=steps, random_start=random_start)
    out = attacks.run_attack(params, x, cfg, ctx)
    assert np.abs(out - x).max() <= eps + 1e-6
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert out.dtype == np.float32


PARITY_SPECS = [A.EncoderSpec("toy_conv", (8, 16, 32)),
                A.EncoderSpec("resnet_small", (8, 16), blocks_per_stage=2)]


@pytest.mark.parametrize("batch", [7, 64])
@pytest.mark.parametrize("mode", attacks.OBJECTIVES)
@pytest.mark.parametrize("spec", PARITY_SPECS, ids=[s.kind for s in PARITY_SPECS])
def test_eval_objective_equals_c_order_pooling_bitwise(monkeypatch, spec, mode, batch):
    # batch-last pooling moves no eval-mode bit: every elementwise op gives
    # the same values in any memory order, and no eval-mode pull sums rows
    rng = np.random.default_rng(batch)
    params = models.init_params(spec, 10, seed=11)
    x = rng.uniform(0, 1, (batch, 3, 16, 16)).astype(np.float32)
    noisy = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1).astype(np.float32)
    ctx = AttackContext(labels=rng.integers(0, 10, batch),
                        reference=models.project(params, models.encode(params, noisy)).data)
    results = []
    for pools in ((T.max_pool2, T.global_avg_pool),
                  (reference_max_pool2, reference_global_avg_pool)):
        monkeypatch.setattr(T, "max_pool2", pools[0])
        monkeypatch.setattr(T, "global_avg_pool", pools[1])
        per, grad, _ = attacks._eval_objective(params, x, mode, ctx, 0.0, want_grad=True)
        results.append((per.tobytes(), np.ascontiguousarray(grad).tobytes()))
    assert results[0] == results[1]
