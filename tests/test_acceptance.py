"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The end-to-end direction check (criteria 8 and 9) trains, per seed, an
adversarial-contrastive encoder plus linear probe and a cross-entropy
baseline of the same architecture on the synthetic 10-class dataset, then
measures PGD robust accuracy for both. Everything is seeded; criterion 9
re-runs seed 0 from scratch and demands bitwise-identical artifacts.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import advclr as A
from advclr import attacks, data, evaluation, losses, models, training
from advclr import tensor as T
from advclr.attacks import AttackConfig, AttackContext
from advclr.losses import ContrastiveBatch, ViewTriple
from advclr.tensor import NumericError, constant
from conftest import flatten_arrays, lift_from_vector

SEEDS = (0, 1, 2)
EVAL_ATTACK = AttackConfig("pgd", 0.03, num_steps=10, random_start=True)


def announce(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --- criteria 8/9 pipeline --------------------------------------------------


def run_pipeline(seed, tmpdir):
    train = data.make_synthetic(10, 500, 16, seed=seed, split="train")
    test = data.make_synthetic(10, 100, 16, seed=seed, split="test")
    spec = A.EncoderSpec("toy_conv", (8, 16, 32))
    aug = data.AugmentPolicy(crop_pad=2, hflip_prob=0.0)

    pgd_view, cw_view = training.default_view_attacks(0.04, num_steps=5)
    pre_cfg = training.PretrainConfig(epochs=16, batch_size=128, lr0=0.1,
                                      seed=seed, pgd_view=pgd_view,
                                      cw_view=cw_view, augment=aug)
    encoder, _ = training.act_pretrain(train, spec, pre_cfg)
    probe, _ = training.finetune(train, encoder, 10,
                                 training.FinetuneConfig(epochs=30, lr=0.01,
                                                         seed=seed))
    base_cfg = training.SupervisedConfig(epochs=16, batch_size=128, lr0=0.05,
                                         augment=aug, seed=seed)
    baseline, _ = training.supervised_train(train, spec, base_cfg)

    pre_path = os.path.join(tmpdir, f"pre-{seed}.ckpt")
    probe_path = os.path.join(tmpdir, f"probe-{seed}.ckpt")
    models.save_checkpoint(pre_path, encoder)
    models.save_checkpoint(probe_path, probe)

    report = evaluation.eval_table([("act", probe)], [EVAL_ATTACK], test,
                                   seed=seed)[0]
    return {
        "test": test,
        "encoder": encoder,
        "probe": probe,
        "act_clean": evaluation.clean_accuracy(probe, test),
        "act_robust": report.cells[0].robust_accuracy,
        "base_robust": evaluation.robust_accuracy(baseline, test, EVAL_ATTACK,
                                                  seed=seed),
        "pre_bytes": Path(pre_path).read_bytes(),
        "probe_bytes": Path(probe_path).read_bytes(),
        "report": report,
    }


@pytest.fixture(scope="module")
def direction_runs(tmp_path_factory):
    tmpdir = str(tmp_path_factory.mktemp("pipeline"))
    t0 = time.monotonic()
    runs = {seed: run_pipeline(seed, tmpdir) for seed in SEEDS}
    runs["seconds"] = time.monotonic() - t0
    runs["tmpdir"] = tmpdir
    return runs


# --- criterion 1: autodiff vs finite differences ----------------------------


def _kink_clearance(fn):
    """Smallest distance of any *live* activation to its kink.

    Central differences are only a valid oracle where the function is
    smooth, so probe points must keep activations clear of their kinks.
    Exact zeros are excluded: they come from dead subpaths (relu output
    zeros feeding convolutions), which stay exactly zero under the probe
    steps and therefore cannot flip a kink. Row norms entering the
    normalization are tracked separately: they bound its curvature rather
    than a kink distance and need far more headroom.
    """
    kinks = []
    norms = []
    orig_relu, orig_leaky = T.relu, T.leaky_relu
    orig_pool, orig_norm = T.max_pool2, T.l2_normalize

    def live_min(values):
        alive = values[values > 0]
        kinks.append(float(alive.min()) if alive.size else np.inf)

    def relu_spy(a):
        live_min(np.abs(a.data))
        return orig_relu(a)

    def leaky_spy(a, slope=0.1):
        live_min(np.abs(a.data))
        return orig_leaky(a, slope)

    def pool_spy(a):
        b, c, h, w = a.shape
        win = a.data.reshape(b, c, h // 2, 2, w // 2, 2)
        win = win.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h // 2, w // 2, 4)
        top2 = np.sort(win, axis=-1)[..., 2:]
        live_min(top2[..., 1] - top2[..., 0])
        return orig_pool(a)

    def norm_spy(a, eps=1e-12):
        norms.append(float(np.sqrt((a.data ** 2).sum(axis=1)).min()))
        return orig_norm(a, eps)

    T.relu, T.leaky_relu, T.max_pool2, T.l2_normalize = \
        relu_spy, leaky_spy, pool_spy, norm_spy
    try:
        fn()
    finally:
        T.relu, T.leaky_relu, T.max_pool2, T.l2_normalize = \
            orig_relu, orig_leaky, orig_pool, orig_norm
    return min(kinks), min(norms)


def test_criterion_1_autodiff_matches_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    specs = [A.EncoderSpec("toy_conv", (4, 4, 5)),
             A.EncoderSpec("toy_conv", (4, 5, 6)),
             A.EncoderSpec("resnet_small", (4, 4)),
             A.EncoderSpec("resnet_small", (4, 5), blocks_per_stage=1),
             A.EncoderSpec("toy_conv", (5, 4, 7))]
    worst = 0.0
    for i, spec in enumerate(specs):
        params = models.init_params(spec, 3, seed=i, proj_dim=6)
        # zero-init norm shifts pin dead conv outputs exactly onto the relu
        # kink; random nonzero shifts make the probe point generic
        for name in list(params.arrays):
            if name.endswith(".shift"):
                arr = params.arrays[name]
                signs = rng.choice((-1.0, 1.0), size=arr.shape)
                params.arrays[name] = (
                    arr + signs * rng.uniform(0.05, 0.2, arr.shape)
                ).astype(np.float32)
        labels = rng.integers(0, 3, size=2)
        ref = rng.normal(size=(2, 6))
        ref /= np.linalg.norm(ref, axis=1, keepdims=True)
        theta0 = flatten_arrays(params).astype(np.float64)

        def full_loss(theta, x):
            lifted = lift_from_vector(theta, params)
            emb = models.encode(params, constant(x), lifted=lifted)
            ce = losses.cross_entropy(models.classify(params, emb, lifted=lifted),
                                      labels)
            z = models.project(params, emb, lifted=lifted)
            head = T.mul(z, constant(ref)).sum()
            return T.add(ce, T.mul(head, 0.25))

        # keep drawing inputs until every live activation is safely off its
        # kink and the normalization is well conditioned (dead embeddings
        # get redrawn too)
        for attempt in range(200):
            x = rng.uniform(0.15, 0.85, size=(2, 3, 8, 8))
            try:
                kink, norm = _kink_clearance(lambda: full_loss(constant(theta0), x))
            except (ValueError, NumericError):
                continue
            if kink > 1e-3 and norm > 0.1:
                break
        else:
            raise AssertionError(f"no smooth probe point found for net {i}")
        worst = max(worst, T.grad_check(lambda t: full_loss(t, x), theta0))
    seconds = time.monotonic() - t0
    announce(1, worst <= 1e-4 and seconds < 120,
             f"max rel err {worst:.2e} over 5 networks in {seconds:.0f}s")


# --- criterion 2: ball and range invariants ---------------------------------


def test_criterion_2_ball_and_range_invariants():
    params = models.init_params(A.EncoderSpec("toy_conv", (4, 6, 8)), 4,
                                seed=0, proj_dim=8)
    rng = np.random.default_rng(7)
    checked = 0
    worst_delta = 0.0
    while checked < 1000:
        n = 40
        x = rng.uniform(0, 1, size=(n, 3, 8, 8)).astype(np.float32)
        eps = float(rng.choice([0.03, 0.06, 0.08]))
        kind = str(rng.choice(["fgsm", "pgd", "cw"]))
        cfg = AttackConfig(kind, eps, num_steps=int(rng.integers(1, 6)),
                           random_start=bool(rng.integers(0, 2)),
                           kappa=float(rng.choice([0.0, 0.5])))
        if rng.integers(0, 2):
            ctx = AttackContext(labels=rng.integers(0, 4, n), rng=rng)
        else:
            ref = models.project(params, models.encode(params, x)).data
            ctx = AttackContext(reference=ref, rng=rng)
        out = attacks.run_attack(params, x, cfg, ctx)
        delta = np.abs(out - x).max()
        worst_delta = max(worst_delta, float(delta - eps))
        ok = delta <= eps + 1e-6 and out.min() >= 0.0 and out.max() <= 1.0
        assert ok, f"violation for {kind} eps={eps}"
        checked += n
    announce(2, True, f"{checked} images, worst overflow {worst_delta:.1e} "
                      f"(allowance 1e-6)")


# --- criterion 3: FGSM/PGD collapse -----------------------------------------


def affine_region_model(rng):
    params = models.init_params(A.EncoderSpec("toy_conv", (4, 6, 8)), 4,
                                seed=int(rng.integers(1 << 30)), proj_dim=8)
    for name, arr in params.arrays.items():
        if ".conv" in name:
            params.arrays[name] = np.abs(arr) * 0.5
        elif name.endswith(".shift"):
            params.arrays[name] = np.full_like(arr, 1.0)
    return params


def test_criterion_3_fgsm_pgd_collapse():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        params = affine_region_model(rng)
        x = rng.uniform(0.05, 0.95, size=(2, 3, 8, 8)).astype(np.float32)
        ctx = AttackContext(labels=rng.integers(0, 4, 2))
        eps = float(rng.choice([0.01, 0.03, 0.06, 0.08]))
        a = attacks.fgsm(params, x, AttackConfig("fgsm", eps), ctx)
        b = attacks.pgd(params, x, AttackConfig("pgd", eps, step_size=eps,
                                                num_steps=1,
                                                random_start=False), ctx)
        worst = max(worst, float(np.abs(a - b).max()))
    announce(3, worst <= 1e-6, f"max elementwise gap {worst:.2e} over 100 cases")


# --- criterion 4: InfoNCE closed form ---------------------------------------


def test_criterion_4_info_nce_closed_form():
    worst = 0.0
    for n in (1, 7, 63):
        row = np.zeros(8)
        row[0] = 1.0
        batch = ContrastiveBatch(constant(row[None]), constant(row[None]),
                                 constant(np.tile(row, (n, 1))),
                                 np.zeros((1, n), dtype=bool), 0.1)
        worst = max(worst, abs(losses.info_nce(batch).item() - math.log(1 + n)))

    rng = np.random.default_rng(3)
    raw = rng.normal(size=(4, 8))
    pool_raw = rng.normal(size=(6, 8))

    def loss_of(c):
        z = c * raw / np.linalg.norm(c * raw, axis=1, keepdims=True)
        pool = c * pool_raw / np.linalg.norm(c * pool_raw, axis=1, keepdims=True)
        return losses.info_nce(ContrastiveBatch(
            constant(z), constant(z), constant(pool),
            np.zeros((4, 6), dtype=bool), 0.1)).item()

    rescale_gap = max(abs(loss_of(1.0) - loss_of(c)) for c in (5.0, 0.02, 311.0))
    announce(4, worst <= 1e-6 and rescale_gap <= 1e-6,
             f"closed-form gap {worst:.2e}, rescale gap {rescale_gap:.2e}")


# --- criterion 5: two-view loss vs brute force -------------------------------


def test_criterion_5_adv_contrastive_bruteforce():
    rng = np.random.default_rng(41)
    mats = [rng.normal(size=(2, 5)) for _ in range(3)]
    z_orig, z_pgd, z_cw = [m / np.linalg.norm(m, axis=1, keepdims=True)
                           for m in mats]
    value = losses.adv_contrastive(
        ViewTriple(constant(z_orig), constant(z_pgd), constant(z_cw)), 0.1).item()

    def nce(anchor, positive, negatives, tau=0.1):
        pos = float(anchor @ positive) / tau
        negs = [float(anchor @ n) / tau for n in negatives]
        denom = math.exp(pos) + sum(math.exp(s) for s in negs)
        return -math.log(math.exp(pos) / denom)

    total = 0.0
    for positives in (z_pgd, z_cw):
        for i in range(2):
            j = 1 - i
            total += nce(z_orig[i], positives[i], [z_orig[j], z_pgd[j], z_cw[j]])
    expected = 0.5 * total / 2
    gap = abs(value - expected)
    announce(5, gap <= 1e-6, f"brute-force gap {gap:.2e}")


# --- criterion 6: freeze contract -------------------------------------------


def test_criterion_6_frozen_encoder_bitwise(direction_runs):
    run = direction_runs[0]
    pre = models.load_checkpoint(
        os.path.join(direction_runs["tmpdir"], "pre-0.ckpt"))
    same = all(np.array_equal(run["probe"].arrays[k], pre.arrays[k])
               for k in pre.arrays if k.startswith(("encoder.", "proj.")))
    same &= all(np.array_equal(run["probe"].buffers[k], pre.buffers[k])
                for k in pre.buffers)
    announce(6, same, "encoder and projection weights bitwise unchanged "
                      "by fine-tuning")


# --- criterion 7: null attack -----------------------------------------------


def test_criterion_7_null_attack_identity(direction_runs):
    run = direction_runs[0]
    test = run["test"]
    subset = data.Dataset(test.images[:200], test.labels[:200],
                          test.class_names, split="test")
    clean = evaluation.clean_accuracy(run["probe"], subset)
    gaps = []
    for kind in ("fgsm", "pgd", "cw"):
        cfg = AttackConfig(kind, 0.0, num_steps=3, random_start=kind == "pgd")
        gaps.append(evaluation.robust_accuracy(run["probe"], subset, cfg) - clean)
    announce(7, all(g == 0.0 for g in gaps),
             f"robust(eps=0) - clean = {gaps} (exact zeros required)")


# --- criterion 8: end-to-end direction --------------------------------------


def test_criterion_8_robustness_direction(direction_runs):
    gaps = [direction_runs[s]["act_robust"] - direction_runs[s]["base_robust"]
            for s in SEEDS]
    mean_gap = float(np.mean(gaps))
    seconds = direction_runs["seconds"]
    detail = (f"robust-accuracy gaps {[f'{g:+.3f}' for g in gaps]}, "
              f"mean {mean_gap:+.3f} (need >= +0.100), "
              f"{seconds / 60:.1f} min (budget 30)")
    announce(8, mean_gap >= 0.10 and seconds < 1800, detail)


# --- criterion 9: bitwise reproducibility ------------------------------------


def test_criterion_9_bitwise_reproducibility(direction_runs, tmp_path):
    rerun = run_pipeline(0, str(tmp_path))
    first = direction_runs[0]
    ckpt_same = (rerun["pre_bytes"] == first["pre_bytes"]
                 and rerun["probe_bytes"] == first["probe_bytes"])
    a, b = first["report"].to_dict(), rerun["report"].to_dict()
    a.pop("timestamp"), b.pop("timestamp")
    announce(9, ckpt_same and a == b,
             "seed-0 checkpoints and report reproduce bit-for-bit "
             "(timestamp aside)")


# --- criterion 10: report round-trip -----------------------------------------


def test_criterion_10_report_round_trip(direction_runs):
    run = direction_runs[0]
    grid = [AttackConfig(kind, eps, num_steps=2)
            for kind in ("fgsm", "pgd", "cw") for eps in (0.03, 0.06)]
    subset = data.Dataset(run["test"].images[:100], run["test"].labels[:100],
                          run["test"].class_names, split="test")
    reports = evaluation.eval_table([("act", run["probe"])], grid, subset, seed=5)
    round_trip = all(evaluation.EvalReport.from_json(r.to_json()) == r
                     for r in reports)
    csv_rows = evaluation.reports_to_csv(reports).strip().splitlines()
    cells = sum(len(r.cells) for r in reports)
    announce(10, round_trip and len(csv_rows) - 1 == cells,
             f"round-trip ok, {len(csv_rows) - 1} csv rows == {cells} cells")
