"""Accuracy measurement, the report container, and its projections."""

import math
import sys
import threading

import numpy as np
import pytest

import advclr as A
from advclr import attacks, data, evaluation, models, tensor as T
from advclr.attacks import AttackConfig, AttackContext
from advclr.data import DataError
from advclr.evaluation import EvalReport
from advclr.tensor import NumericError
from conftest import cell_threads, force_cpus


def rigged_constant_model(label, num_classes=10):
    """Classifier forced to one fixed answer via a one-hot bias."""
    params = models.init_params(A.EncoderSpec("toy_conv", (4, 6, 8)),
                                num_classes, seed=0, proj_dim=8)
    params.arrays["classifier.w"] = np.zeros_like(params.arrays["classifier.w"])
    bias = np.zeros(num_classes, dtype=np.float32)
    bias[label] = 10.0
    params.arrays["classifier.b"] = bias
    return params


def single_class_dataset(label=3, n=40):
    base = data.make_synthetic(10, n, 8, seed=0, split="test")
    return data.Dataset(base.images[:n], np.full(n, label, dtype=np.int64),
                        base.class_names, split="test")


class TestCleanAccuracy:
    def test_oracle_stub_is_perfect(self):
        ds = single_class_dataset(label=3)
        assert evaluation.clean_accuracy(rigged_constant_model(3), ds) == 1.0

    def test_random_model_is_chance_level(self):
        params = models.init_params(A.EncoderSpec("toy_conv", (4, 6, 32)),
                                    10, seed=11, proj_dim=8)
        ds = data.make_synthetic(10, 100, 8, seed=5, split="test")  # 1000 samples
        acc = evaluation.clean_accuracy(params, ds)
        assert abs(acc - 0.10) <= 0.03

    def test_empty_dataset_rejected(self):
        empty = data.make_synthetic(10, 0, 8, seed=0)
        with pytest.raises(DataError):
            evaluation.clean_accuracy(rigged_constant_model(0), empty)

    def test_class_count_mismatch_rejected(self):
        ds = data.make_synthetic(4, 5, 8, seed=0)
        with pytest.raises(DataError, match="classes"):
            evaluation.clean_accuracy(rigged_constant_model(0, num_classes=10), ds)

    def test_gradient_free_and_independent_of_batch_size(self, toy_baseline, toy_data,
                                                         monkeypatch):
        # the sweep with no cells: the same count at every batch size, the
        # count eval_table reports, and no backward pass
        _, test = toy_data
        report = evaluation.eval_table([("m", toy_baseline)], [AttackConfig("fgsm", 0.01)],
                                       test, batch_size=97)[0]
        backward_calls = []
        real_backward = T.Tape.backward

        def backward_spy(tape, loss):
            backward_calls.append(loss)
            return real_backward(tape, loss)

        monkeypatch.setattr(T.Tape, "backward", backward_spy)
        accs = [evaluation.clean_accuracy(toy_baseline, test, batch_size=size)
                for size in (1, 97, 256, len(test))]
        assert 0.0 < accs[0] < 1.0 and accs == [report.clean_accuracy] * 4
        assert backward_calls == []


class TestRobustAccuracy:
    def test_zero_epsilon_equals_clean_exactly(self, toy_baseline, toy_data):
        _, test = toy_data
        clean = evaluation.clean_accuracy(toy_baseline, test)
        for kind in ("fgsm", "pgd", "cw"):
            cfg = AttackConfig(kind, 0.0, num_steps=2, random_start=kind == "pgd")
            assert evaluation.robust_accuracy(toy_baseline, test, cfg) == clean

    def test_attack_never_helps_without_random_start(self, toy_baseline, toy_data):
        # the clean input counts as visited, so accuracy cannot rise
        _, test = toy_data
        clean = evaluation.clean_accuracy(toy_baseline, test)
        cfg = AttackConfig("pgd", 0.03, num_steps=3, random_start=False)
        assert evaluation.robust_accuracy(toy_baseline, test, cfg) <= clean

    def test_attack_never_helps_with_random_start(self, toy_baseline, toy_data):
        # the clean input counts as visited before the random start
        _, test = toy_data
        clean = evaluation.clean_accuracy(toy_baseline, test)
        cfg = AttackConfig("pgd", 0.03, num_steps=3, random_start=True)
        assert evaluation.robust_accuracy(toy_baseline, test, cfg, seed=5) <= clean

    @pytest.mark.parametrize("kind", ["fgsm", "pgd", "cw"])
    def test_independent_of_eval_batch_size(self, toy_baseline, toy_data, kind):
        _, test = toy_data
        cfg = AttackConfig(kind, 0.01, num_steps=10, random_start=kind == "pgd")
        accs = [evaluation.robust_accuracy(toy_baseline, test, cfg, seed=4,
                                           batch_size=size)
                for size in (256, 97, len(test))]
        assert 0.0 < accs[0] and accs == [accs[0]] * 3

    def test_monotone_in_epsilon(self, toy_baseline, toy_data):
        _, test = toy_data
        accs = []
        for eps in (0.03, 0.06):
            cfg = AttackConfig("pgd", eps, num_steps=5, random_start=True)
            accs.append(evaluation.robust_accuracy(toy_baseline, test, cfg, seed=7))
        assert accs[1] <= accs[0] + 0.02

    @pytest.mark.parametrize("kind", ["fgsm", "pgd", "cw"])
    def test_counts_the_attack_verdict_without_predicting(self, toy_baseline,
                                                          toy_data, monkeypatch, kind):
        # the cell equals "correct on the returned point", yet reads the
        # attack's own verdict: it makes no forward after the attack
        _, test = toy_data
        cfg = AttackConfig(kind, 0.03, num_steps=3, random_start=kind == "pgd")
        rng, correct = np.random.default_rng(2), 0
        for start in range(0, len(test), 256):
            x, y = test.images[start:start + 256], test.labels[start:start + 256]
            x_adv = attacks.run_attack(toy_baseline, x, cfg,
                                       AttackContext(labels=y, rng=rng))
            correct += int((models.logits_for(toy_baseline, x_adv).argmax(axis=1) == y).sum())

        def no_forward(*args, **kwargs):
            raise AssertionError("robust_accuracy ran a forward after the attack")

        monkeypatch.setattr(models, "logits_for", no_forward)
        assert evaluation.robust_accuracy(toy_baseline, test, cfg, seed=2) == \
            correct / len(test)

    @pytest.mark.parametrize("cfg,clean_grad", [
        (AttackConfig("pgd", 0.03, num_steps=2, random_start=True), False),
        (AttackConfig("pgd", 0.03, num_steps=2), True), (AttackConfig("fgsm", 0.03), True)])
    def test_clean_gradient_only_when_the_attack_steps_from_it(self, toy_baseline, toy_data,
                                                               monkeypatch, cfg, clean_grad):
        # a random start reads only the clean verdicts, so its shared clean
        # evaluation runs no backward pass
        _, test = toy_data
        real_eval, wants = attacks._eval_objective, []

        def eval_spy(*args, want_grad):
            wants.append(want_grad)
            return real_eval(*args, want_grad=want_grad)

        monkeypatch.setattr(attacks, "_eval_objective", eval_spy)
        evaluation.robust_accuracy(toy_baseline, test, cfg, batch_size=len(test))
        assert wants[0] == clean_grad

    def test_unsupervised_objective_rejected(self, toy_baseline, toy_data):
        _, test = toy_data
        cfg = AttackConfig("pgd", 0.03, objective="contrastive")
        with pytest.raises(ValueError, match="supervised"):
            evaluation.robust_accuracy(toy_baseline, test, cfg)


class TestEvalTable:
    def attacks_3x2(self):
        out = []
        for kind in ("fgsm", "pgd", "cw"):
            for eps in (0.0, 0.03):
                out.append(AttackConfig(kind, eps, num_steps=2))
        return out

    def test_cell_counting(self, toy_baseline, toy_data):
        _, test = toy_data
        reports = evaluation.eval_table([("m", toy_baseline)], self.attacks_3x2(),
                                        test, seed=0)
        assert len(reports) == 1
        assert len(reports[0].cells) == 6
        assert all(c.sample_count == len(test) for c in reports[0].cells)
        assert 0.0 <= reports[0].clean_accuracy <= 1.0

    def test_json_round_trip_value_identical(self, toy_baseline, toy_data):
        _, test = toy_data
        rep = evaluation.eval_table([("m", toy_baseline)],
                                    [AttackConfig("fgsm", 0.03)], test, seed=1)[0]
        again = EvalReport.from_json(rep.to_json())
        assert again == rep

    def test_rerun_reproduces_modulo_timestamp(self, toy_baseline, toy_data):
        _, test = toy_data
        kwargs = dict(model_list=[("m", toy_baseline)],
                      attack_list=[AttackConfig("pgd", 0.03, num_steps=3,
                                                random_start=True)],
                      dataset=test, seed=9)
        a = evaluation.eval_table(**kwargs)[0].to_dict()
        b = evaluation.eval_table(**kwargs)[0].to_dict()
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b

    def test_csv_rows_equal_cell_count(self, toy_baseline, toy_data):
        _, test = toy_data
        reports = evaluation.eval_table([("m", toy_baseline)], self.attacks_3x2(),
                                        test, seed=0)
        csv_text = evaluation.reports_to_csv(reports)
        lines = [ln for ln in csv_text.strip().splitlines() if ln]
        assert lines[0] == "model,attack,epsilon,accuracy"
        assert len(lines) - 1 == sum(len(r.cells) for r in reports)

    def test_trained_beats_untrained_on_every_cell(self, toy_data, toy_act,
                                                   random_model):
        _, test = toy_data
        _, probe = toy_act
        attack_list = [AttackConfig("fgsm", 0.03),
                       AttackConfig("pgd", 0.03, num_steps=5, random_start=True),
                       AttackConfig("cw", 0.03, num_steps=5)]
        reports = evaluation.eval_table([("act", probe),
                                         ("untrained", random_model)],
                                        attack_list, test, seed=3)
        act, untrained = reports
        for a_cell, u_cell in zip(act.cells, untrained.cells):
            assert a_cell.robust_accuracy >= u_cell.robust_accuracy

    def test_empty_inputs_rejected(self, toy_baseline, toy_data):
        _, test = toy_data
        with pytest.raises(ValueError):
            evaluation.eval_table([], [AttackConfig("fgsm", 0.03)], test)
        with pytest.raises(ValueError):
            evaluation.eval_table([("m", toy_baseline)], [], test)

    def test_sweep_equals_each_cell_run_alone(self, toy_baseline, toy_data):
        # the batch-major sweep shares one clean evaluation per batch and key
        # among its cells; each number it reports is bitwise the one its cell
        # gives run alone. The first cell's fooled rows must not reach the
        # second random-start cell as clean-misclassified.
        _, test = toy_data
        grid = [AttackConfig("pgd", 0.08, num_steps=3, random_start=True),
                AttackConfig("pgd", 0.01, num_steps=3, random_start=True),
                AttackConfig("pgd", 0.01, num_steps=3),
                AttackConfig("fgsm", 0.01), AttackConfig("fgsm", 0.03),
                AttackConfig("cw", 0.03, num_steps=3),
                AttackConfig("cw", 0.03, num_steps=3, kappa=0.5),
                AttackConfig("pgd", 0.0, num_steps=2, random_start=True)]
        seed, batch = 4, 97
        assert len(test) > 3 * batch
        report = evaluation.eval_table([("m", toy_baseline)], grid, test, seed=seed,
                                       batch_size=batch)[0]
        clean = evaluation.clean_accuracy(toy_baseline, test, batch)
        assert 0.0 < clean < 1.0            # some row is clean-misclassified
        assert report.clean_accuracy == clean
        alone = [evaluation.robust_accuracy(toy_baseline, test, cfg,
                                            seed=seed * 100003 + i, batch_size=batch)
                 for i, cfg in enumerate(grid)]
        assert [c.robust_accuracy for c in report.cells] == alone
        assert alone[0] < alone[1]

    def test_one_clean_evaluation_per_batch_and_key(self, toy_baseline, toy_data,
                                                    monkeypatch):
        # fgsm and pgd share the supervised_ce key, cw has supervised_margin;
        # no attack evaluates the unperturbed batch itself
        _, test = toy_data
        batch = 200
        grid = [AttackConfig("pgd", 0.03, num_steps=3, random_start=True),
                AttackConfig("fgsm", 0.03), AttackConfig("cw", 0.03, num_steps=3)]
        real_eval, real_run = attacks._eval_objective, attacks.run_attack
        outside, inside = [], []
        # per thread: a worker thread's attack must not count as outside
        attacking = threading.local()

        def eval_spy(model, xq, mode, *args, **kwargs):
            (inside if getattr(attacking, "depth", 0) else outside).append((mode, xq))
            return real_eval(model, xq, mode, *args, **kwargs)

        def run_spy(*args, **kwargs):
            attacking.depth = getattr(attacking, "depth", 0) + 1
            try:
                return real_run(*args, **kwargs)
            finally:
                attacking.depth -= 1

        def no_forward(*args, **kwargs):
            raise AssertionError("eval_table ran a separate clean forward")

        monkeypatch.setattr(attacks, "_eval_objective", eval_spy)
        monkeypatch.setattr(attacks, "run_attack", run_spy)
        monkeypatch.setattr(models, "logits_for", no_forward)
        evaluation.eval_table([("m", toy_baseline)], grid, test, seed=1, batch_size=batch)
        starts = range(0, len(test), batch)
        assert [mode for mode, _ in outside] == \
            ["supervised_ce", "supervised_margin"] * len(starts)
        for start, (_, xq) in zip(starts, outside[::2]):
            np.testing.assert_array_equal(xq, test.images[start:start + batch])
        clean_batches = [test.images[start:start + batch] for start in starts]
        assert inside and not any(xq.shape == c.shape and np.array_equal(xq, c)
                                  for _, xq in inside for c in clean_batches)

    def test_render_mentions_every_cell(self, toy_baseline, toy_data):
        _, test = toy_data
        reports = evaluation.eval_table([("m", toy_baseline)],
                                        [AttackConfig("fgsm", 0.03)], test, seed=0)
        text = evaluation.render_reports(reports)
        assert "clean accuracy" in text and "fgsm" in text


class TestThreadedSweep:
    """With two usable CPUs per BLAS thread a worker thread shares each
    batch's cells, and the reports are bitwise those of one thread."""

    GRID = [AttackConfig("fgsm", 0.03),
            AttackConfig("pgd", 0.03, num_steps=3, random_start=True),
            AttackConfig("cw", 0.03, num_steps=3, kappa=0.5),
            AttackConfig("pgd", 0.0, num_steps=2, random_start=True),
            AttackConfig("fgsm", 0.08)]

    def test_two_threads_equal_one(self, toy_baseline, toy_data, monkeypatch):
        _, test = toy_data
        batch = 70
        assert len(test) % batch        # a partial last batch
        runs = {}
        for cpus in (1, 2):
            force_cpus(monkeypatch, cpus)
            seen = cell_threads(monkeypatch) if cpus == 2 else []
            threads, interval = threading.active_count(), sys.getswitchinterval()
            sys.setswitchinterval(1e-5)     # switch threads often: a lost count shows
            try:
                reports = evaluation.eval_table([("m", toy_baseline)], self.GRID, test,
                                                seed=4, batch_size=batch)
            finally:
                sys.setswitchinterval(interval)
            assert threading.active_count() == threads
            runs[cpus] = [dict(r.to_dict(), timestamp=None) for r in reports]
            monkeypatch.undo()
        assert runs[1] == runs[2]
        assert threading.get_ident() in seen and len(set(seen)) == 2
        assert len(seen) == len(self.GRID) * math.ceil(len(test) / batch)

    @pytest.mark.parametrize("fail_on", ["main", "worker"])
    def test_failing_cell_is_raised_and_the_worker_joined(self, toy_baseline, toy_data,
                                                           monkeypatch, fail_on):
        _, test = toy_data
        force_cpus(monkeypatch, 2)
        cell_threads(monkeypatch, fail_on)
        threads = threading.active_count()
        with pytest.raises(NumericError, match=f"on the {fail_on} thread"):
            evaluation.eval_table([("m", toy_baseline)], self.GRID, test, batch_size=100)
        assert threading.active_count() == threads
