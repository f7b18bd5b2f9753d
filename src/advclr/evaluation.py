"""Clean and robust accuracy measurement, report serialization, rendering.

A report holds one clean-accuracy number plus one cell per (attack, epsilon)
pair. A cell's robust accuracy is the fraction of samples that are
clean-correct and have no visited point misclassified. ``attacks.run_attack``
already classifies every point it visits, the clean input included, and
writes each sample's verdict into its context as ``fooled``; the cell counts
the samples not fooled and runs no forward of its own.

Every measurement is one batch loop, ``_sweep``: batches outside, cells
inside, each cell drawing from its own generator so that its random stream
is the one it would draw alone. Per batch it evaluates the clean input once
per distinct (objective, kappa) among the cells, with the input gradient when
a cell of that key ``steps_from_clean``. Its misclassified rows give the
clean accuracy, and every cell's attack reads it as ``context.clean`` in
place of evaluating the batch again. The batch and the shared evaluation are
read-only, so an attack that wrote into them would raise instead of
corrupting the next cell. When :func:`threads.worker_fits` allows it and
the process runs no other thread, a child forked after the clean
evaluations and the calling process take each batch's cells from one queue,
longest first (``threads.share_with_child``); a second thread would wait on
the interpreter lock at every numpy call instead. The child inherits the
model, the batch and the clean evaluations, and sends back each count it
made with its cell's generator state, so that the next batch draws on from
where that cell stopped. Each cell owns its generator and context, so every
count is the one the cells give in turn. ``clean_accuracy`` is the sweep
with no cells (one gradient-free ``supervised_ce`` evaluation per batch),
``robust_accuracy`` its one-attack case, and ``eval_table`` runs it per
model. Reports serialize to JSON (round-trip safe) and project to a flat
CSV with columns model, attack, epsilon, accuracy.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from . import attacks, threads
from .attacks import AttackConfig, AttackContext
from .data import DataError, Dataset
from .models import ModelParams

CSV_COLUMNS = ("model", "attack", "epsilon", "accuracy")


@dataclass
class EvalCell:
    attack: str
    epsilon: float
    objective: str
    robust_accuracy: float
    sample_count: int


@dataclass
class EvalReport:
    model_id: str
    clean_accuracy: float
    cells: list[EvalCell]
    seed: int
    timestamp: str = ""

    def to_dict(self) -> dict:
        return {"model_id": self.model_id, "clean_accuracy": self.clean_accuracy,
                "cells": [vars(c) for c in self.cells], "seed": self.seed,
                "timestamp": self.timestamp}

    @staticmethod
    def from_dict(d: dict) -> "EvalReport":
        """Rebuild a report; a missing or malformed field raises DataError."""
        try:
            rep = EvalReport(d["model_id"], d["clean_accuracy"],
                             [EvalCell(**c) for c in d["cells"]],
                             d["seed"], d.get("timestamp", ""))
        except KeyError as exc:
            raise DataError(f"report has no {exc} field") from None
        except TypeError as exc:
            raise DataError(f"malformed report: {exc}") from None
        numbers = [rep.clean_accuracy] + [v for c in rep.cells
                                          for v in (c.epsilon, c.robust_accuracy)]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in numbers):
            raise DataError("malformed report: accuracies and epsilons must be numbers")
        counts = [rep.seed] + [c.sample_count for c in rep.cells]
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in counts):
            raise DataError("malformed report: the seed and sample counts must be integers")
        names = [rep.model_id] + [v for c in rep.cells for v in (c.attack, c.objective)]
        if not all(isinstance(v, str) for v in names):
            raise DataError("malformed report: the model id, attacks and objectives "
                            "must be strings")
        return rep

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str | bytes) -> "EvalReport":
        try:
            d = json.loads(text)
        except ValueError as exc:     # not JSON, or bytes that are not UTF-8
            raise DataError(f"report is not JSON: {exc}") from None
        return EvalReport.from_dict(d)


def _check_model_dataset(params: ModelParams, dataset: Dataset):
    if len(dataset) == 0:
        raise DataError("evaluation requires a non-empty dataset")
    params.check_fits(dataset)


def clean_accuracy(model: ModelParams, dataset: Dataset,
                   batch_size: int = 256) -> float:
    """Fraction of eval-mode argmax predictions matching the labels."""
    correct, _ = _sweep(model, dataset, [], batch_size)
    return correct / len(dataset)


def robust_accuracy(model: ModelParams, dataset: Dataset, attack: AttackConfig,
                    seed: int = 0, batch_size: int = 256) -> float:
    """Fraction of samples clean-correct with no visited point misclassified."""
    _, (correct,) = _sweep(model, dataset, [(attack, seed)], batch_size)
    return correct / len(dataset)


def _read_only(arr):
    if arr is not None:
        arr.flags.writeable = False
    return arr


def _sweep(model: ModelParams, dataset: Dataset,
           cells: Sequence[tuple[AttackConfig, int]],
           batch_size: int) -> tuple[int, list[int]]:
    """Clean-correct count and each (attack, seed) cell's robust count, swept
    batch-major over one shared clean evaluation per batch and key."""
    _check_model_dataset(model, dataset)
    # (objective, kappa) -> whether some cell of the key steps from the clean input
    keys, cell_keys = {}, []
    for cfg, _ in cells:
        objective = attacks.objective_for(cfg, supervised=True)
        if not objective.startswith("supervised"):
            raise ValueError(f"evaluation attacks need a supervised objective, "
                             f"got {objective!r}")
        key = (objective, cfg.kappa)
        keys[key] = keys.get(key, False) or cfg.steps_from_clean
        cell_keys.append(key)
    keys = keys or {("supervised_ce", 0.0): False}
    rngs = [np.random.default_rng(seed) for _, seed in cells]
    # the longest cells first, so that two processes finish a batch together
    order = sorted(range(len(cells)), key=lambda j: -cells[j][0].num_steps)
    clean_correct, robust = 0, [0] * len(cells)

    def cell_done(j, result):
        count, rngs[j].bit_generator.state = result
        robust[j] += count

    for start in range(0, len(dataset), batch_size):
        images = _read_only(np.asarray(dataset.images[start:start + batch_size],
                                       dtype=np.float32))
        labels = _read_only(np.asarray(dataset.labels[start:start + batch_size]))
        ctx = AttackContext(labels=labels)
        clean = {key: tuple(map(_read_only, attacks._eval_objective(
                     model, images, key[0], ctx, key[1], want_grad=grad)))
                 for key, grad in keys.items()}
        clean_correct += int((~next(iter(clean.values()))[2]).sum())

        # each cell owns its generator and context and reads only the
        # read-only batch and clean evaluation, so its count does not depend
        # on which process runs it, or when; the generator's state comes
        # back with the count, so the next batch draws on from it
        def run_cell(j):
            ctx = AttackContext(labels=labels, rng=rngs[j], clean=clean[cell_keys[j]])
            attacks.run_attack(model, images, cells[j][0], ctx)
            return int((~ctx.fooled).sum()), rngs[j].bit_generator.state

        threads.share_with_child(order, run_cell, cell_done)
    return clean_correct, robust


def eval_table(model_list: Sequence[tuple[str, ModelParams]],
               attack_list: Sequence[AttackConfig], dataset: Dataset,
               seed: int = 0, batch_size: int = 256) -> list[EvalReport]:
    """Evaluate every model against every attack config; one report per model.

    Every model is checked against the dataset before any is attacked."""
    if not model_list or not attack_list:
        raise ValueError("eval_table needs at least one model and one attack")
    for _, params in model_list:
        _check_model_dataset(params, dataset)
    cells = [(cfg, seed * 100003 + i) for i, cfg in enumerate(attack_list)]
    reports = []
    for model_id, params in model_list:
        clean_correct, robust = _sweep(params, dataset, cells, batch_size)
        report_cells = [EvalCell(cfg.kind, cfg.epsilon,
                                 attacks.objective_for(cfg, supervised=True),
                                 correct / len(dataset), len(dataset))
                        for (cfg, _), correct in zip(cells, robust)]
        reports.append(EvalReport(model_id, clean_correct / len(dataset), report_cells,
                                  seed, datetime.now(timezone.utc).isoformat()))
    return reports


def reports_to_csv(reports: Sequence[EvalReport]) -> str:
    """Flat projection of the robust cells: one data row per cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in reports:
        for cell in rep.cells:
            writer.writerow([rep.model_id, cell.attack, cell.epsilon,
                             f"{cell.robust_accuracy:.6f}"])
    return buf.getvalue()


def render_reports(reports: Sequence[EvalReport]) -> str:
    """Human-readable accuracy table for terminal output."""
    lines = []
    for rep in reports:
        lines.append(f"model: {rep.model_id}   seed: {rep.seed}")
        lines.append(f"  clean accuracy: {rep.clean_accuracy:7.2%}")
        for cell in rep.cells:
            lines.append(f"  {cell.attack:<5} eps={cell.epsilon:<5g} "
                         f"({cell.objective}): {cell.robust_accuracy:7.2%} "
                         f"on {cell.sample_count} samples")
    return "\n".join(lines) + "\n"
