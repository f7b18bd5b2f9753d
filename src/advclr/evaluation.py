"""Clean and robust accuracy measurement, report serialization, rendering.

A report holds one clean-accuracy number plus one cell per (attack, epsilon)
pair. A cell's robust accuracy is the fraction of samples that are
clean-correct and have no visited point misclassified. ``attacks.run_attack``
already classifies every point it visits, the clean input included, and
writes each sample's verdict into its context as ``fooled``; the cell counts
the samples not fooled and runs no forward of its own. Reports
serialize to JSON (round-trip safe) and project to a flat CSV with columns
model, attack, epsilon, accuracy.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from . import attacks, models
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
    if params.num_classes != dataset.num_classes:
        raise DataError(f"model has {params.num_classes} classes, dataset "
                        f"has {dataset.num_classes}")


def clean_accuracy(model: ModelParams, dataset: Dataset,
                   batch_size: int = 256) -> float:
    """Fraction of eval-mode argmax predictions matching the labels."""
    _check_model_dataset(model, dataset)
    correct = 0
    for start in range(0, len(dataset), batch_size):
        images = dataset.images[start:start + batch_size]
        labels = dataset.labels[start:start + batch_size]
        predicted = models.logits_for(model, images).argmax(axis=1)
        correct += int((predicted == labels).sum())
    return correct / len(dataset)


def robust_accuracy(model: ModelParams, dataset: Dataset, attack: AttackConfig,
                    seed: int = 0, batch_size: int = 256) -> float:
    """Fraction of samples clean-correct with no visited point misclassified."""
    _check_model_dataset(model, dataset)
    objective = attacks.objective_for(attack, supervised=True)
    if not objective.startswith("supervised"):
        raise ValueError(f"evaluation attacks need a supervised objective, "
                         f"got {objective!r}")
    rng = np.random.default_rng(seed)
    correct = 0
    for start in range(0, len(dataset), batch_size):
        images = dataset.images[start:start + batch_size]
        labels = dataset.labels[start:start + batch_size]
        ctx = AttackContext(labels=labels, rng=rng)
        attacks.run_attack(model, images, attack, ctx)
        correct += int((~ctx.fooled).sum())
    return correct / len(dataset)


def eval_table(model_list: Sequence[tuple[str, ModelParams]],
               attack_list: Sequence[AttackConfig], dataset: Dataset,
               seed: int = 0, batch_size: int = 256) -> list[EvalReport]:
    """Evaluate every model against every attack config; one report per model."""
    if not model_list or not attack_list:
        raise ValueError("eval_table needs at least one model and one attack")
    reports = []
    for model_id, params in model_list:
        cells = []
        for i, cfg in enumerate(attack_list):
            objective = attacks.objective_for(cfg, supervised=True)
            cell_seed = seed * 100003 + i
            acc = robust_accuracy(params, dataset, cfg, seed=cell_seed,
                                  batch_size=batch_size)
            cells.append(EvalCell(cfg.kind, cfg.epsilon, objective, acc,
                                  len(dataset)))
        reports.append(EvalReport(model_id, clean_accuracy(params, dataset,
                                                           batch_size),
                                  cells, seed,
                                  datetime.now(timezone.utc).isoformat()))
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
