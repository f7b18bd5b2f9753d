"""The three advclr workloads and the closed-loop measurement around them.

A workload is set up once per process (several times when set-up itself is
measured), then one process repeats the same iteration, one call after the
other, until the run's seconds are used. Every iteration is seeded the same
way, so all of them must produce bitwise-equal outputs; that, and each
workload's own output checks, decide which operations count as failed.

Shared 2-core hosts drift in speed by tens of percent, within a run and
between runs. So while a call is timed, a fixed reference kernel that uses
no advclr code is timed every SAMPLE_EVERY seconds, and end-to-end times are
scaled to a host that runs that kernel in REFERENCE_SECONDS: a time t
measured while the kernel took a median c seconds is reported as
t * (REFERENCE_SECONDS / c) ** HOST_ELASTICITY (see HostClock). The
program's own wall figures and the scale applied are reported next to them,
so the correction is never hidden; scaled figures compare only between runs
on one host with the same kernel.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import advclr as A
from advclr import cli, config, data, evaluation, models, training
from advclr.attacks import AttackConfig

import catalog
import tracing

NUM_CLASSES = 10
IMAGE_SIZE = 16
SPEC = A.EncoderSpec("toy_conv", (8, 16, 32))
BATCH = 128
EVAL_BATCH = 256
VIEW_EPS, VIEW_STEPS = 0.04, 5
EVAL_STEPS = 10
ACT_LR, CE_LR, PROBE_LR = 0.1, 0.05, 0.01
AUGMENT = data.AugmentPolicy(crop_pad=2, hflip_prob=0.0)
SETUP_REPEATS = 3
PROBE_FITS = 2              # probe fits per iteration; the iteration reports their median
REFERENCE_SECONDS = 0.005   # one reference-kernel sample on a quiet 2-core host
SAMPLE_EVERY = 0.2
# advclr's wall times move by about 3/4 of the kernel's own slow-downs: over
# 10-run sets on a 2-core x86 host, the slope of log img_per_s and log
# probe_fit_s on log kernel time was 0.67-0.83 on every workload
HOST_ELASTICITY = 0.75


@dataclass(frozen=True)
class Size:
    per_class: int
    test_per_class: int
    ce_epochs: int
    probe_epochs: int
    micro_reps: int


SIZES = {"full": Size(500, 100, 2, 30, 9), "smoke": Size(13, 10, 1, 2, 1)}


@dataclass
class Iteration:
    """One iteration's ops and outputs; img_per_s and probe_fit_s are
    (reference-host, wall) pairs, as HostClock.elapsed gives them."""
    ops: int
    img_per_s: np.ndarray | None = None
    probe_fit_s: np.ndarray | None = None
    outputs: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    checkpoint_bytes: int = 0


def _digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digest_params(params: models.ModelParams) -> str:
    h = hashlib.sha256()
    for store in (params.arrays, params.buffers):
        for name in sorted(store):
            h.update(name.encode())
            h.update(np.ascontiguousarray(store[name]).tobytes())
    return h.hexdigest()


def _check_losses(what: str, log, problems: list[str]):
    bad = [r.epoch for r in log.records if not math.isfinite(r.loss)]
    if bad or not log.records:
        problems.append(f"{what}: non-finite or missing epoch loss {bad}")


def _check_fraction(what: str, value: float, problems: list[str]):
    if not 0.0 <= value <= 1.0:
        problems.append(f"{what} = {value} outside [0, 1]")


def _steps(n: int, batch: int, epochs: int) -> int:
    return math.ceil(n / batch) * epochs


def _fit_probe(train, source, size: Size, seed: int, clock: "HostClock",
               problems: list[str]):
    """Fit the linear probe PROBE_FITS times from the same encoder source;
    every fit must give bitwise the same probe. Returns the probe, its log
    and the median fit time."""
    times, digests = [], set()
    for _ in range(PROBE_FITS):
        clock.start()
        probe, log = training.finetune(
            train, source, NUM_CLASSES,
            training.FinetuneConfig(epochs=size.probe_epochs, lr=PROBE_LR, seed=seed))
        times.append(clock.elapsed())
        digests.add(_digest_params(probe))
    if len(digests) != 1:
        problems.append(f"{PROBE_FITS} probe fits from one encoder differ bitwise")
    return probe, log, np.median(times, axis=0)


class ActPretrain:
    """One ACT epoch (checkpoint written to the run dir), then a linear probe
    fitted from that checkpoint (PROBE_FITS times), then clean accuracy of
    the probe."""

    name = "act_pretrain"

    def __init__(self, seed: int, size: Size, workdir: str):
        self.seed, self.size, self.workdir = seed, size, workdir

    def setup(self):
        common = dict(num_classes=NUM_CLASSES, image_size=IMAGE_SIZE, seed=self.seed)
        self.train = data.make_synthetic(per_class=self.size.per_class, split="train", **common)
        self.test = data.make_synthetic(per_class=self.size.test_per_class, split="test", **common)

    def ops(self) -> int:
        n = len(self.train)
        return _steps(n, BATCH, 1) + PROBE_FITS * _steps(n, BATCH, self.size.probe_epochs)

    def run_once(self, run_dir: str, clock: "HostClock") -> Iteration:
        views = (AttackConfig("pgd", VIEW_EPS, num_steps=VIEW_STEPS, random_start=True,
                              objective="contrastive"),
                 AttackConfig("cw", VIEW_EPS, num_steps=VIEW_STEPS, random_start=True,
                              objective="embedding_margin"))
        cfg = training.PretrainConfig(epochs=1, batch_size=BATCH, lr0=ACT_LR, seed=self.seed,
                                      pgd_view=views[0], cw_view=views[1], augment=AUGMENT)
        clock.start()
        _, log = training.act_pretrain(self.train, SPEC, cfg, out_dir=run_dir)
        act_s = clock.elapsed()
        ckpt = os.path.join(run_dir, "pretrain-final.ckpt")
        it = Iteration(self.ops())
        probe, probe_log, it.probe_fit_s = _fit_probe(self.train, ckpt, self.size, self.seed,
                                                      clock, it.problems)
        acc = evaluation.clean_accuracy(probe, self.test, EVAL_BATCH)

        it.img_per_s = len(self.train) * cfg.epochs / act_s
        _check_losses("act_pretrain", log, it.problems)
        _check_losses("probe", probe_log, it.problems)
        for r in log.records:
            if not r.pgd_views == r.cw_views == len(self.train):
                it.problems.append(f"epoch {r.epoch}: {r.pgd_views} pgd / {r.cw_views} cw "
                                   f"views for {len(self.train)} images")
        _check_fraction("probe clean accuracy", acc, it.problems)
        it.outputs = {"act_loss": log.records[-1].loss, "probe_loss": probe_log.records[-1].loss,
                      "clean_accuracy": acc, "pretrain_ckpt": _digest_file(ckpt),
                      "probe": _digest_params(probe)}
        it.checkpoint_bytes = os.path.getsize(ckpt)
        return it


def eval_grid() -> list[AttackConfig]:
    return [AttackConfig("fgsm", eps) if kind == "fgsm" else
            AttackConfig(kind, eps, num_steps=EVAL_STEPS, random_start=kind == "pgd")
            for kind in catalog.ATTACK_KINDS for eps in catalog.EVAL_EPSILONS]


class RobustEval:
    """A cross-entropy baseline trained in set-up; each iteration fits a
    linear probe on its frozen encoder (PROBE_FITS times), then evaluates the
    probe on the grid, one eval_table request per batch of test images: the
    same batches one request over the whole test set makes, each timed on its
    own so the host speed is sampled every second or so."""

    name = "robust_eval"

    def __init__(self, seed: int, size: Size, workdir: str):
        self.seed, self.size, self.workdir = seed, size, workdir

    def setup(self):
        common = dict(num_classes=NUM_CLASSES, image_size=IMAGE_SIZE, seed=self.seed)
        self.train = data.make_synthetic(per_class=self.size.per_class, split="train", **common)
        self.test = data.make_synthetic(per_class=self.size.test_per_class, split="test", **common)
        self.requests = [data.Dataset(self.test.images[i:i + EVAL_BATCH],
                                      self.test.labels[i:i + EVAL_BATCH],
                                      self.test.class_names, split="test")
                         for i in range(0, len(self.test), EVAL_BATCH)]
        cfg = training.SupervisedConfig(epochs=self.size.ce_epochs, batch_size=BATCH,
                                        lr0=CE_LR, augment=AUGMENT, seed=self.seed)
        self.model, _ = training.supervised_train(self.train, SPEC, cfg)

    def ops(self) -> int:
        return len(eval_grid()) * len(self.requests)

    def run_once(self, run_dir: str, clock: "HostClock") -> Iteration:
        grid = eval_grid()
        it = Iteration(self.ops())
        probe, probe_log, it.probe_fit_s = _fit_probe(self.train, self.model, self.size,
                                                      self.seed, clock, it.problems)
        reports, eval_s = [], 0.0
        for request in self.requests:
            clock.start()
            reports += evaluation.eval_table([("probe", probe)], grid, request,
                                             seed=self.seed, batch_size=EVAL_BATCH)
            eval_s = eval_s + clock.elapsed()

        it.img_per_s = len(grid) * len(self.test) / eval_s
        _check_losses("probe", probe_log, it.problems)
        for report in reports:
            _check_fraction("clean accuracy", report.clean_accuracy, it.problems)
            if len(report.cells) != len(grid):
                it.problems.append(f"{len(report.cells)} cells for {len(grid)} attacks")
            for cell in report.cells:
                what = f"{cell.attack} eps={cell.epsilon}"
                _check_fraction(what, cell.robust_accuracy, it.problems)
                if cell.robust_accuracy > report.clean_accuracy:
                    it.problems.append(f"{what}: robust {cell.robust_accuracy} > clean "
                                       f"{report.clean_accuracy}")
        counts = [sum(r.cells[i].sample_count for r in reports) for i in range(len(grid))]
        if any(n != len(self.test) for n in counts):
            it.problems.append(f"cell sample counts {counts}, not {len(self.test)}")
        it.outputs = {"clean_accuracy": [r.clean_accuracy for r in reports],
                      "robust": [[c.robust_accuracy for c in r.cells] for r in reports],
                      "probe": _digest_params(probe)}
        return it


class CliCeProbe:
    """``advclr baseline`` then ``advclr finetune`` on its checkpoint, driven
    through ``cli.main`` with a config file written in set-up."""

    name = "cli_ce_probe"

    def __init__(self, seed: int, size: Size, workdir: str):
        self.seed, self.size, self.workdir = seed, size, workdir

    def setup(self):
        self.config_path = os.path.join(self.workdir, "run.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(f"[run]\nseed = {self.seed}\nout_dir = {self.workdir}\n"
                     f"[data]\nsource = synthetic\nnum_classes = {NUM_CLASSES}\n"
                     f"per_class = {self.size.per_class}\n"
                     f"test_per_class = {self.size.test_per_class}\n"
                     f"image_size = {IMAGE_SIZE}\n"
                     f"[model]\nkind = {SPEC.kind}\n"
                     f"widths = {','.join(map(str, SPEC.widths))}\n"
                     f"[augment]\ncrop_pad = {AUGMENT.crop_pad}\n"
                     f"hflip_prob = {AUGMENT.hflip_prob}\n"
                     f"[baseline]\nepochs = {self.size.ce_epochs}\nbatch_size = {BATCH}\n"
                     f"lr0 = {CE_LR}\n"
                     f"[finetune]\nepochs = {self.size.probe_epochs}\nbatch_size = {BATCH}\n"
                     f"lr = {PROBE_LR}\n")
        cfg = config.parse_config(self.config_path)
        self.spec = config.build_encoder_spec(cfg)
        self.train, self.test = config.build_dataset(cfg)

    def ops(self) -> int:
        n = len(self.train)
        return _steps(n, BATCH, self.size.ce_epochs) + _steps(n, BATCH, self.size.probe_epochs)

    def run_once(self, run_dir: str, clock: "HostClock") -> Iteration:
        base_dir, probe_dir = os.path.join(run_dir, "base"), os.path.join(run_dir, "probe")
        base_ckpt = os.path.join(base_dir, "model.ckpt")
        probe_ckpt = os.path.join(probe_dir, "model.ckpt")
        with contextlib.redirect_stdout(io.StringIO()):
            clock.start()
            rc_base = cli.main(["baseline", "--config", self.config_path, "--run-dir", base_dir])
            base_s = clock.elapsed()
            clock.start()
            rc_probe = cli.main(["finetune", "--config", self.config_path,
                                 "--checkpoint", base_ckpt, "--run-dir", probe_dir])
            probe_s = clock.elapsed()

        images = len(self.train) * self.size.ce_epochs
        it = Iteration(self.ops(), images / base_s, probe_s)
        if rc_base != 0 or rc_probe != 0:
            it.problems.append(f"exit codes: baseline {rc_base}, finetune {rc_probe}")
            return it
        probe = models.load_checkpoint(probe_ckpt)
        if probe.spec != self.spec:
            it.problems.append(f"probe checkpoint spec {probe.spec} != {self.spec}")
        acc = evaluation.clean_accuracy(probe, self.test, EVAL_BATCH)
        _check_fraction("probe clean accuracy", acc, it.problems)
        it.outputs = {"baseline_ckpt": _digest_file(base_ckpt),
                      "probe_ckpt": _digest_file(probe_ckpt), "clean_accuracy": acc}
        it.checkpoint_bytes = os.path.getsize(probe_ckpt)
        return it


WORKLOADS = {w.name: w for w in (ActPretrain, RobustEval, CliCeProbe)}


def _attempt(workload, workdir: str, index: int, clock: "HostClock") -> tuple[Iteration, float]:
    """Run one iteration in its own directory; an exception fails all its ops."""
    run_dir = os.path.join(workdir, f"iter{index}")
    os.makedirs(run_dir)
    t0 = time.perf_counter()
    try:
        it = workload.run_once(run_dir, clock)
    except Exception as exc:  # counted as failed ops, reported, never hidden
        it = Iteration(workload.ops(), problems=[f"{type(exc).__name__}: {exc}"])
    finally:
        clock.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    return it, time.perf_counter() - t0


class Tally:
    """Attempted/failed op counts plus the problems behind the failures."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference: dict | None = None

    def add(self, it: Iteration):
        if it.outputs and self.reference is None:
            self.reference = it.outputs
        elif it.outputs and it.outputs != self.reference:
            it.problems.append("outputs differ bitwise from the first iteration")
        self.attempted += it.ops
        if it.problems:
            self.failed += it.ops
            self.problems.extend(it.problems)


class HostClock:
    """Times calls in reference-host seconds.

    While a timed call runs, a SIGALRM timer samples the host's speed every
    SAMPLE_EVERY seconds by timing a fixed reference kernel (plus one sample
    just before and one just after the call). The call's wall time, less the
    samples' own time, is scaled by REFERENCE_SECONDS over the median sample,
    raised to HOST_ELASTICITY. The kernel touches no advclr state and draws
    no random numbers, so the measured program computes bitwise the same
    results.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((96, 96)).astype(np.float32)
        self.x = rng.standard_normal((64, 8, 8, 8)).astype(np.float32)
        self.scales: list[float] = []
        self._samples: list[float] = []
        self._sampled_seconds = 0.0
        self.sampled_total = 0.0    # every sample's time since construction
        signal.signal(signal.SIGALRM, self._tick)

    def reference_kernel(self) -> float:
        """Seconds for a fixed mix of interpreter work, small numpy ops and a
        matmul, like advclr's own mix; it never changes with the code measured."""
        t0 = time.perf_counter()
        for _ in range(35):
            b = self.a @ self.a
            y = np.maximum(self.x, 0.0) * 0.5 + self.x.mean(axis=(0, 2, 3), keepdims=True)
            np.ascontiguousarray(y.transpose(0, 2, 3, 1)).sum(axis=0)
            np.sign(b).sum()
            sum(i * i for i in range(300))
        return time.perf_counter() - t0

    def _tick(self, signum=None, frame=None):
        seconds = self.reference_kernel()
        self._samples.append(seconds)
        self._sampled_seconds += seconds
        self.sampled_total += seconds

    def start(self):
        """Start a timed call, after collecting garbage so that every call
        starts from the same heap state."""
        gc.collect()
        self._samples = []
        self._tick()
        self._sampled_seconds = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        self._t0 = time.perf_counter()

    def stop(self):
        """Stop sampling; a timed call that raised never reaches ``elapsed``."""
        signal.setitimer(signal.ITIMER_REAL, 0)

    def elapsed(self) -> np.ndarray:
        """The call's time since ``start`` as (reference seconds, wall
        seconds), both less the samples' own time; sums and rates of the pair
        carry both figures."""
        wall = time.perf_counter() - self._t0
        self.stop()
        wall -= self._sampled_seconds
        self._tick()
        self.scales.append((REFERENCE_SECONDS / statistics.median(self._samples))
                           ** HOST_ELASTICITY)
        return np.array([wall * self.scales[-1], wall])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, size: Size, workdir: str) -> dict:
    """Untraced run: set-up timed SETUP_REPEATS times, then iterations until
    the next one would overrun ``seconds``. Medians over iterations."""
    make = WORKLOADS[name]
    clock = HostClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = make(seed, size, workdir)
        clock.start()
        workload.setup()
        setups.append(clock.elapsed())

    tally = Tally()
    rates, probes, walls = [], [], []
    start = time.perf_counter()
    while True:
        it, wall = _attempt(workload, workdir, len(walls), clock)
        walls.append(wall)
        tally.add(it)
        if it.img_per_s is not None:
            rates.append(it.img_per_s)
            probes.append(it.probe_fit_s)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    if not rates:
        raise RuntimeError(f"{name}: no iteration completed: {tally.problems[:3]}")
    # each a (reference, wall) pair of medians
    timed = {"setup_s": np.median(setups, axis=0), "img_per_s": np.median(rates, axis=0),
             "probe_fit_s": np.median(probes, axis=0)}
    metrics = {name: float(pair[0]) for name, pair in timed.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    wall = {name: float(pair[1]) for name, pair in timed.items()}
    wall["host_scale"] = statistics.median(clock.scales)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics, "problems": tally.problems,
            "iterations": len(walls), "wall": wall}


def measure_traced(name: str, seed: int, seconds: float, size: Size, workdir: str,
                   trace_path: str) -> dict:
    """Traced run: set-up with the tracer installed, one untraced warm-up
    iteration whose outputs are the reference, then an untraced and a traced
    iteration in turn until ``seconds`` are used. Every iteration must
    reproduce the reference bitwise. trace.overhead_frac compares the median
    traced and untraced iteration times; these exclude host-speed samples and
    tracer probes and are scaled to the reference host like end-to-end times."""
    make = WORKLOADS[name]
    start = time.perf_counter()
    clock = HostClock()
    tracer = tracing.Tracer(untimed=lambda: clock.sampled_total)
    tally = Tally()

    def attempt(index):
        sampled, paused, calls = clock.sampled_total, tracer.paused_seconds, len(clock.scales)
        it, wall = _attempt(workload, workdir, index, clock)
        tally.add(it)
        work = wall - (clock.sampled_total - sampled) - (tracer.paused_seconds - paused)
        return it, wall, work * statistics.mean(clock.scales[calls:] or [1.0])

    workload = make(seed, size, workdir)
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    reference, _, _ = attempt(0)
    pair_walls, untraced, traced = [], [], []
    while not pair_walls or time.perf_counter() - start + statistics.median(pair_walls) <= seconds:
        _, wall, work = attempt(0)
        untraced.append(work)
        tracer.run += 1
        tracer.install()
        try:
            _, traced_wall, work = attempt(tracer.run)
        finally:
            tracer.uninstall()
        traced.append(work)
        pair_walls.append(wall + traced_wall)

    micro = tracing.tensor_microbench(seed, size.micro_reps)
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics = tracing.layer_metrics(tracer, tracer.run, overhead, micro,
                                    reference.checkpoint_bytes)
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        for record in tracer.to_records():
            fh.write(json.dumps(record) + "\n")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics, "problems": tally.problems,
            "iterations": 1 + 2 * tracer.run}
