"""Outside-in tracing of the advclr package modules.

``Tracer.install`` swaps public functions of the package modules for wrappers
that record a span per call (name, start, end, parent span, run id) and
restores them on ``uninstall``; nothing under src/ knows about it. Tensor ops
are only counted, not spanned, so a layer's self time includes the numpy
work done in the ops it calls.

The wrappers call straight through and draw no random numbers, so a traced
run computes bitwise the same results as an untraced one. The useful-work
probes (view objective gain, share of samples an attack fooled) run with the
tracer paused and outside every span.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from advclr import attacks, cli, config, data, evaluation, losses, models, training
from advclr import tensor as T

import catalog

ATTACK_SPANS = ("attacks.fgsm", "attacks.pgd", "attacks.cw", "attacks.run_attack")
_NOT_OPS = ("constant", "grad_check")


def _attack_meta(args, kwargs):
    cfg = args[2]
    return {"kind": cfg.kind, "eps": cfg.epsilon, "rows": len(args[1])}


def _encode_meta(args, kwargs):
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return {"train": bool(train), "rows": int(args[1].shape[0])}


def _cli_meta(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else ""}


# (module, attribute, span name, meta function); config imports make_synthetic
# by name, so both bindings are wrapped under one span name
SPANNED = [
    (training, "act_pretrain", "training.act_pretrain", None),
    (training, "finetune", "training.finetune", None),
    (training, "supervised_train", "training.supervised_train", None),
    (training, "embed_dataset", "training.embed_dataset", None),
    (training, "sgd_momentum_step", "training.sgd_momentum_step", None),
    (training, "adam_step", "training.adam_step", None),
    (data, "augment_batch", "data.augment_batch", None),
    (data, "make_synthetic", "data.make_synthetic", None),
    (config, "make_synthetic", "data.make_synthetic", None),
    (config, "parse_config", "config.parse_config", None),
    (models, "encode", "models.encode", _encode_meta),
    (models, "project", "models.project", None),
    (models, "save_checkpoint", "models.save_checkpoint", None),
    (models, "load_checkpoint", "models.load_checkpoint", None),
    (losses, "adv_contrastive", "losses.adv_contrastive", None),
    (losses, "cross_entropy", "losses.cross_entropy", None),
    (attacks, "fgsm", "attacks.fgsm", _attack_meta),
    (attacks, "pgd", "attacks.pgd", _attack_meta),
    (attacks, "cw", "attacks.cw", _attack_meta),
    (attacks, "run_attack", "attacks.run_attack", _attack_meta),
    (evaluation, "eval_table", "evaluation.eval_table", None),
    (evaluation, "robust_accuracy", "evaluation.robust_accuracy", None),
    (evaluation, "clean_accuracy", "evaluation.clean_accuracy", None),
    (cli, "main", "cli.main", _cli_meta),
    (T.Tape, "backward", "tensor.backward", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "meta")

    def __init__(self, name, start, parent, run, meta):
        self.name, self.start, self.end = name, start, start
        self.parent, self.run, self.meta = parent, run, meta

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; spans stay in memory until the caller writes them out.

    Span times come from ``now``, a clock that stops while the tracer is
    paused and leaves out the time ``untimed()`` reports (host-speed
    samples), so neither shows up in any span or step duration.
    """

    def __init__(self, untimed=lambda: 0.0):
        self.spans: list[Span] = []
        self.op_calls: Counter = Counter()       # run id -> tensor op calls
        self.run = 0
        self.paused = False
        self.paused_seconds = 0.0
        self.view_gain = defaultdict(list)       # attack kind -> objective gains
        self.fooled = defaultdict(lambda: [0, 0])  # (kind, eps) -> [fooled, clean-correct]
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._untimed = untimed

    def now(self) -> float:
        return time.perf_counter() - self.paused_seconds - self._untimed()

    # --- installation -----------------------------------------------------

    def install(self):
        for module, attr, name, meta in SPANNED:
            self._swap(module, attr, self._spanned(getattr(module, attr), name, meta))
        for name, fn in list(vars(T).items()):
            if (inspect.isfunction(fn) and fn.__module__ == T.__name__
                    and not name.startswith("_") and name not in _NOT_OPS):
                self._swap(T, name, self._counted(fn))
        self._after(attacks, ("pgd", "cw"), self._probe_view)
        self._after(attacks, ("run_attack",), self._probe_fooled)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _swap(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _spanned(self, fn, name, meta_fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            meta = meta_fn(args, kwargs) if meta_fn else None
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, tracer.now(), parent, tracer.run, meta)
            tracer.spans.append(span)
            tracer._stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = tracer.now()
                tracer._stack.pop()

        return wrapper

    def _counted(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.paused:
                tracer.op_calls[tracer.run] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after(self, module, attrs, probe):
        """Run ``probe(args, result)`` after each call, paused and unspanned."""
        tracer = self
        for attr in attrs:
            fn = getattr(module, attr)

            def wrapper(*args, _fn=fn, **kwargs):
                result = _fn(*args, **kwargs)
                if not tracer.paused:
                    t0, untimed0 = time.perf_counter(), tracer._untimed()
                    tracer.paused = True
                    try:
                        probe(args, result)
                    finally:
                        tracer.paused = False
                        tracer.paused_seconds += (time.perf_counter() - t0
                                                  - (tracer._untimed() - untimed0))
                return result

            self._swap(module, attr, wrapper)

    # --- useful-work probes -------------------------------------------------

    def _probe_view(self, args, x_adv):
        model, x, cfg, ctx = args[:4]
        if ctx.reference is None or ctx.labels is not None:
            return
        # the reported embedding_margin is clamped at 0 while a row's own
        # similarity dominates, which it does for nearly every view, so cw
        # views are scored by how far they repel their own clean projection
        mode = "contrastive" if cfg.kind == "pgd" else "embedding_repel"
        before = attacks.attack_objective(model, x, mode, ctx, cfg.kappa)
        after = attacks.attack_objective(model, x_adv, mode, ctx, cfg.kappa)
        self.view_gain[cfg.kind].append(after - before)

    def _probe_fooled(self, args, x_adv):
        model, x, cfg, ctx = args[:4]
        if ctx.labels is None:
            return
        correct = models.logits_for(model, x).argmax(axis=1) == ctx.labels
        fooled = correct & (models.logits_for(model, x_adv).argmax(axis=1) != ctx.labels)
        cell = self.fooled[(cfg.kind, cfg.epsilon)]
        cell[0] += int(fooled.sum())
        cell[1] += int(correct.sum())

    # --- derived metrics ----------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def under(self, sid: int, names) -> bool:
        """Whether a span has an ancestor with one of ``names``."""
        parent = self.spans[sid].parent
        while parent >= 0:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False

    def to_records(self) -> list[dict]:
        return [{"id": i, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run": s.run, "meta": s.meta}
                for i, s in enumerate(self.spans)]


def _ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def _p90_ms(values) -> float:
    return 1e3 * float(np.percentile(values, 90)) if values else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, iterations: int, overhead_frac: float,
                  micro: dict, checkpoint_bytes: int) -> dict[str, float]:
    """Per-layer values from the spans. Totals are per workload iteration
    (run ids 1..iterations); per-call medians use every span, set-up included."""
    spans = tracer.spans
    own = tracer.self_seconds()
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def secs(name, keep=lambda i: True):
        return [spans[i].seconds for i in by_name[name] if keep(i)]

    def per_iter_total(values):
        return sum(values) / iterations if iterations else 0.0

    def in_iter(i):
        return spans[i].run > 0

    out = dict(micro)
    out["tensor.backward_s"] = per_iter_total(
        own[i] for i in by_name["tensor.backward"] if in_iter(i))
    out["tensor.op_calls"] = per_iter_total(
        n for run, n in tracer.op_calls.items() if run > 0)

    augment = secs("data.augment_batch")
    out["data.augment_batch_ms.p50"] = _ms(augment)
    out["data.augment_batch.n"] = len(augment)
    out["data.make_synthetic_s"] = _median(secs("data.make_synthetic"))

    for mode, train in (("train", True), ("eval", False)):
        ids = [i for i in by_name["models.encode"]
               if in_iter(i) and spans[i].meta["train"] == train]
        out[f"models.encode.{mode}_s"] = per_iter_total(own[i] for i in ids)
        out[f"models.encode.{mode}_rows"] = per_iter_total(spans[i].meta["rows"] for i in ids)
    out["models.project_s"] = per_iter_total(
        own[i] for i in by_name["models.project"] if in_iter(i))
    out["models.save_checkpoint_ms"] = _ms(secs("models.save_checkpoint"))
    out["models.load_checkpoint_ms"] = _ms(secs("models.load_checkpoint"))
    out["models.checkpoint_bytes"] = checkpoint_bytes

    out["losses.adv_contrastive_ms"] = _ms(secs("losses.adv_contrastive"))
    out["losses.cross_entropy_ms"] = _ms(secs("losses.cross_entropy"))

    act = set(by_name["training.act_pretrain"])
    for kind in ("pgd", "cw"):
        views = secs(f"attacks.{kind}", lambda i: spans[i].parent in act)
        out[f"attacks.{kind}_view_ms.p50"] = _ms(views)
        out[f"attacks.{kind}_view_ms.p90"] = _p90_ms(views)
        gains = tracer.view_gain[kind]
        out[f"attacks.view_gain.{kind}"] = float(np.mean(gains)) if gains else 0.0
        out[f"attacks.view_raised_frac.{kind}"] = (
            sum(g > 0 for g in gains) / len(gains) if gains else 0.0)
    out["attacks.view_calls"] = per_iter_total(
        1 for name in ("attacks.pgd", "attacks.cw") for i in by_name[name]
        if in_iter(i) and spans[i].parent in act)
    for kind in catalog.ATTACK_KINDS:
        out[f"attacks.run_attack_ms.{kind}"] = _ms(
            secs("attacks.run_attack", lambda i: spans[i].meta["kind"] == kind))
    in_attack = [i for i in by_name["models.encode"]
                 if in_iter(i) and tracer.under(i, ATTACK_SPANS)]
    out["attacks.encode_calls"] = per_iter_total(1 for _ in in_attack)
    out["attacks.encode_rows"] = per_iter_total(spans[i].meta["rows"] for i in in_attack)
    for kind in catalog.ATTACK_KINDS:
        for eps in catalog.EVAL_EPSILONS:
            fooled, correct = tracer.fooled.get((kind, eps), (0, 0))
            out[f"attacks.fooled_frac.{kind}.eps{eps}"] = fooled / correct if correct else 0.0

    for loop, metric in (("training.act_pretrain", "act"), ("training.supervised_train", "ce")):
        steps = _step_seconds(spans, by_name[loop])
        out[f"training.{metric}_step_ms.p50"] = _ms(steps)
        out[f"training.{metric}_step_ms.p90"] = _p90_ms(steps)
        out[f"training.{metric}_step.n"] = len(steps)
    out.update(_phase_shares(spans, act))
    out["training.sgd_step_ms"] = _ms(secs("training.sgd_momentum_step"))
    out["training.adam_step_ms"] = _ms(secs("training.adam_step"))
    out["training.embed_dataset_s"] = _median(secs("training.embed_dataset"))

    out["evaluation.robust_cell_s.p50"] = _median(secs("evaluation.robust_accuracy"))
    out["evaluation.clean_accuracy_s"] = _median(secs("evaluation.clean_accuracy"))
    out["config.parse_config_ms"] = _ms(secs("config.parse_config"))
    for command in ("baseline", "finetune"):
        out[f"cli.{command}_s"] = _median(
            secs("cli.main", lambda i: spans[i].meta["command"] == command))
    out["trace.overhead_frac"] = overhead_frac
    return out


def _step_seconds(spans, loop_ids) -> list[float]:
    """Train-step durations: the time from the loop's start (or the previous
    optimizer step's end) to the end of each optimizer step it made."""
    loops = set(loop_ids)
    mark = {sid: spans[sid].start for sid in loop_ids}
    steps = []
    for s in spans:
        if s.name == "training.sgd_momentum_step" and s.parent in loops:
            steps.append(s.end - mark[s.parent])
            mark[s.parent] = s.end
    return steps


_PHASE_OF = {"data.augment_batch": "augment", "attacks.pgd": "pgd_view",
             "attacks.cw": "cw_view", "models.encode": "forward",
             "models.project": "forward", "losses.adv_contrastive": "forward",
             "tensor.backward": "backward", "training.sgd_momentum_step": "optimizer"}


def _phase_shares(spans, act_ids) -> dict[str, float]:
    """Share of ACT training time in each phase (direct children of the loop)."""
    total = sum(spans[i].seconds for i in act_ids)
    phase = dict.fromkeys(catalog.PHASES, 0.0)
    for s in spans:
        if s.parent in act_ids and s.name in _PHASE_OF:
            phase[_PHASE_OF[s.name]] += s.seconds
    return {f"training.phase_share.{p}": (v / total if total else 0.0)
            for p, v in phase.items()}


# --- tensor microbenchmarks ----------------------------------------------------


def _median_seconds(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _conv_backward_seconds(x, w, g, wrt_x: bool, reps: int) -> float:
    times = []
    for _ in range(reps):
        tape = T.Tape()
        xt = tape.leaf(x, requires_grad=wrt_x)
        wt = tape.leaf(w, requires_grad=not wrt_x)
        loss = T.tsum(T.mul(T.conv2d(xt, wt, stride=2, pad=1), T.constant(g)))
        t0 = time.perf_counter()
        tape.backward(loss)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tensor_microbench(seed: int, reps: int) -> dict[str, float]:
    """conv2d forward / x-gradient / w-gradient per toy_conv layer shape and
    batch, and one linear-probe train step (128x32 -> 10)."""
    rng = np.random.default_rng(seed)
    out = {}
    for layer, (cin, cout, hw) in catalog.CONV_LAYERS.items():
        w = (rng.standard_normal((cout, cin, 3, 3)) * 0.2).astype(np.float32)
        for b in catalog.CONV_BATCHES:
            x = rng.uniform(0.0, 1.0, (b, cin, hw, hw)).astype(np.float32)
            g = rng.standard_normal((b, cout, hw // 2, hw // 2)).astype(np.float32)
            key = f"tensor.conv2d.{layer}.b{b}"
            out[f"{key}.fwd_ms"] = 1e3 * _median_seconds(
                lambda: T.conv2d(T.constant(x), T.constant(w), stride=2, pad=1), reps)
            out[f"{key}.dx_ms"] = 1e3 * _conv_backward_seconds(x, w, g, True, reps)
            out[f"{key}.dw_ms"] = 1e3 * _conv_backward_seconds(x, w, g, False, reps)

    emb = rng.standard_normal((128, 32)).astype(np.float32)
    labels = rng.integers(0, 10, size=128)
    w = (rng.standard_normal((32, 10)) * 0.2).astype(np.float32)
    b = np.zeros(10, dtype=np.float32)

    def probe_step():
        tape = T.Tape()
        wt, bt = tape.leaf(w, requires_grad=True), tape.leaf(b, requires_grad=True)
        logits = T.bias_add(T.matmul(T.constant(emb), wt), bt)
        tape.backward(losses.cross_entropy(logits, labels))

    out["tensor.probe_step_us"] = 1e6 * _median_seconds(probe_step, 40 * reps)
    return out
