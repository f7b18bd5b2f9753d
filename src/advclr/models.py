"""Encoders, projection head, classifier head, and checkpoints.

Two encoder families share one parameter container:

* ``toy_conv``: three stride-2 conv blocks (conv 3x3 -> channel norm -> relu)
  followed by global average pooling.
* ``resnet_small``: a stem (conv -> norm -> relu -> 2x2 max pool), then per
  stage an optional stride-2 transition conv and ``blocks_per_stage``
  residual blocks (two 3x3 convs with an identity skip), then global
  average pooling.

``_conv_layers`` is the one description of each encoder: the weight layout
(which initialization and checkpoint validation read) and the forward pass
both walk it.

Channel norm standardizes with current-batch statistics in training mode
(fully differentiated) and with frozen running statistics in eval mode, then
applies a learned per-channel scale and shift. Eval-mode forward passes are
pure functions of (params, input).
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import DataError, Dataset
from .tensor import Tensor

ENCODER_KINDS = ("toy_conv", "resnet_small")

_NORM_EPS = 1e-5
_NORM_MOMENTUM = 0.1

CHECKPOINT_MAGIC = b"ADVCLRC1"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class EncoderSpec:
    kind: str
    widths: tuple[int, ...]
    blocks_per_stage: int = 1

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if not self.widths or any(w < 1 for w in self.widths):
            raise ValueError(f"widths must be positive and non-empty, got {self.widths}")
        if self.kind == "toy_conv" and len(self.widths) != 3:
            raise ValueError("toy_conv takes exactly 3 widths")
        if self.blocks_per_stage < 1:
            raise ValueError("blocks_per_stage must be >= 1")

    @property
    def embedding_dim(self) -> int:
        return self.widths[-1]

    def check_image_size(self, image_size: int):
        """resnet_small max-pools its stem 2x2, so needs an even image side."""
        if self.kind == "resnet_small" and image_size % 2:
            raise DataError(f"resnet_small needs an even image size, got {image_size}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "widths": list(self.widths),
                "blocks_per_stage": self.blocks_per_stage}

    @staticmethod
    def from_dict(d: dict) -> "EncoderSpec":
        return EncoderSpec(d["kind"], tuple(d["widths"]), d.get("blocks_per_stage", 1))


@dataclass
class ModelParams:
    spec: EncoderSpec
    num_classes: int
    proj_dim: int
    seed: int
    arrays: dict[str, np.ndarray]    # trainable weights, float32
    buffers: dict[str, np.ndarray]   # channel-norm running statistics

    def copy(self) -> "ModelParams":
        return ModelParams(self.spec, self.num_classes, self.proj_dim, self.seed,
                           {k: v.copy() for k, v in self.arrays.items()},
                           {k: v.copy() for k, v in self.buffers.items()})

    def check_fits(self, dataset: Dataset):
        """A DataError unless this model can classify ``dataset``: the same
        class count, and an image side its encoder takes."""
        if self.num_classes != dataset.num_classes:
            raise DataError(f"model has {self.num_classes} classes, dataset "
                            f"has {dataset.num_classes}")
        self.spec.check_image_size(dataset.image_size)


def _conv_layers(spec: EncoderSpec):
    """Each conv layer (3x3 conv -> channel norm -> relu) of ``spec``'s encoder
    in forward order, as (conv name, norm name, in channels, out channels,
    stride, place). ``place`` is "pool" for a 2x2 max pool after the relu,
    "block_start" for a residual block's first conv (its input is the skip),
    "block_end" for its last (the skip joins before the relu), else None."""
    if spec.kind == "toy_conv":
        for i, (cin, cout) in enumerate(zip((3,) + spec.widths, spec.widths), start=1):
            yield f"encoder.conv{i}", f"encoder.norm{i}", cin, cout, 2, None
        return
    yield "encoder.stem", "encoder.stem_norm", 3, spec.widths[0], 1, "pool"
    for s, (prev, width) in enumerate(zip(spec.widths[:1] + spec.widths, spec.widths)):
        if s > 0:
            yield f"encoder.down{s}", f"encoder.down{s}_norm", prev, width, 2, None
        for b in range(spec.blocks_per_stage):
            base = f"encoder.s{s}b{b}"
            yield f"{base}.conv1", f"{base}.norm1", width, width, 1, "block_start"
            yield f"{base}.conv2", f"{base}.norm2", width, width, 1, "block_end"


def _layout(spec: EncoderSpec, num_classes: int,
            proj_dim: int) -> tuple[dict[str, tuple], dict[str, tuple]]:
    """Names and shapes of a model's weights and of its buffers, in init order."""
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    arrays: dict[str, tuple] = {}
    buffers: dict[str, tuple] = {}
    for conv, norm, cin, cout, _, _ in _conv_layers(spec):
        arrays[f"{conv}.w"] = (cout, cin, 3, 3)
        arrays[f"{norm}.scale"] = arrays[f"{norm}.shift"] = (cout,)
        buffers[f"{norm}.mean"] = buffers[f"{norm}.var"] = (cout,)
    emb = spec.embedding_dim
    # bias-free head keeps it positively homogeneous, so the normalized
    # output is exactly invariant to positive rescaling of the embeddings
    arrays["proj.fc1.w"] = (emb, emb)
    arrays["proj.fc2.w"] = (emb, proj_dim)
    arrays["classifier.w"] = (emb, num_classes)
    arrays["classifier.b"] = (num_classes,)
    return arrays, buffers


def init_params(spec: EncoderSpec, num_classes: int, seed: int,
                proj_dim: int = 128) -> ModelParams:
    """Seeded fan-in-scaled initialization; biases and norm shifts start at
    zero, norm scales and running variances at one."""
    shapes, buffer_shapes = _layout(spec, num_classes, proj_dim)
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        if name.endswith(".w"):     # conv (out, in, 3, 3) or dense (in, out)
            fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
            arrays[name] = (rng.standard_normal(shape)
                            * np.sqrt(2.0 / fan_in)).astype(np.float32)
        else:
            arrays[name] = np.full(shape, float(name.endswith(".scale")), np.float32)
    buffers = {name: np.full(shape, float(name.endswith(".var")), np.float32)
               for name, shape in buffer_shapes.items()}
    return ModelParams(spec, num_classes, proj_dim, seed, arrays, buffers)


def _norm_forward(pt: dict, params: ModelParams, name: str, x: Tensor,
                  train: bool) -> Tensor:
    stats = None if train else (params.buffers[f"{name}.mean"], params.buffers[f"{name}.var"])
    out, mean, var = T.channel_norm(x, pt[f"{name}.scale"], pt[f"{name}.shift"],
                                    stats, _NORM_EPS)
    if train:
        m = _NORM_MOMENTUM
        for key, stat in ((f"{name}.mean", mean), (f"{name}.var", var)):
            params.buffers[key] = (1 - m) * params.buffers[key] + m * stat.astype(np.float32)
    return out


def _as_input(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return T.constant(np.asarray(x), dtype)


def encode(params: ModelParams, batch, train: bool = False,
           lifted: dict | None = None) -> Tensor:
    """Run the encoder: (B, 3, H, W) -> (B, embedding_dim).

    ``batch`` may be an array or a tape tensor (for input gradients); pass
    ``lifted`` leaves to differentiate with respect to the weights.
    """
    x = _as_input(batch, np.float32)
    if x.ndim != 4 or x.shape[1] != 3:
        raise T.ShapeError(f"encode: expected (B, 3, H, W) input, got {x.shape}")
    pt = lifted if lifted is not None else _constant_params(params, x.data.dtype)
    h = x
    for conv, norm, _, _, stride, place in _conv_layers(params.spec):
        if place == "block_start":
            skip = h
        h = T.conv2d(h, pt[f"{conv}.w"], stride=stride, pad=1)
        h = _norm_forward(pt, params, norm, h, train)
        if place == "block_end":
            h = T.add(skip, h)
        h = T.relu(h)
        if place == "pool":
            h = T.max_pool2(h)
    return T.global_avg_pool(h)


def project(params: ModelParams, embeddings, lifted: dict | None = None) -> Tensor:
    """Map embeddings to unit-norm rows in the contrastive space (B, proj_dim)."""
    e = _as_input(embeddings, np.float32)
    if e.ndim != 2 or e.shape[1] != params.spec.embedding_dim:
        raise T.ShapeError(f"project: expected (B, {params.spec.embedding_dim}) "
                           f"embeddings, got {e.shape}")
    pt = lifted if lifted is not None else _constant_params(params, e.data.dtype)
    # leaky hidden activation: the head output is zero only for a zero
    # embedding, so normalization cannot blow up on live inputs
    h = T.leaky_relu(T.matmul(e, pt["proj.fc1.w"]))
    return T.l2_normalize(T.matmul(h, pt["proj.fc2.w"]))


def classify(params: ModelParams, embeddings, lifted: dict | None = None) -> Tensor:
    """Affine map from embeddings to class logits (no hidden nonlinearity)."""
    e = _as_input(embeddings, np.float32)
    if e.ndim != 2 or e.shape[1] != params.spec.embedding_dim:
        raise T.ShapeError(f"classify: expected (B, {params.spec.embedding_dim}) "
                           f"embeddings, got {e.shape}")
    pt = lifted if lifted is not None else _constant_params(params, e.data.dtype)
    return T.bias_add(T.matmul(e, pt["classifier.w"]), pt["classifier.b"])


def _constant_params(params: ModelParams, dtype) -> dict[str, Tensor]:
    return {name: T.constant(arr, dtype) for name, arr in params.arrays.items()}


def logits_for(params: ModelParams, images) -> np.ndarray:
    """Eval-mode classification logits for a raw image array."""
    return classify(params, encode(params, images)).data


# --- checkpoint container -------------------------------------------------
#
# Layout (little-endian throughout):
#   8 bytes   magic "ADVCLRC1"
#   4 bytes   uint32 header length
#   N bytes   UTF-8 JSON header: format version, encoder spec, head sizes,
#             seed, ordered array index (name, shape, kind), free-form meta
#   payload   the arrays in index order as raw little-endian float32
#
# A save goes through ``atomic_open``, so a reader never sees a half-written
# file; a load rejects anything else with DataError.


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs):
    """Write ``<path>.tmp``, then rename it over ``path`` once it is whole.

    A write that fails leaves neither a partial ``path`` nor the temp file.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def save_checkpoint(path: str, params: ModelParams, meta: dict | None = None):
    """Write a versioned, language-neutral checkpoint file."""
    entries = [(kind, name, store[name])
               for kind, store in (("param", params.arrays), ("buffer", params.buffers))
               for name in sorted(store)]
    index = [{"name": name, "shape": list(arr.shape), "kind": kind}
             for kind, name, arr in entries]
    header = {
        "format_version": CHECKPOINT_VERSION,
        "encoder": params.spec.to_dict(),
        "num_classes": params.num_classes,
        "proj_dim": params.proj_dim,
        "seed": params.seed,
        "arrays": index,
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(np.array(len(blob), dtype="<u4").tobytes())
        fh.write(blob)
        for _, _, arr in entries:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path: str) -> ModelParams:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises DataError unless the file is one whole checkpoint of this format
    whose arrays have the names and shapes its header's model implies.
    """
    with open(path, "rb") as fh:
        payload = fh.read()
    if payload[:8] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    offset = 12 + int.from_bytes(payload[8:12], "little")
    if len(payload) < offset:
        raise DataError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(payload[12:offset].decode("utf-8"))
        if header["format_version"] != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported format version "
                            f"{header['format_version']}")
        for value in (header["num_classes"], header["proj_dim"], header["seed"],
                      header["encoder"].get("blocks_per_stage", 1),
                      *header["encoder"]["widths"]):
            if type(value) is not int:      # not a float, not a bool
                raise DataError(f"{path}: header sizes must be integers, got {value!r}")
        shapes = [tuple(int(n) for n in entry["shape"]) for entry in header["arrays"]]
        size = offset + 4 * sum(int(np.prod(shape)) for shape in shapes)
        if len(payload) != size:
            raise DataError(f"{path}: payload ends at byte {len(payload)}, "
                            f"the array index needs {size}")
        arrays: dict[str, np.ndarray] = {}
        buffers: dict[str, np.ndarray] = {}
        for entry, shape in zip(header["arrays"], shapes):
            count = int(np.prod(shape))
            arr = np.frombuffer(payload, dtype="<f4", count=count,
                                offset=offset).reshape(shape)
            offset += count * 4
            target = arrays if entry["kind"] == "param" else buffers
            target[entry["name"]] = arr.astype(np.float32)
        params = ModelParams(EncoderSpec.from_dict(header["encoder"]),
                             header["num_classes"], header["proj_dim"], header["seed"],
                             arrays, buffers)
        layout = _layout(params.spec, params.num_classes, params.proj_dim)
        for found, needed in zip((arrays, buffers), layout):
            for name in sorted(found.keys() | needed.keys()):
                got = found[name].shape if name in found else "absent"
                want = needed.get(name, "absent")
                if got != want:
                    raise DataError(f"{path}: array {name!r} is {got}, the header's "
                                    f"model needs {want}")
        return params
    except DataError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint header: {exc!r}") from exc
