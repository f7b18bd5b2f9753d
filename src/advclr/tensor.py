"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 or float64). Shape is the contract, memory
order is not: an op may return a non-contiguous view (conv2d returns NCHW
views of batch-last memory), and every op accepts any memory order.

A gradient keeps the memory order of the tensor it differentiates: the
gradient that reaches an op is laid out like the op's output. In the encoder
every 4-d value after the input batch is batch-last (conv2d and max_pool2
write it, elementwise ops keep their operands' order), and every 4-d pull
returns a batch-last gradient, so the whole backward runs in one memory
order; numpy runs an elementwise op on operands of two orders many times
slower. A leaf gets what its pull returns: an input batch's gradient is
batch-last.

Differentiable computations are recorded on a ``Tape``: a tensor is on a
tape exactly when a gradient flows into it. Gradient leaves are created with
``Tape.leaf``, every operation with an input on the tape appends a node, and
``Tape.backward`` replays the nodes in reverse to accumulate gradients for
the leaves. Tensors without a tape are plain immutable values; operations on
them are evaluated eagerly and nothing is recorded, so they are safe to share
across threads. A tape itself is single-threaded.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)
# bytes of patch matrix that an off-tape kernel's conv2d builds at a time
_BLOCK_BYTES = 1 << 19


class ShapeError(ValueError):
    """Operand shapes (or dtypes) do not conform to an operation."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value where finiteness is required."""


def _as_array(value, dtype=None) -> np.ndarray:
    arr = np.asarray(value)
    if dtype is None:
        dtype = arr.dtype if arr.dtype in FLOAT_DTYPES else np.float32
    arr = np.asarray(arr, dtype=dtype)
    # note: ascontiguousarray would silently promote 0-d arrays to shape (1,)
    if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


class Tensor:
    """A dense float array, on a tape exactly when a gradient flows into it.

    ``data`` is read-only by convention; operations always allocate fresh
    outputs. ``handle`` identifies the tensor inside its tape's gradient map.
    """

    __slots__ = ("data", "tape", "handle")

    def __init__(self, data: np.ndarray, tape: "Tape | None" = None, handle: int = -1):
        self.data = data
        self.tape = tape
        self.handle = handle

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = "taped" if self.tape else "const"
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, {tag})"

    # arithmetic sugar; all shape/dtype checking lives in the op functions
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def constant(value, dtype=None) -> Tensor:
    """Wrap a value as an off-tape tensor (no gradients flow into it)."""
    return Tensor(_as_array(value, dtype))


class Tape:
    """Recorder for one differentiable computation.

    Nodes are appended in execution order, so every node's inputs precede it
    and a single reverse sweep visits each node exactly once.
    """

    def __init__(self):
        # handles and arrays, never Tensors: a Tensor points at its tape, and
        # the cycle would keep a finished tape alive until the cyclic GC runs
        self._nodes: list[tuple[int, list[tuple[int, Callable]]]] = []
        self._leaves: list[tuple[int, np.ndarray]] = []
        self._count = 0

    def _next_handle(self) -> int:
        h = self._count
        self._count += 1
        return h

    def leaf(self, value, requires_grad: bool = False, dtype=None) -> Tensor:
        """A gradient leaf on this tape, or without ``requires_grad`` a constant."""
        if not requires_grad:
            return constant(value, dtype)
        t = Tensor(_as_array(value, dtype), self, self._next_handle())
        self._leaves.append((t.handle, t.data))
        return t

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Accumulate gradients of a scalar loss for every grad-requiring leaf.

        Returns a map keyed by leaf handle. Leaves that do not influence the
        loss get a zero gradient.
        """
        if loss.tape is not self:
            raise ValueError("backward: loss does not belong to this tape")
        if loss.data.shape != ():
            raise ShapeError(
                f"backward: loss must be a scalar, got shape {loss.data.shape}")
        grads: dict[int, np.ndarray] = {loss.handle: np.ones((), dtype=loss.data.dtype)}
        for out_handle, pulls in reversed(self._nodes):
            g = grads.pop(out_handle, None)
            if g is None:
                continue
            for handle, pull in pulls:
                contrib = pull(g)
                if handle in grads:
                    grads[handle] = grads[handle] + contrib
                else:
                    grads[handle] = contrib
        return {handle: grads[handle] if handle in grads else np.zeros_like(data)
                for handle, data in self._leaves}


def _check_dtypes(op: str, tensors: Sequence[Tensor]):
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ShapeError(f"{op}: mixed dtypes {sorted(d.name for d in dtypes)}")


def _result(op: str, out: np.ndarray, pulls: list[tuple[Tensor, Callable]]) -> Tensor:
    """Build an op output: a node on the inputs' tape, or a plain constant."""
    tape = None
    for t, _ in pulls:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValueError(f"{op}: inputs belong to different tapes")
    if tape is None:
        return Tensor(out)
    res = Tensor(out, tape, tape._next_handle())
    tape._nodes.append((res.handle, [(t.handle, p) for t, p in pulls if t.tape is not None]))
    return res


def _coerce(op: str, value) -> tuple[Tensor | None, float | None]:
    if isinstance(value, Tensor):
        return value, None
    if isinstance(value, (int, float, np.floating, np.integer)):
        return None, float(value)
    raise TypeError(f"{op}: expected Tensor or scalar, got {type(value).__name__}")


def _same_shape(op: str, a: Tensor, b: Tensor):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")
    _check_dtypes(op, (a, b))


def add(a: Tensor, b) -> Tensor:
    bt, s = _coerce("add", b)
    if bt is None:
        return _result("add", a.data + s, [(a, lambda g: g)])
    _same_shape("add", a, bt)
    return _result("add", a.data + bt.data, [(a, lambda g: g), (bt, lambda g: g)])


def sub(a: Tensor, b) -> Tensor:
    bt, s = _coerce("sub", b)
    if bt is None:
        return _result("sub", a.data - s, [(a, lambda g: g)])
    _same_shape("sub", a, bt)
    return _result("sub", a.data - bt.data, [(a, lambda g: g), (bt, lambda g: -g)])


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; the only broadcast allowed is scalar * tensor."""
    bt, s = _coerce("mul", b)
    if bt is None:
        return _result("mul", a.data * s, [(a, lambda g: g * s)])
    _same_shape("mul", a, bt)
    ad, bd = a.data, bt.data
    return _result("mul", ad * bd, [(a, lambda g: g * bd), (bt, lambda g: g * ad)])


def neg(a: Tensor) -> Tensor:
    return _result("neg", -a.data, [(a, lambda g: -g)])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("matmul", (a, b))
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expected 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul: inner dims {a.shape[1]} != {b.shape[0]} ({a.shape} @ {b.shape})")
    ad, bd = a.data, b.data
    return _result("matmul", ad @ bd,
                   [(a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g)])


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected 2-d input, got {a.shape}")
    return _result("transpose", np.ascontiguousarray(a.data.T),
                   [(a, lambda g: np.ascontiguousarray(g.T))])


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)
    if a.tape is None:
        return Tensor(out)
    mask = a.data > 0  # subgradient at 0 is 0
    return _result("relu", out, [(a, lambda g: g * mask)])


def leaky_relu(a: Tensor, slope: float = 0.1) -> Tensor:
    """max(x, slope*x) for 0 < slope < 1; zero only at zero, still
    positively homogeneous."""
    factor = np.where(a.data > 0, 1.0, slope).astype(a.data.dtype)
    return _result("leaky_relu", a.data * factor, [(a, lambda g: g * factor)])


def _reduce_axes(shape: tuple, axis) -> tuple:
    if axis is None:
        return tuple(range(len(shape)))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % len(shape) for ax in axis)


def _expand_reduced(g: np.ndarray, shape: tuple, axes: tuple, keepdims: bool) -> np.ndarray:
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    axes = _reduce_axes(a.shape, axis)
    out = a.data.sum(axis=axes if axis is not None else None, keepdims=keepdims)
    shape = a.shape
    # gradient accumulation never writes in place, so broadcast views are fine
    return _result("sum", np.asarray(out),
                   [(a, lambda g: _expand_reduced(g, shape, axes, keepdims))])


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    axes = _reduce_axes(a.shape, axis)
    n = int(np.prod([a.shape[ax] for ax in axes])) if a.shape else 1
    if n == 0:
        raise ShapeError(f"mean: reduction over empty axes of shape {a.shape}")
    out = a.data.mean(axis=axes if axis is not None else None, keepdims=keepdims)
    shape = a.shape
    return _result("mean", np.asarray(out),
                   [(a, lambda g: _expand_reduced(g, shape, axes, keepdims) / n)])


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat: empty input list")
    _check_dtypes("concat", tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    pulls = []
    offset = 0
    for t in tensors:
        size = t.shape[axis]
        start = offset

        def pull(g, start=start, size=size):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, start + size)
            return g[tuple(idx)]

        pulls.append((t, pull))
        offset += size
    return _result("concat", out, pulls)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {tuple(shape)}")
    old = a.shape
    return _result("reshape", a.data.reshape(shape),
                   [(a, lambda g: g.reshape(old))])


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= a.shape[0]):
        raise ShapeError(f"slice_rows: [{start}:{stop}] out of range for {a.shape}")
    full = a.shape

    def pull(g):
        z = np.zeros(full, dtype=g.dtype)
        z[start:stop] = g
        return z

    return _result("slice_rows", a.data[start:stop].copy(), [(a, pull)])


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 1) -> Tensor:
    """2-d convolution with 3x3 kernels (cross-correlation, zero padding).

    x: (batch, in_channels, H, W); w: (out_channels, in_channels, 3, 3).

    Patches are gathered, multiplied and scattered in batch-last memory
    (channels, H, W, batch), and the output is an NCHW-shaped view of it.
    With the batch innermost, each of the nine patch copies and gradient
    scatter-adds moves whole contiguous batch rows rather than short width
    strips. Elementwise numpy ops keep their input's memory order, so a
    conv -> norm -> relu output reaches the next conv already batch-last.
    An off-tape kernel needs no weight gradient, so nothing keeps the patch
    matrix: it is built and multiplied a block of output rows at a time. The
    input gradient is one GEMM per kernel tap. Every element is the same dot
    product as in one whole-matrix GEMM, and the taps add in the same order.
    """
    _check_dtypes("conv2d", (x, w))
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-d input and kernel, got {x.shape}, {w.shape}")
    if w.shape[2:] != (3, 3):
        raise ShapeError(f"conv2d: kernel must be 3x3, got {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(
            f"conv2d: input channels {x.shape[1]} != kernel channels {w.shape[1]} "
            f"(input {x.shape}, kernel {w.shape})")
    if stride < 1 or pad < 0:
        raise ShapeError(f"conv2d: bad stride/pad ({stride}, {pad})")
    batch, cin, h, wdt = x.shape
    cout = w.shape[0]
    hp, wp = h + 2 * pad, wdt + 2 * pad
    if hp < 3 or wp < 3:
        raise ShapeError(f"conv2d: padded input {hp}x{wp} smaller than 3x3 kernel")
    ho, wo = (hp - 3) // stride + 1, (wp - 3) // stride + 1
    dtype = x.data.dtype

    taps = [(u, v) for u in range(3) for v in range(3)]

    def window(u, v, r0=0, r1=ho):
        """The padded-input window that kernel tap (u, v) reads for output rows r0:r1."""
        return (slice(None), slice(u + stride * r0, u + stride * (r1 - 1) + 1, stride),
                slice(v, v + stride * (wo - 1) + 1, stride))

    xp = np.zeros((cin, hp, wp, batch), dtype=dtype)
    xp[:, pad:pad + h, pad:pad + wdt] = x.data.transpose(1, 2, 3, 0)

    def patches(r0, r1):
        """The patch matrix of output rows r0:r1, (cin * 9, (r1 - r0) * wo * batch)."""
        cols = np.empty((cin, 3, 3, r1 - r0, wo, batch), dtype=dtype)
        for u, v in taps:
            cols[:, u, v] = xp[window(u, v, r0, r1)]
        return cols.reshape(cin * 9, -1)

    wmat = w.data.reshape(cout, cin * 9)
    row = wo * batch    # output columns per output row
    if w.tape is None:
        # no pull_w keeps the patch matrix: GEMM it a block of rows at a
        # time, each output element the same dot product as in one GEMM
        cols = None
        out = np.empty((cout, ho * row), dtype=dtype)
        step = max(1, _BLOCK_BYTES // (cin * 9 * row * xp.itemsize))
        for r0 in range(0, ho, step):
            r1 = min(ho, r0 + step)
            np.matmul(wmat, patches(r0, r1), out=out[:, r0 * row:r1 * row])
    else:
        cols = patches(0, ho)
        del xp
        out = wmat @ cols
    out = out.reshape(cout, ho, wo, batch).transpose(3, 0, 1, 2)

    def batch_last(g):
        return g.transpose(1, 2, 3, 0).reshape(cout, ho * row)

    def pull_x(g):
        # one GEMM per kernel tap, each scatter-added as soon as it is made
        wtaps = np.ascontiguousarray(wmat.reshape(cout, cin, 3, 3).transpose(2, 3, 0, 1))
        gmat = batch_last(g)
        gtap = np.empty((cin, ho * row), dtype=g.dtype)
        gxp = np.zeros((cin, hp, wp, batch), dtype=g.dtype)
        for u, v in taps:
            np.matmul(wtaps[u, v].T, gmat, out=gtap)
            gxp[window(u, v)] += gtap.reshape(cin, ho, wo, batch)
        return gxp[:, pad:pad + h, pad:pad + wdt].transpose(3, 0, 1, 2)

    def pull_w(g):
        # cols-first operand order: at these shapes OpenBLAS runs it ~1.7x
        # faster than batch_last(g) @ cols.T
        return (cols @ batch_last(g).T).T.reshape(cout, cin, 3, 3)

    return _result("conv2d", out, [(x, pull_x), (w, pull_w)])


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; spatial dims must be even.

    Pools in batch-last memory (channels, H, W, batch) and returns an NCHW
    view of it, so a conv2d output stays batch-last. argmax picks each
    window's first max over the taps (0,0), (0,1), (1,0), (1,1), and the
    gradient flows to it alone.
    """
    if x.ndim != 4:
        raise ShapeError(f"max_pool2: expected 4-d input, got {x.shape}")
    batch, ch, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"max_pool2: spatial dims must be even, got {h}x{w}")
    ho, wo = h // 2, w // 2
    windows = x.data.transpose(1, 2, 3, 0).reshape(ch, ho, 2, wo, 2, batch)
    windows = np.ascontiguousarray(windows.transpose(0, 1, 3, 5, 2, 4)).reshape(ch, ho, wo, batch, 4)
    idx = windows.argmax(axis=-1)[..., None]
    out = np.take_along_axis(windows, idx, axis=-1)[..., 0]

    def pull(g):
        gw = np.zeros((ch, ho, wo, batch, 4), dtype=g.dtype)
        np.put_along_axis(gw, idx, g.transpose(1, 2, 3, 0)[..., None], axis=-1)
        gw = gw.reshape(ch, ho, wo, batch, 2, 2).transpose(0, 1, 4, 2, 5, 3)
        return np.ascontiguousarray(gw).reshape(ch, h, w, batch).transpose(3, 0, 1, 2)

    return _result("max_pool2", out.transpose(3, 0, 1, 2), [(x, pull)])


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean: (batch, channels, H, W) -> (batch, channels)."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool: expected 4-d input, got {x.shape}")
    batch, ch, h, w = x.shape
    n = h * w

    def pull(g):
        # (channels, batch) memory broadcast over H and W: batch-last
        gb = np.ascontiguousarray((g / n).T).T
        return np.broadcast_to(gb[:, :, None, None], (batch, ch, h, w))

    return _result("global_avg_pool", x.data.mean(axis=(2, 3)), [(x, pull)])


def channel_norm(x: Tensor, scale: Tensor, shift: Tensor, stats=None,
                 eps: float = 1e-5) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Per-channel norm of a (B, C, H, W) input: ``x * eff + (shift - eff * mean)``
    with ``eff = scale / sqrt(var + eps)``. ``stats=None`` takes each channel's
    batch mean and biased variance, and the gradient flows through them (Ioffe
    & Szegedy, 2015); else ``stats`` is a constant pair. Returns (out, mean, var).
    """
    _check_dtypes("channel_norm", (x, scale, shift))
    if x.ndim != 4 or scale.shape != (x.shape[1],) or shift.shape != scale.shape:
        raise ShapeError(f"channel_norm: scale {scale.shape} and shift {shift.shape} "
                         f"for input {x.shape}")
    xd, view, axes = x.data, (1, x.shape[1], 1, 1), (0, 2, 3)
    if stats is None:
        mean = xd.mean(axis=axes)
        centered = xd - mean.reshape(view)
        var = (centered * centered).mean(axis=axes)
    else:
        mean, var = stats
    inv = (1.0 / np.sqrt(var + eps)).astype(xd.dtype).reshape(view)
    eff = scale.data.reshape(view) * inv
    mean_x = mean.astype(xd.dtype).reshape(view)
    out = xd * eff
    out += shift.data.reshape(view) - eff * mean_x
    # the training pulls hold xhat, not x: a tape keeps no conv output alive
    if stats is None:
        xhat = centered * inv
        pulls = [(x, lambda g: (g - g.mean(axis=axes, keepdims=True)
                                - xhat * (g * xhat).mean(axis=axes, keepdims=True)) * eff),
                 (scale, lambda g: (g * xhat).sum(axis=axes))]
    else:
        pulls = [(x, lambda g: g * eff),
                 (scale, lambda g: (g * (xd - mean_x) * inv).sum(axis=axes))]
    pulls.append((shift, lambda g: g.sum(axis=axes)))
    return _result("channel_norm", out, pulls), mean, var


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-feature bias vector to a (batch, features) input."""
    _check_dtypes("bias_add", (x, b))
    if x.ndim != 2 or b.shape != (x.shape[1],):
        raise ShapeError(f"bias_add: bias {b.shape} for input {x.shape}")
    return _result("bias_add", x.data + b.data,
                   [(x, lambda g: g), (b, lambda g: g.sum(axis=0))])


def softmax_cross_entropy_rows(logits: np.ndarray, labels) -> tuple[np.ndarray, Callable]:
    """Per-row softmax cross-entropy of (batch, classes) logits at integer labels.

    Plain numpy: returns the (batch,) losses ``-log softmax(logits)[i, y_i]``
    and a pull that maps a (batch,) upstream gradient ``g`` to the logits'
    gradient ``-g*onehot + softmax*g``.
    """
    y = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-d, got {logits.shape}")
    b, c = logits.shape
    if y.shape != (b,):
        raise ShapeError(f"cross_entropy: labels shape {y.shape} != ({b},)")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ValueError(f"cross_entropy: label out of range [0, {c})")
    onehot = np.zeros((b, c), dtype=logits.dtype)
    onehot[np.arange(b), y] = 1.0
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def pull(g):
        # op for op the log-softmax -> one-hot pick -> negate chain's gradient,
        # so the bits equal that chain's
        neg_g = (-g)[:, None]
        return neg_g * onehot - np.exp(logp) * neg_g

    return -(logp * onehot).sum(axis=1), pull


def softmax_cross_entropy(x: Tensor, labels) -> Tensor:
    """:func:`softmax_cross_entropy_rows` as one tape node, shape (batch,)."""
    terms, pull = softmax_cross_entropy_rows(x.data, labels)
    return _result("softmax_cross_entropy", terms, [(x, pull)])


def l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row of a (batch, dim) input to unit Euclidean norm."""
    if x.ndim != 2:
        raise ShapeError(f"l2_normalize: expected 2-d input, got {x.shape}")
    norms = np.sqrt((x.data ** 2).sum(axis=1, keepdims=True))
    if np.any(norms < eps):
        raise NumericError("l2_normalize: zero-norm row cannot be normalized")
    out = x.data / norms

    def pull(g):
        return (g - out * (g * out).sum(axis=1, keepdims=True)) / norms

    return _result("l2_normalize", out, [(x, pull)])


def rowmax(x: Tensor) -> Tensor:
    """Row-wise maximum of a (batch, k) input; gradient flows to the argmax."""
    if x.ndim != 2:
        raise ShapeError(f"rowmax: expected 2-d input, got {x.shape}")
    idx = x.data.argmax(axis=1)
    rows = np.arange(x.shape[0])
    shape = x.shape

    def pull(g):
        z = np.zeros(shape, dtype=g.dtype)
        z[rows, idx] = g
        return z

    return _result("rowmax", x.data[rows, idx], [(x, pull)])


def grad_check(fn: Callable[[Tensor], Tensor], point, h: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar function against central differences.

    ``fn`` maps a tensor to a scalar tensor and must be differentiable at
    ``point`` (keep coordinates away from relu kinks by more than ~10*h).
    Returns max over coordinates of |analytic - numeric| / max(1, |analytic|).
    """
    pt = _as_array(point, np.float64)
    tape = Tape()
    x = tape.leaf(pt, requires_grad=True)
    loss = fn(x)
    if loss.data.shape != ():
        raise ShapeError(f"grad_check: fn must return a scalar, got {loss.data.shape}")
    if not np.isfinite(loss.data):
        raise NumericError("grad_check: fn returned a non-finite value")
    analytic = tape.backward(loss)[x.handle]

    numeric = np.zeros_like(pt)
    flat = numeric.reshape(-1)
    base = pt.reshape(-1)
    for i in range(base.size):
        for sign in (1.0, -1.0):
            probe = base.copy()
            probe[i] += sign * h
            val = fn(constant(probe.reshape(pt.shape))).data
            if not np.isfinite(val):
                raise NumericError("grad_check: fn returned a non-finite value")
            flat[i] += sign * float(val)
        flat[i] /= 2.0 * h
    if base.size == 0:
        return 0.0
    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))
