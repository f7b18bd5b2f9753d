"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 or float64). Shape is the contract, memory
order is not: an op may return a non-contiguous view (conv2d returns NCHW
views of batch-last memory), and every op accepts any memory order.
Differentiable computations are recorded on a ``Tape``: leaves are created
with ``Tape.leaf``, every operation whose inputs belong to the tape appends
a node, and ``Tape.backward`` replays the nodes in reverse to accumulate
gradients for the leaves. Tensors without a tape are plain immutable values;
operations on them are evaluated eagerly and nothing is recorded, so they
are safe to share across threads. A tape itself is single-threaded.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)


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
    """A dense float array, optionally recorded on a tape.

    ``data`` is read-only by convention; operations always allocate fresh
    outputs. ``handle`` identifies the tensor inside its tape's gradient map.
    """

    __slots__ = ("data", "tape", "requires_grad", "needs_grad", "handle")

    def __init__(self, data: np.ndarray, tape: "Tape | None" = None,
                 requires_grad: bool = False, needs_grad: bool = False,
                 handle: int = -1):
        self.data = data
        self.tape = tape
        self.requires_grad = requires_grad
        self.needs_grad = needs_grad
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
        tag = "leaf" if self.requires_grad else ("taped" if self.tape else "const")
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, {tag})"

    # arithmetic sugar; all shape/dtype checking lives in the op functions
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

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
        """Create an input tensor on this tape."""
        t = Tensor(_as_array(value, dtype), self, requires_grad, requires_grad,
                   self._next_handle())
        if requires_grad:
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
        return {handle: grads.get(handle, np.zeros_like(data))
                for handle, data in self._leaves}


def _check_dtypes(op: str, tensors: Sequence[Tensor]):
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ShapeError(f"{op}: mixed dtypes {sorted(d.name for d in dtypes)}")


def _result(op: str, out: np.ndarray, pulls: list[tuple[Tensor, Callable]]) -> Tensor:
    """Build an op output: recorded on the inputs' tape, or a plain constant."""
    tape = None
    for t, _ in pulls:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValueError(f"{op}: inputs belong to different tapes")
    needs = any(t.needs_grad for t, _ in pulls)
    if tape is None:
        return Tensor(out)
    res = Tensor(out, tape, False, needs, tape._next_handle())
    if needs:
        tape._nodes.append((res.handle, [(t.handle, p) for t, p in pulls if t.needs_grad]))
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
    mask = a.data > 0  # subgradient at 0 is 0
    return _result("relu", np.where(mask, a.data, 0).astype(a.data.dtype, copy=False),
                   [(a, lambda g: g * mask)])


def leaky_relu(a: Tensor, slope: float = 0.1) -> Tensor:
    """max(x, slope*x) for 0 < slope < 1; zero only at zero, still
    positively homogeneous."""
    factor = np.where(a.data > 0, 1.0, slope).astype(a.data.dtype)
    return _result("leaky_relu", a.data * factor, [(a, lambda g: g * factor)])


def rsqrt(a: Tensor) -> Tensor:
    """Elementwise x**-0.5; input must be strictly positive."""
    if np.any(a.data <= 0):
        raise NumericError("rsqrt: input must be strictly positive")
    out = 1.0 / np.sqrt(a.data)
    return _result("rsqrt", out, [(a, lambda g: g * (-0.5) * out ** 3)])


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

    # (u, v, the padded-input window that kernel tap (u, v) reads)
    taps = [(u, v, (slice(None), slice(u, u + stride * ho, stride),
                    slice(v, v + stride * wo, stride)))
            for u in range(3) for v in range(3)]

    xp = np.zeros((cin, hp, wp, batch), dtype=dtype)
    xp[:, pad:pad + h, pad:pad + wdt] = x.data.transpose(1, 2, 3, 0)
    cols = np.empty((cin, 3, 3, ho, wo, batch), dtype=dtype)
    for u, v, window in taps:
        cols[:, u, v] = xp[window]
    cols = cols.reshape(cin * 9, ho * wo * batch)
    wmat = w.data.reshape(cout, cin * 9)
    out = (wmat @ cols).reshape(cout, ho, wo, batch).transpose(3, 0, 1, 2)

    def batch_last(g):
        return g.transpose(1, 2, 3, 0).reshape(cout, ho * wo * batch)

    def pull_x(g):
        gcols = (wmat.T @ batch_last(g)).reshape(cin, 3, 3, ho, wo, batch)
        gxp = np.zeros((cin, hp, wp, batch), dtype=g.dtype)
        for u, v, window in taps:
            gxp[window] += gcols[:, u, v]
        return gxp[:, pad:pad + h, pad:pad + wdt].transpose(3, 0, 1, 2)

    def pull_w(g):
        # cols-first operand order: at these shapes OpenBLAS runs it ~1.7x
        # faster than batch_last(g) @ cols.T
        return (cols @ batch_last(g).T).T.reshape(cout, cin, 3, 3)

    return _result("conv2d", out, [(x, pull_x), (w, pull_w)])


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; spatial dims must be even."""
    if x.ndim != 4:
        raise ShapeError(f"max_pool2: expected 4-d input, got {x.shape}")
    batch, ch, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"max_pool2: spatial dims must be even, got {h}x{w}")
    ho, wo = h // 2, w // 2
    windows = x.data.reshape(batch, ch, ho, 2, wo, 2).transpose(0, 1, 2, 4, 3, 5)
    windows = np.ascontiguousarray(windows).reshape(batch, ch, ho, wo, 4)
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def pull(g):
        gw = np.zeros((batch, ch, ho, wo, 4), dtype=g.dtype)
        np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
        gw = gw.reshape(batch, ch, ho, wo, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return np.ascontiguousarray(gw).reshape(batch, ch, h, w)

    return _result("max_pool2", np.ascontiguousarray(out), [(x, pull)])


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean: (batch, channels, H, W) -> (batch, channels)."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool: expected 4-d input, got {x.shape}")
    batch, ch, h, w = x.shape
    n = h * w
    return _result("global_avg_pool", x.data.mean(axis=(2, 3)),
                   [(x, lambda g: np.broadcast_to(g[:, :, None, None] / n,
                                                  (batch, ch, h, w)))])


def _channel_view(op: str, x: Tensor, v: Tensor) -> tuple:
    if v.ndim != 1:
        raise ShapeError(f"{op}: per-channel vector must be 1-d, got {v.shape}")
    if x.ndim == 4:
        if v.shape[0] != x.shape[1]:
            raise ShapeError(f"{op}: {v.shape[0]} channels for input {x.shape}")
        return (1, v.shape[0], 1, 1), (0, 2, 3)
    if x.ndim == 2:
        if v.shape[0] != x.shape[1]:
            raise ShapeError(f"{op}: {v.shape[0]} features for input {x.shape}")
        return (1, v.shape[0]), (0,)
    raise ShapeError(f"{op}: expected 2-d or 4-d input, got {x.shape}")


def batch_affine(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """Per-channel (4-d input) or per-feature (2-d input) scale and shift."""
    _check_dtypes("batch_affine", (x, scale, shift))
    view, axes = _channel_view("batch_affine", x, scale)
    _channel_view("batch_affine", x, shift)
    sd = scale.data.reshape(view)
    out = x.data * sd + shift.data.reshape(view)
    xd = x.data
    return _result("batch_affine", out,
                   [(x, lambda g: g * sd),
                    (scale, lambda g: (g * xd).sum(axis=axes)),
                    (shift, lambda g: g.sum(axis=axes))])


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-channel / per-feature bias vector."""
    _check_dtypes("bias_add", (x, b))
    view, axes = _channel_view("bias_add", x, b)
    return _result("bias_add", x.data + b.data.reshape(view),
                   [(x, lambda g: g), (b, lambda g: g.sum(axis=axes))])


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log of softmax probabilities for a (batch, classes) input."""
    if x.ndim != 2:
        raise ShapeError(f"log_softmax: expected 2-d input, got {x.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def pull(g):
        return g - np.exp(out) * g.sum(axis=1, keepdims=True)

    return _result("log_softmax", out, [(x, pull)])


def l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row of a (batch, dim) input to unit Euclidean norm."""
    if x.ndim != 2:
        raise ShapeError(f"l2_normalize: expected 2-d input, got {x.shape}")
    norms = np.sqrt((x.data ** 2).sum(axis=1, keepdims=True))
    if np.any(norms < eps):
        raise ValueError("l2_normalize: zero-norm row cannot be normalized")
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
