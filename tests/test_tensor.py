"""Autodiff core: forward values, backward vs finite differences, contracts."""

import gc
import inspect
import weakref

import numpy as np
import pytest

from advclr import models, tensor as T
from advclr.tensor import NumericError, ShapeError, Tape, constant
from conftest import (composed_cross_entropy_terms, reference_global_avg_pool,
                      reference_max_pool2)


def leaf(arr, tape=None):
    tape = tape or Tape()
    return tape, tape.leaf(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestForward:
    def test_relu_values(self):
        out = T.relu(constant([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_keeps_nan(self):
        # a NaN must reach the loss guard, not be zeroed on the way
        out = T.relu(constant([np.nan, -1.0, 2.0]))
        assert np.isnan(out.data[0])
        np.testing.assert_array_equal(out.data[1:], [0.0, 2.0])

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        out = T.matmul(constant(np.eye(3)), constant(a))
        np.testing.assert_allclose(out.data, a, rtol=0, atol=0)

    def test_conv2d_all_ones(self):
        # 3x3 window of ones summed over one channel -> 9 everywhere
        x = constant(np.ones((1, 1, 4, 4)))
        w = constant(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w, stride=1, pad=0)
        assert out.data.shape == (1, 1, 2, 2)
        np.testing.assert_allclose(out.data, 9.0)

    def test_conv2d_shape_error_names_op_and_dims(self):
        x = constant(np.ones((1, 4, 8, 8)))
        w = constant(np.ones((2, 3, 3, 3)))
        with pytest.raises(ShapeError, match=r"conv2d.*4 != .*3"):
            T.conv2d(x, w)

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError, match="matmul"):
            T.matmul(constant(np.ones((2, 3))), constant(np.ones((4, 2))))

    def test_add_shape_error(self):
        with pytest.raises(ShapeError, match="add"):
            T.add(constant(np.ones(2)), constant(np.ones(3)))

    def test_mixed_dtype_rejected(self):
        with pytest.raises(ShapeError, match="dtype"):
            T.add(constant(np.ones(2, dtype=np.float32)),
                  constant(np.ones(2, dtype=np.float64)))

    def test_constants_do_not_record(self):
        out = (constant([1.0, 2.0]) * 3.0).sum()
        assert out.tape is None and out.item() == 9.0

    def test_forward_determinism_bitwise(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        a = T.conv2d(constant(x), constant(w), stride=2, pad=1).data
        b = T.conv2d(constant(x), constant(w), stride=2, pad=1).data
        assert np.array_equal(a, b)

        # same values held in batch-last memory, as a previous conv leaves them
        x_last = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        assert not x_last.flags["C_CONTIGUOUS"]
        upstream = rng.normal(size=a.shape).astype(np.float32)

        def conv_and_grads(xd):
            tape = Tape()
            xt = tape.leaf(x, requires_grad=True)
            xt.data = xd  # leaf() stores C order; keep the caller's memory order
            wt = tape.leaf(w, requires_grad=True)
            out = T.conv2d(xt, wt, stride=2, pad=1)
            grads = tape.backward(T.mul(out, constant(upstream)).sum())
            return out.data, grads[xt.handle], grads[wt.handle]

        for got, want in zip(conv_and_grads(x_last), conv_and_grads(x)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_l2_normalize_unit_rows(self):
        rng = np.random.default_rng(1)
        out = T.l2_normalize(constant(rng.normal(size=(5, 7))))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-6)

    def test_l2_normalize_zero_row_error(self):
        with pytest.raises(NumericError, match="zero"):
            T.l2_normalize(constant(np.zeros((1, 4))))

    def test_max_pool2_odd_dims_error(self):
        with pytest.raises(ShapeError, match="max_pool2"):
            T.max_pool2(constant(np.ones((1, 1, 3, 4))))


class TestBackward:
    def test_square_derivative(self):
        tape, x = leaf([3.0])
        grads = tape.backward((x * x).sum())
        np.testing.assert_allclose(grads[x.handle], [6.0])

    def test_relu_subgradient(self):
        tape, x = leaf([2.0, -1.0])
        grads = tape.backward(T.relu(x).sum())
        np.testing.assert_array_equal(grads[x.handle], [1.0, 0.0])

    def test_non_scalar_loss_rejected(self):
        tape, x = leaf([1.0, 2.0])
        with pytest.raises(ShapeError, match="scalar"):
            tape.backward(x * 2.0)

    def test_unreachable_leaf_gets_zeros(self):
        tape = Tape()
        x = tape.leaf([1.0, 2.0], requires_grad=True)
        y = tape.leaf([3.0], requires_grad=True)
        grads = tape.backward((x * x).sum())
        np.testing.assert_array_equal(grads[y.handle], [0.0])

    def test_two_layer_net_grads_match_finite_differences(self):
        # independent oracle: central differences over all weights at once
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 5))
        w1 = rng.normal(size=(5, 6))
        w2 = rng.normal(size=(6, 2))
        theta0 = np.concatenate([w1.reshape(-1), w2.reshape(-1)])

        def net(theta):
            a = T.reshape(T.slice_rows(theta, 0, 30), (5, 6))
            b = T.reshape(T.slice_rows(theta, 30, 42), (6, 2))
            h = T.relu(T.matmul(constant(x), a))
            return T.mul(T.matmul(h, b), T.matmul(h, b)).sum()

        assert T.grad_check(net, theta0) <= 1e-4

    def test_finished_tape_freed_without_cyclic_gc(self):
        # Tensors point at their tape; if the tape pointed back, a finished
        # step's tape (and every array its pulls keep) would wait for the GC
        rng = np.random.default_rng(8)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            tape = Tape()
            x = tape.leaf(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
            w = tape.leaf(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
            h = T.global_avg_pool(T.max_pool2(T.relu(T.conv2d(x, w))))
            loss = T.softmax_cross_entropy(h, [0, 2]).sum()
            grads = tape.backward(loss)
            assert set(grads) == {x.handle, w.handle}
            ref = weakref.ref(tape)
            del tape, x, w, h, loss
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_mixing_tapes_rejected(self):
        t1, x1 = leaf([1.0])
        t2, x2 = leaf([2.0])
        with pytest.raises(ValueError, match="tapes"):
            T.add(x1, x2)

    def test_a_tensor_is_on_a_tape_exactly_when_a_gradient_flows_into_it(self):
        tape, x = leaf([1.0, -2.0])
        c = tape.leaf([3.0, 4.0])
        assert c.tape is None and x.tape is tape
        # a mixed op is taped and pulls only into the gradient leaf
        y = T.mul(x, c)
        assert y.tape is tape
        assert [[handle for handle, _ in pulls] for _, pulls in tape._nodes] == [[x.handle]]
        np.testing.assert_array_equal(tape.backward(y.sum())[x.handle], [3.0, 4.0])
        # an op on a leaf without requires_grad records nothing
        fresh = Tape()
        assert T.relu(fresh.leaf([1.0, -1.0])).tape is None
        assert fresh._nodes == []


class TestGradCheck:
    def test_sum_of_squares(self):
        err = T.grad_check(lambda t: (t * t).sum(), np.array([1.0, 2.0, 3.0]))
        assert err <= 1e-8

    def test_constant_function(self):
        err = T.grad_check(lambda t: (t * 0.0).sum(), np.array([1.0, -4.0]))
        assert err == 0.0

    def test_three_layer_conv_net(self):
        rng = np.random.default_rng(11)
        w1 = constant(rng.normal(size=(4, 3, 3, 3)) * 0.5)
        w2 = constant(rng.normal(size=(6, 4, 3, 3)) * 0.5)
        w3 = constant(rng.normal(size=(6, 2)) * 0.5)
        x0 = rng.uniform(0.2, 0.8, size=(2, 3, 8, 8))

        def net(t):
            h = T.relu(T.conv2d(t, w1, stride=2, pad=1))
            h = T.relu(T.conv2d(h, w2, stride=2, pad=1))
            h = T.global_avg_pool(h)
            return T.matmul(h, w3).sum()

        assert T.grad_check(net, x0) <= 1e-4

    def test_non_finite_value_rejected(self):
        bad = constant([np.inf])
        with pytest.raises(NumericError):
            T.grad_check(lambda t: (t * bad).sum(), np.array([1.0]))


def _away_from_kinks(rng, shape):
    x = rng.normal(size=shape)
    return np.where(np.abs(x) < 5e-3, np.sign(x) * 5e-3 + x, x)


# every recorded op's backward is checked against central differences
OP_CASES = [
    ("add", lambda t, c: T.add(t, c[0]), [(3, 4), (3, 4)]),
    ("add_scalar", lambda t, c: T.add(t, 1.5), [(3, 4)]),
    ("sub", lambda t, c: T.sub(c[0], t), [(2, 5), (2, 5)]),
    ("mul", lambda t, c: T.mul(t, c[0]), [(4, 3), (4, 3)]),
    ("mul_scalar", lambda t, c: T.mul(t, -2.5), [(4, 3)]),
    ("neg", lambda t, c: T.neg(t), [(6,)]),
    ("matmul", lambda t, c: T.matmul(t, c[0]), [(3, 4), (4, 2)]),
    ("transpose", lambda t, c: T.matmul(T.transpose(t), c[0]), [(3, 4), (3, 2)]),
    ("relu", lambda t, c: T.relu(t), [(4, 4)]),
    ("leaky_relu", lambda t, c: T.leaky_relu(t, 0.2), [(4, 4)]),
    ("sum_all", lambda t, c: T.tsum(t), [(2, 3, 4)]),
    ("sum_axis", lambda t, c: T.tsum(t, axis=(0, 2)), [(2, 3, 4)]),
    ("mean_keepdims", lambda t, c: T.tmean(t, axis=1, keepdims=True), [(3, 5)]),
    ("concat", lambda t, c: T.concat([t, c[0]], axis=1), [(2, 3), (2, 2)]),
    ("reshape", lambda t, c: T.reshape(t, (6, 2)), [(3, 4)]),
    ("slice_rows", lambda t, c: T.slice_rows(t, 1, 3), [(4, 3)]),
    ("conv_s1p1", lambda t, c: T.conv2d(t, c[0], 1, 1), [(2, 3, 6, 6), (4, 3, 3, 3)]),
    ("conv_s2p0", lambda t, c: T.conv2d(t, c[0], 2, 0), [(2, 2, 7, 7), (3, 2, 3, 3)]),
    ("conv_weights", lambda t, c: T.conv2d(c[0], t, 2, 1), [(2, 2, 3, 3), (1, 2, 6, 6)]),
    # a conv output (a batch-last view) feeding the next op
    ("conv_relu_conv", lambda t, c: T.conv2d(T.relu(T.conv2d(t, c[0], 1, 1)), c[1], 2, 1),
     [(2, 3, 6, 6), (4, 3, 3, 3), (2, 4, 3, 3)]),
    ("conv_maxpool", lambda t, c: T.max_pool2(T.conv2d(t, c[0], 1, 1)),
     [(2, 3, 4, 4), (4, 3, 3, 3)]),
    ("max_pool2", lambda t, c: T.max_pool2(t), [(2, 3, 4, 4)]),
    ("global_avg_pool", lambda t, c: T.global_avg_pool(t), [(2, 3, 4, 4)]),
    # batch statistics; the last constant weights the outputs unevenly, since
    # a plain sum of squares of a standardized channel barely depends on x
    ("channel_norm_batch_x", lambda t, c: T.mul(T.channel_norm(t, c[0], c[1])[0], c[2]),
     [(3, 2, 3, 3), (2,), (2,), (3, 2, 3, 3)]),
    ("channel_norm_batch_scale", lambda t, c: T.mul(T.channel_norm(c[0], t, c[1])[0], c[2]),
     [(2,), (3, 2, 3, 3), (2,), (3, 2, 3, 3)]),
    ("channel_norm_batch_shift", lambda t, c: T.mul(T.channel_norm(c[0], c[1], t)[0], c[2]),
     [(2,), (3, 2, 3, 3), (2,), (3, 2, 3, 3)]),
    # constant running statistics (mean, var > 0)
    ("channel_norm_running_x",
     lambda t, c: T.channel_norm(t, c[0], c[1], (c[2].data, c[3].data ** 2 + 0.5))[0],
     [(2, 3, 4, 4), (3,), (3,), (3,), (3,)]),
    ("channel_norm_running_scale",
     lambda t, c: T.channel_norm(c[0], t, c[1], (c[2].data, c[3].data ** 2 + 0.5))[0],
     [(3,), (2, 3, 4, 4), (3,), (3,), (3,)]),
    ("bias_add", lambda t, c: T.bias_add(c[0], t), [(4,), (3, 4)]),
    ("softmax_cross_entropy", lambda t, c: T.softmax_cross_entropy(t, [3, 0, 3, 5]), [(4, 6)]),
    ("l2_normalize", lambda t, c: T.l2_normalize(T.add(t, 2.0)), [(3, 5)]),
    ("rowmax", lambda t, c: T.rowmax(t), [(4, 6)]),
]


@pytest.mark.parametrize("name,build,shapes", OP_CASES, ids=[c[0] for c in OP_CASES])
@pytest.mark.parametrize("seed", [0, 1])
def test_op_backward_matches_finite_differences(name, build, shapes, seed):
    rng = np.random.default_rng(seed)
    point = _away_from_kinks(rng, shapes[0])
    if name in ("max_pool2", "rowmax"):
        # break ties so the argmax is stable under the probe step
        point += np.linspace(0.0, 0.37 * point.size, point.size).reshape(point.shape)
    consts = [constant(_away_from_kinks(rng, s)) for s in shapes[1:]]
    weight = constant(rng.normal(size=()))  # non-uniform upstream gradient

    def fn(t):
        out = build(t, consts)
        return T.mul(T.mul(out, out).sum(), weight)

    assert T.grad_check(fn, point) <= 1e-4, name


def test_every_op_has_a_finite_difference_case(monkeypatch):
    public = [name for name, fn in vars(T).items()
              if inspect.isfunction(fn) and fn.__module__ == T.__name__
              and not name.startswith("_") and name not in ("constant", "grad_check")]
    called = set()
    for name in public:
        def spy(*args, _name=name, _fn=getattr(T, name), **kwargs):
            called.add(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(T, name, spy)
    rng = np.random.default_rng(0)
    for _, build, shapes in OP_CASES:
        build(constant(_away_from_kinks(rng, shapes[0])),
              [constant(_away_from_kinks(rng, s)) for s in shapes[1:]])
    assert sorted(set(public) - called) == []


@pytest.mark.parametrize("upstream", ["mean", "weighted"])
def test_softmax_cross_entropy_equals_composed_ops_bitwise(upstream):
    # float32 logits with saturating +-80 entries and repeated labels: the
    # fused node must give the composed log-softmax graph's bits exactly
    rng = np.random.default_rng(21)
    logits = rng.normal(scale=4.0, size=(9, 7)).astype(np.float32)
    logits[0, 2], logits[1, :] = 80.0, -80.0
    logits[2, 5], logits[2, 1] = 80.0, -80.0
    labels = np.array([2, 2, 1, 6, 2, 0, 6, 6, 3])
    weight = constant(rng.normal(size=9).astype(np.float32))
    results = []
    for terms_of in (T.softmax_cross_entropy, composed_cross_entropy_terms):
        tape = Tape()
        x = tape.leaf(logits, requires_grad=True)
        terms = terms_of(x, labels)
        loss = terms.mean() if upstream == "mean" else T.mul(terms, weight).sum()
        results.append((terms.data.tobytes(), tape.backward(loss)[x.handle].tobytes()))
    assert results[0] == results[1]


def _whole_matrix_conv(x, w, stride, g):
    """conv2d's forward and input gradient with the whole patch matrix: one
    GEMM for the output and one for every tap's gradient."""
    batch, cin, h, wdt = x.shape
    cout = w.shape[0]
    ho, wo = (h - 1) // stride + 1, (wdt - 1) // stride + 1
    windows = [(u, v, (slice(None), slice(u, u + stride * ho, stride),
                       slice(v, v + stride * wo, stride)))
               for u in range(3) for v in range(3)]
    xp = np.zeros((cin, h + 2, wdt + 2, batch), dtype=x.dtype)
    xp[:, 1:1 + h, 1:1 + wdt] = x.transpose(1, 2, 3, 0)
    cols = np.empty((cin, 3, 3, ho, wo, batch), dtype=x.dtype)
    for u, v, window in windows:
        cols[:, u, v] = xp[window]
    wmat = w.reshape(cout, cin * 9)
    out = (wmat @ cols.reshape(cin * 9, -1)).reshape(cout, ho, wo, batch)
    gcols = (wmat.T @ g.transpose(1, 2, 3, 0).reshape(cout, -1)).reshape(
        cin, 3, 3, ho, wo, batch)
    gxp = np.zeros_like(xp)
    for u, v, window in windows:
        gxp[window] += gcols[:, u, v]
    return out.transpose(3, 0, 1, 2), gxp[:, 1:1 + h, 1:1 + wdt].transpose(3, 0, 1, 2)


def _layer_shapes():
    """(in channels, out channels, input side, stride) of every conv in the
    default toy_conv and resnet_small encoders on 16x16 images."""
    shapes = set()
    real = T.conv2d

    def spy(x, w, stride=1, pad=1):
        shapes.add((x.shape[1], w.shape[0], x.shape[2], stride))
        return real(x, w, stride, pad)

    T.conv2d = spy
    try:
        for kind in ("toy_conv", "resnet_small"):
            params = models.init_params(models.EncoderSpec(kind, (8, 16, 32)), 10, seed=0)
            models.encode(params, np.zeros((1, 3, 16, 16), np.float32))
    finally:
        T.conv2d = real
    return sorted(shapes)


@pytest.mark.parametrize("batch", [1, 7, 256, 300])
@pytest.mark.parametrize("cin,cout,side,stride", _layer_shapes())
def test_conv2d_blocks_and_taps_equal_the_whole_matrix_bitwise(cin, cout, side, stride,
                                                               batch):
    # an off-tape kernel builds and multiplies the patch matrix a block of
    # output rows at a time, and pull_x runs one GEMM per tap
    rng = np.random.default_rng(cin * 1000 + side * 10 + batch)
    x = rng.uniform(0, 1, (batch, cin, side, side)).astype(np.float32)
    w = (rng.standard_normal((cout, cin, 3, 3)) * 0.3).astype(np.float32)
    side_out = (side - 1) // stride + 1
    g = rng.standard_normal((batch, cout, side_out, side_out)).astype(np.float32)
    want_out, want_gx = _whole_matrix_conv(x, w, stride, g)

    tape = Tape()
    xt = tape.leaf(x, requires_grad=True)
    out = T.conv2d(xt, constant(w), stride=stride)
    gx = tape.backward(T.tsum(T.mul(out, constant(g))))[xt.handle]
    taped_kernel = T.conv2d(constant(x), Tape().leaf(w, requires_grad=True), stride=stride)
    for got, want in ((out.data, want_out), (taped_kernel.data, want_out), (gx, want_gx)):
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _axis_orders(a, b):
    """The axes of two same-shape arrays from outermost to innermost in
    memory, over the axes that are longer than 1 and strided in both."""
    axes = [ax for ax in range(a.ndim) if a.shape[ax] > 1 and a.strides[ax] and b.strides[ax]]
    return tuple(sorted(axes, key=lambda ax: -abs(a.strides[ax]))), \
        tuple(sorted(axes, key=lambda ax: -abs(b.strides[ax])))


def _memory_order_spy(monkeypatch):
    """Record, for every op with a 4-d output, the memory order of the output
    and of the gradient reaching the op, and for every pull into a 4-d op
    output, the order of that tensor and of the gradient the pull returns."""
    seen = []
    real = T._result

    def result(op, out, pulls):
        def watched(t, pull):
            def spy(g):
                got = pull(g)
                if g.ndim == 4:
                    seen.append((op, "output", *_axis_orders(out, g)))
                leaf = any(handle == t.handle for handle, _ in t.tape._leaves)
                if t.data.ndim == 4 and not leaf:
                    seen.append((op, "input", *_axis_orders(t.data, got)))
                return got
            return spy

        return real(op, out, [(t, watched(t, pull)) for t, pull in pulls])

    monkeypatch.setattr(T, "_result", result)
    return seen


ORDER_SPECS = [models.EncoderSpec("toy_conv", (8, 16, 32)),
               models.EncoderSpec("resnet_small", (8, 16), blocks_per_stage=2)]


@pytest.mark.parametrize("batch", [7, 64])
@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("spec", ORDER_SPECS, ids=[s.kind for s in ORDER_SPECS])
def test_gradients_keep_the_memory_order_of_what_they_differentiate(monkeypatch, spec,
                                                                    train, batch):
    # elementwise numpy ops on operands of two memory orders run ~10x slower,
    # so every gradient must reach its op laid out like the op's output
    rng = np.random.default_rng(batch)
    params = models.init_params(spec, 10, seed=3)
    images = rng.uniform(0, 1, (batch, 3, 16, 16)).astype(np.float32)
    labels = rng.integers(0, 10, batch)
    seen = _memory_order_spy(monkeypatch)
    tape = Tape()
    if train:   # a cross-entropy training step's graph: weight gradients
        lifted = {name: tape.leaf(arr, requires_grad=True) for name, arr in params.arrays.items()}
        emb = models.encode(params, images, train=True, lifted=lifted)
        logits = models.classify(params, emb, lifted=lifted)
    else:       # an attack's graph: the input gradient of the eval-mode model
        x = tape.leaf(images, requires_grad=True)
        logits = models.classify(params, models.encode(params, x))
    tape.backward(T.softmax_cross_entropy(logits, labels).mean())
    ops = {op for op, _, _, _ in seen}
    assert {"conv2d", "channel_norm", "relu", "global_avg_pool"} <= ops
    assert ("max_pool2" in ops) == (spec.kind == "resnet_small")
    assert [entry for entry in seen if entry[2] != entry[3]] == []


@pytest.mark.parametrize("batch_last", [True, False], ids=["batch_last", "c_order"])
@pytest.mark.parametrize("batch", [1, 7, 64])
def test_max_pool2_equals_c_order_pooling_bitwise(batch, batch_last):
    # ties (all four taps, and +0 against -0), NaN and infinities: the first
    # max wins the window and its gradient, as argmax picks it
    rng = np.random.default_rng(batch)
    x = rng.standard_normal((batch, 5, 6, 8)).astype(np.float32)
    flat = x.reshape(-1)
    spots = rng.choice(flat.size, size=(5, flat.size // 12), replace=False)
    flat[spots[0]], flat[spots[1]] = 0.0, -0.0
    flat[spots[2]], flat[spots[3]] = np.nan, np.inf
    flat[spots[4]] = -np.inf
    x[:, :2] = np.round(x[:, :2])       # many whole-window and partial ties
    if batch_last:
        x = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    g = rng.standard_normal((batch, 5, 3, 4)).astype(np.float32)
    results = []
    for pool in (T.max_pool2, reference_max_pool2):
        assert np.ascontiguousarray(pool(constant(x)).data).tobytes() == \
            np.ascontiguousarray(pool(T.Tensor(x)).data).tobytes()
        tape = Tape()
        xt = T.Tensor(x, tape, tape._next_handle())     # keeps x's memory order
        tape._leaves.append((xt.handle, x))
        out = pool(xt)
        with np.errstate(invalid="ignore"):     # the loss sums +inf and -inf
            grad = tape.backward(T.tsum(T.mul(out, constant(g))))[xt.handle]
        results.append((np.ascontiguousarray(out.data).tobytes(),
                         np.ascontiguousarray(grad).tobytes()))
    assert results[0] == results[1]


def test_global_avg_pool_gradient_equals_c_order_broadcast_bitwise():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((9, 4, 2, 6)).astype(np.float32)
    w = rng.standard_normal((5, 4, 3, 3)).astype(np.float32)
    g = rng.standard_normal((9, 5)).astype(np.float32)
    grads = []
    for pool in (T.global_avg_pool, reference_global_avg_pool):
        tape = Tape()
        xt = tape.leaf(x, requires_grad=True)
        h = T.relu(T.conv2d(xt, constant(w)))     # batch-last, as in the encoder
        grads.append(tape.backward(T.tsum(T.mul(pool(h), constant(g))))[xt.handle].tobytes())
    assert grads[0] == grads[1]
