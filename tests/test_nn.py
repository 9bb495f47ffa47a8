"""From-scratch net: hand-checked layers, finite-difference oracles, SGD."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from gradcheck import gradient_check
from ttn import nn
from ttn.errors import NonFiniteInput, ShapeMismatch, TapeMismatch, UnknownLayer


def _manual_params(spec, tensors):
    """Params list with given (weight, bias) pairs for parameterized layers."""
    params = []
    it = iter(tensors)
    for layer in spec.layers:
        if isinstance(layer, (nn.Conv2d, nn.Dense)):
            w, b = next(it)
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            params.append(nn.LayerParams(w, b, np.zeros_like(w), np.zeros_like(b)))
        else:
            params.append(None)
    return params


# ------------------------------------------------------------------- forward

def test_conv_hand_example():
    # 3x3 input, 2x2 kernel of ones: each output is the sum of a 2x2 patch.
    spec = nn.NetSpec(in_shape=(1, 3, 3), layers=(nn.Conv2d(1, 2), nn.Flatten(), ))
    x = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
    params = _manual_params(spec, [(np.ones((1, 1, 2, 2)), np.zeros(1))])
    out, _ = nn.forward(spec, params, x)
    assert np.array_equal(out.reshape(2, 2), [[12.0, 16.0], [24.0, 28.0]])


def test_conv_bias_and_channels():
    # Two output channels: ones kernel and negated kernel, biases 0 and 1.
    spec = nn.NetSpec(in_shape=(1, 2, 2), layers=(nn.Conv2d(2, 2), nn.Flatten()))
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    w = np.stack([np.ones((1, 2, 2)), -np.ones((1, 2, 2))])
    params = _manual_params(spec, [(w, np.array([0.0, 1.0]))])
    out, _ = nn.forward(spec, params, x)
    assert np.array_equal(out, [[10.0, -9.0]])


def test_conv_padding_and_stride_shapes():
    spec = nn.tiny_topic_net(5, in_shape=(3, 32, 32))
    names = spec.layer_names()
    shapes = dict(zip(names, spec.shapes()))
    assert names == ["conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "flatten1", "fc1", "relu3", "fc2"]
    assert shapes["conv1"] == (16, 32, 32)
    assert shapes["pool1"] == (16, 16, 16)
    assert shapes["conv2"] == (32, 16, 16)
    assert shapes["pool2"] == (32, 8, 8)
    assert shapes["flatten1"] == (32 * 8 * 8,)
    assert shapes["fc1"] == (128,)
    assert shapes["fc2"] == (5,)
    assert spec.out_dim == 5


def test_pool_hand_example():
    spec = nn.NetSpec(in_shape=(1, 4, 4), layers=(nn.MaxPool2d(2), nn.Flatten()))
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    out, _ = nn.forward(spec, [None, None], x)
    assert np.array_equal(out.reshape(2, 2), [[5.0, 7.0], [13.0, 15.0]])


def test_pool_overlapping_stride():
    spec = nn.NetSpec(in_shape=(1, 3, 3), layers=(nn.MaxPool2d(2, stride=1), nn.Flatten()))
    x = np.arange(9.0).reshape(1, 1, 3, 3)
    out, _ = nn.forward(spec, [None, None], x)
    assert np.array_equal(out.reshape(2, 2), [[4.0, 5.0], [7.0, 8.0]])


@pytest.mark.parametrize("stride", [0, 3, 1], ids=["tiled", "gapped", "overlapping"])
def test_pool_backward_routes_to_first_max(stride):
    # Ties resolve to the first position in row-major window order, and an
    # input that wins several overlapping windows collects all their gradients.
    spec = nn.NetSpec(in_shape=(1, 5, 5), layers=(nn.MaxPool2d(2, stride=stride), nn.Flatten()))
    x = np.zeros((1, 1, 5, 5))
    x[0, 0, 1, 1] = 1.0
    out, _ = nn.forward(spec, [None, None], x)
    grad = np.arange(1.0, out.size + 1).reshape(out.shape)
    grad[0, -1] = -0.0
    pooled, local = nn.layer_forward(spec.layers[0], None, x)
    dx = nn._pool_backward(grad.reshape(pooled.shape), spec.layers[0], local)
    want = np.zeros((5, 5))
    step = spec.layers[0].step
    n_out = (5 - 2) // step + 1
    for oi in range(n_out):
        for oj in range(n_out):
            window = x[0, 0, oi * step : oi * step + 2, oj * step : oj * step + 2]
            di, dj = divmod(int(window.argmax()), 2)
            want[oi * step + di, oj * step + dj] += grad[0, oi * n_out + oj]
    assert dx[0, 0].tobytes() == want.tobytes()


def test_relu_and_dense():
    spec = nn.NetSpec(in_shape=(1, 1, 2), layers=(nn.Flatten(), nn.Relu(), nn.Dense(1)))
    params = _manual_params(spec, [(np.array([[2.0, -1.0]]), np.array([0.5]))])
    out, _ = nn.forward(spec, params, np.array([-3.0, 4.0]).reshape(1, 1, 1, 2))
    # relu -> [0, 4]; dense -> 2*0 + (-1)*4 + 0.5
    assert np.array_equal(out, [[-3.5]])


def test_forward_rejects_wrong_shape():
    spec = nn.tiny_topic_net(3)
    params = nn.init_params(spec, seed=0)
    with pytest.raises(ShapeMismatch):
        nn.forward(spec, params, np.zeros((1, 3, 16, 16)))


def test_spec_rejects_oversized_kernel():
    with pytest.raises(ShapeMismatch):
        nn.NetSpec(in_shape=(1, 2, 2), layers=(nn.Conv2d(1, 5), nn.Flatten())).shapes()


@pytest.mark.parametrize(
    "in_shape, layer",
    [
        ((1, 4, 4), nn.Conv2d(1, 3, stride=0)),
        ((1, 4, 4), nn.Conv2d(1, 0)),
        ((1, 4, 4), nn.Conv2d(0, 3)),
        ((1, 4, 4), nn.Conv2d(1, 3, pad=-1)),
        ((1, 4, 4), nn.MaxPool2d(0)),
        ((1, 4, 4), nn.MaxPool2d(2, stride=-1)),
        ((0, 4, 4), nn.Relu()),
        ((1, 4, 4), nn.Dense(0)),
    ],
)
def test_spec_rejects_nonpositive_sizes(in_shape, layer):
    # A zero stride or window would otherwise divide by zero in shapes().
    layers = (nn.Flatten(), layer) if isinstance(layer, nn.Dense) else (layer, nn.Flatten())
    with pytest.raises(ShapeMismatch):
        nn.NetSpec(in_shape=in_shape, layers=layers)


def test_param_shapes_tiny_net():
    spec = nn.tiny_topic_net(5, in_shape=(3, 16, 16))
    conv1, conv2, fc1, fc2 = [s for s in nn.param_shapes(spec) if s is not None]
    assert conv1 == ((16, 3, 3, 3), (16,))
    assert conv2 == ((32, 16, 3, 3), (32,))
    assert fc1 == ((128, 32 * 4 * 4), (128,))
    assert fc2 == ((5, 128), (5,))
    for shapes, p in zip(nn.param_shapes(spec), nn.init_params(spec, seed=0)):
        assert (shapes is None) == (p is None)
        if p is not None:
            assert (p.weight.shape, p.bias.shape) == shapes


def test_layer_outputs_and_aliases():
    spec = nn.tiny_topic_net(4)
    params = nn.init_params(spec, seed=1)
    x = np.random.default_rng(0).random((2, 3, 32, 32))
    logits, _ = nn.forward(spec, params, x)
    outs, _ = _layer_outputs(spec, params, x)
    assert outs[spec.resolve_layer("pool5")].shape == (2, 32, 8, 8)
    assert outs[spec.resolve_layer("fc7")].shape == (2, 128)
    assert np.array_equal(outs[spec.resolve_layer("fc2")], logits)
    with pytest.raises(UnknownLayer):
        spec.resolve_layer("conv9")


def test_spec_dict_roundtrip():
    spec = nn.tiny_topic_net(7, in_shape=(3, 40, 40))
    assert nn.NetSpec.from_dict(spec.to_dict()) == spec


# -------------------------------------------------------------------- losses

def test_sigmoid_stable_at_extremes():
    out = nn.sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[1] == 0.5 and out[2] == 1.0


def test_sigmoid_ce_hand_value():
    # x = 0, t = 0.5, two logits: loss = 2 * log 2, grad = 0.
    logits = np.zeros((1, 2))
    targets = np.full((1, 2), 0.5)
    loss, grad = nn.sigmoid_cross_entropy(logits, targets)
    assert loss == pytest.approx(2 * math.log(2), rel=1e-12)
    assert np.array_equal(grad, np.zeros((1, 2)))


def test_sigmoid_ce_batch_mean():
    logits = np.array([[1.0], [1.0]])
    targets = np.array([[1.0], [0.0]])
    loss, grad = nn.sigmoid_cross_entropy(logits, targets)
    per = [math.log(1 + math.exp(-1)), 1 + math.log(1 + math.exp(-1))]
    assert loss == pytest.approx(sum(per) / 2, rel=1e-12)
    s = 1 / (1 + math.exp(-1))
    np.testing.assert_allclose(grad, [[(s - 1) / 2], [s / 2]], rtol=1e-12)


def test_sigmoid_ce_extreme_logits_finite():
    logits = np.array([[800.0, -800.0]])
    targets = np.array([[0.0, 1.0]])
    loss, grad = nn.sigmoid_cross_entropy(logits, targets)
    assert math.isfinite(loss) and loss == pytest.approx(1600.0)
    assert np.all(np.isfinite(grad))


def test_sigmoid_ce_minimized_at_logit_of_target():
    t = 0.3
    x_star = math.log(t / (1 - t))
    best, _ = nn.sigmoid_cross_entropy(np.array([[x_star]]), np.array([[t]]))
    for dx in (-0.1, 0.1):
        worse, _ = nn.sigmoid_cross_entropy(np.array([[x_star + dx]]), np.array([[t]]))
        assert worse > best


def test_sigmoid_ce_validation():
    with pytest.raises(ShapeMismatch):
        nn.sigmoid_cross_entropy(np.zeros((1, 2)), np.zeros((1, 3)))
    with pytest.raises(NonFiniteInput):
        nn.sigmoid_cross_entropy(np.array([[np.nan]]), np.array([[0.5]]))
    with pytest.raises(ValueError):
        nn.sigmoid_cross_entropy(np.zeros((1, 1)), np.array([[1.5]]))


# ----------------------------------------------------------------- gradients

def _small_spec():
    return nn.NetSpec(
        in_shape=(1, 6, 6),
        layers=(
            nn.Conv2d(2, 3, pad=1),
            nn.Relu(),
            nn.MaxPool2d(2),
            nn.Conv2d(3, 2),
            nn.Relu(),
            nn.Flatten(),
            nn.Dense(3),
        ),
    )


def test_gradient_check_all_params_sigmoid():
    spec = _small_spec()
    params = nn.init_params(spec, seed=3)
    rng = np.random.default_rng(5)
    batch = rng.random((3, 1, 6, 6))
    targets = rng.random((3, 3))
    before = nn.copy_params(params)
    # The check runs on float64 copies; the float32 params stay as they were.
    assert gradient_check(spec, params, batch.astype(np.float32), targets) < 1e-4
    assert params[0].weight.dtype == np.float32
    assert nn.params_equal(params, before)


def test_gradient_check_strided_conv_and_overlapping_pool():
    spec = nn.NetSpec(
        in_shape=(2, 7, 7),
        layers=(nn.Conv2d(2, 3, stride=2, pad=1), nn.Relu(), nn.MaxPool2d(2, stride=1), nn.Flatten(), nn.Dense(2)),
    )
    params = nn.init_params(spec, seed=4)
    rng = np.random.default_rng(7)
    batch = rng.random((2, 2, 7, 7))
    targets = rng.random((2, 2))
    assert gradient_check(spec, params, batch, targets) < 1e-4


def test_duplicate_samples_average_gradients():
    spec = _small_spec()
    params = nn.init_params(spec, seed=0)
    rng = np.random.default_rng(1)
    x1, x2 = rng.random((1, 1, 6, 6)), rng.random((1, 1, 6, 6))
    t1, t2 = rng.random((1, 3)), rng.random((1, 3))

    def grads_of(batch, targets):
        logits, tape = nn.forward(spec, params, batch)
        _, gl = nn.sigmoid_cross_entropy(logits, targets)
        return nn.backward(spec, params, tape, gl)

    g_batch = grads_of(np.concatenate([x1, x2, x1]), np.concatenate([t1, t2, t1]))
    g1 = grads_of(x1, t1)
    g2 = grads_of(x2, t2)
    for gb, ga, gc in zip(g_batch, g1, g2):
        if gb is None:
            continue
        np.testing.assert_allclose(gb[0], (2 * ga[0] + gc[0]) / 3.0, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(gb[1], (2 * ga[1] + gc[1]) / 3.0, rtol=1e-10, atol=1e-12)


def test_gradient_zero_at_stationary_point():
    # With sigmoid(logits) == targets the loss gradient vanishes everywhere.
    spec = nn.NetSpec(in_shape=(1, 1, 4), layers=(nn.Flatten(), nn.Dense(2)))
    params = nn.init_params(spec, seed=2)
    x = np.random.default_rng(3).random((2, 1, 1, 4))
    logits, tape = nn.forward(spec, params, x)
    targets = nn.sigmoid(logits)
    loss, gl = nn.sigmoid_cross_entropy(logits, targets)
    grads = nn.backward(spec, params, tape, gl)
    np.testing.assert_allclose(grads[1][0], 0.0, atol=1e-15)
    np.testing.assert_allclose(grads[1][1], 0.0, atol=1e-15)


# ----------------------------------------------------------------- optimizer

def test_learning_rate_schedule_pins():
    cfg = nn.SgdConfig()
    assert cfg.base_lr == 0.001
    assert cfg.momentum == 0.9
    assert cfg.batch_size == 64
    assert cfg.max_iters == 120_000
    assert nn.learning_rate(cfg, 0) == pytest.approx(0.001)
    assert nn.learning_rate(cfg, 49_999) == pytest.approx(0.001)
    assert nn.learning_rate(cfg, 50_000) == pytest.approx(1e-4)
    assert nn.learning_rate(cfg, 99_999) == pytest.approx(1e-4)
    assert nn.learning_rate(cfg, 100_000) == pytest.approx(1e-5)


def test_momentum_hand_steps():
    spec = nn.NetSpec(in_shape=(1, 1, 1), layers=(nn.Flatten(), nn.Dense(1)))
    params = _manual_params(spec, [(np.array([[0.0]]), np.array([0.0]))])
    cfg = nn.SgdConfig(base_lr=0.1, lr_decay=1.0, lr_step=10, momentum=0.9, batch_size=1, max_iters=10)
    g = [None, (np.array([[1.0]]), np.array([0.0]))]
    nn.sgd_step(params, g, cfg, 0)
    assert params[1].weight[0, 0] == pytest.approx(-0.1)
    nn.sgd_step(params, g, cfg, 1)
    # v = 0.9 * (-0.1) - 0.1 = -0.19; w = -0.1 - 0.19 = -0.29
    assert params[1].weight[0, 0] == pytest.approx(-0.29)
    assert params[1].weight_momentum[0, 0] == pytest.approx(-0.19)


def test_zero_gradient_keeps_params_only_under_zero_momentum():
    spec = nn.NetSpec(in_shape=(1, 1, 2), layers=(nn.Flatten(), nn.Dense(1)))
    params = nn.init_params(spec, seed=0)
    before = nn.copy_params(params)
    zero = [None, (np.zeros((1, 2)), np.zeros(1))]
    nn.sgd_step(params, zero, nn.SgdConfig(), 0)
    assert nn.params_equal(params, before)  # fresh momentum is zero too


def test_full_batch_descent_monotone():
    spec = nn.NetSpec(
        in_shape=(1, 1, 3), layers=(nn.Flatten(), nn.Dense(4), nn.Relu(), nn.Dense(2))
    )
    params = nn.init_params(spec, seed=6)
    rng = np.random.default_rng(9)
    x = rng.random((8, 1, 1, 3))
    t = rng.random((8, 2))
    cfg = nn.SgdConfig(base_lr=0.05, lr_decay=1.0, lr_step=1000, momentum=0.0, batch_size=8, max_iters=1000)
    losses = []
    for it in range(40):
        logits, tape = nn.forward(spec, params, x)
        loss, gl = nn.sigmoid_cross_entropy(logits, t)
        losses.append(loss)
        nn.sgd_step(params, nn.backward(spec, params, tape, gl), cfg, it)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_sgd_config_validation():
    with pytest.raises(ValueError):
        nn.SgdConfig(base_lr=0.0)
    with pytest.raises(ValueError):
        nn.SgdConfig(momentum=1.0)
    with pytest.raises(ValueError):
        nn.SgdConfig(batch_size=0)
    with pytest.raises(ValueError):
        nn.SgdConfig(lr_decay=0.0)


# ---------------------------------------------------------------------- init

def test_init_he_uniform_statistics():
    spec = nn.tiny_topic_net(10)
    params = nn.init_params(spec, seed=0)
    for layer, p in zip(spec.layers, params):
        if p is None:
            continue
        if isinstance(layer, nn.Conv2d):
            fan_in = p.weight.shape[1] * layer.kernel * layer.kernel
        else:
            fan_in = p.weight.shape[1]
        limit = math.sqrt(6.0 / fan_in)
        assert np.abs(p.weight).max() <= limit
        expected_std = math.sqrt(2.0 / fan_in)
        assert abs(p.weight.std() - expected_std) / expected_std < 0.2
        assert np.array_equal(p.bias, np.zeros_like(p.bias))
        assert np.array_equal(p.weight_momentum, np.zeros_like(p.weight))


def test_init_matches_per_layer_reference_draws():
    # Reference: one generator, layers in order, conv fan_in = C*k*k, dense
    # fan_in = input width, float64 draws rounded to the net's float32.
    # Checkpoints and training runs depend on these bits.
    spec = nn.NetSpec(
        in_shape=(2, 9, 9),
        layers=(nn.Conv2d(4, 5, stride=2, pad=2), nn.Relu(), nn.Flatten(), nn.Dense(7), nn.Dense(3)),
    )
    rng = np.random.default_rng(11)
    limit = math.sqrt(6.0 / (2 * 5 * 5))
    conv_w = rng.uniform(-limit, limit, size=(4, 2, 5, 5))
    limit = math.sqrt(6.0 / (4 * 5 * 5))
    dense1_w = rng.uniform(-limit, limit, size=(7, 100))
    limit = math.sqrt(6.0 / 7)
    dense2_w = rng.uniform(-limit, limit, size=(3, 7))
    params = nn.init_params(spec, seed=11)
    weights = [p.weight for p in params if p is not None]
    for got, want in zip(weights, (conv_w, dense1_w, dense2_w)):
        assert got.tobytes() == want.astype(np.float32).tobytes()


def test_init_deterministic_per_seed():
    spec = nn.tiny_topic_net(6)
    assert nn.params_equal(nn.init_params(spec, seed=5), nn.init_params(spec, seed=5))
    assert not nn.params_equal(nn.init_params(spec, seed=5), nn.init_params(spec, seed=6))


# -------------------------------------------------------- kernel equivalence
# The reference is the earlier kernel: a per-image (B, OH*OW, C*k*k) im2col
# convolution and a pool that caches each window's argmax. The channel-major
# GEMMs and the plain-max pool must reproduce it bit for bit, with the
# reference's conv weight and bias gradients summed over positions in the
# kernel's (row, col, image) order.


def _ref_im2col(x, kernel, stride):
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    b, c, oh, ow = windows.shape[:4]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, oh * ow, c * kernel * kernel)
    return np.ascontiguousarray(cols), oh, ow


def _ref_conv_forward(x, layer, w, bias):
    if layer.pad:
        x = np.pad(x, ((0, 0), (0, 0), (layer.pad, layer.pad), (layer.pad, layer.pad)))
    cols, oh, ow = _ref_im2col(x, layer.kernel, layer.stride)
    out = cols @ w.reshape(layer.out_channels, -1).T + bias
    out = out.transpose(0, 2, 1).reshape(x.shape[0], layer.out_channels, oh, ow)
    return out, (cols, x.shape, oh, ow)


def _ref_conv_backward(grad, layer, w, cache):
    """The input gradient and the weight and bias gradients, these summed
    over positions in (row, col, image) order, as the kernel sums them, and
    again in the earlier kernel's (image, row, col) order."""
    cols, padded_shape, oh, ow = cache
    b = grad.shape[0]
    g = grad.reshape(b, layer.out_channels, oh * ow)
    w_flat = w.reshape(layer.out_channels, -1)
    g_rci = np.ascontiguousarray(grad.transpose(1, 2, 3, 0)).reshape(layer.out_channels, -1)
    cols_rci = np.ascontiguousarray(cols.transpose(1, 0, 2)).reshape(-1, cols.shape[2])
    grads = ((g_rci @ cols_rci).reshape(w.shape), g_rci.sum(axis=1))
    g_irc = np.ascontiguousarray(g.transpose(1, 0, 2)).reshape(layer.out_channels, -1)
    irc_grads = ((g_irc @ cols.reshape(-1, cols.shape[2])).reshape(w.shape), grad.sum(axis=(0, 2, 3)))
    k, s = layer.kernel, layer.stride
    dpatches = (w_flat.T @ g).reshape(b, padded_shape[1], k, k, oh, ow)
    dx = np.zeros(padded_shape, dtype=grad.dtype)
    for i in range(k):
        for j in range(k):
            dx[:, :, i : i + s * oh : s, j : j + s * ow : s] += dpatches[:, :, i, j]
    if layer.pad:
        p = layer.pad
        dx = dx[:, :, p:-p, p:-p]
    return dx, grads, irc_grads


def _ref_pool_forward(x, layer):
    w, s = layer.window, layer.step
    windows = np.lib.stride_tricks.sliding_window_view(x, (w, w), axis=(2, 3))[:, :, ::s, ::s]
    b, c, oh, ow = windows.shape[:4]
    flat = windows.reshape(b, c, oh, ow, w * w)
    arg = flat.argmax(axis=4)
    out = np.take_along_axis(flat, arg[..., None], axis=4)[..., 0]
    return out, (x.shape, arg, oh, ow)


def _ref_pool_backward(grad, layer, cache):
    x_shape, arg, oh, ow = cache
    w, s = layer.window, layer.step
    dx = np.zeros(x_shape, dtype=grad.dtype)
    for di in range(w):
        for dj in range(w):
            dx[:, :, di : di + s * oh : s, dj : dj + s * ow : s] += np.where(arg == di * w + dj, grad, 0.0)
    return dx


def _ref_outputs_and_grads(spec, params, batch, grad_logits):
    """Every layer output and every parameter gradient of the reference
    kernel, and per layer the conv gradients summed in (image, row, col)
    order (None for other layers)."""
    x, outputs, locals_ = batch, [], []
    for layer, p in zip(spec.layers, params):
        if isinstance(layer, nn.Conv2d):
            x, local = _ref_conv_forward(x, layer, p.weight, p.bias)
        elif isinstance(layer, nn.Relu):
            local = x > 0
            x = x * local
        elif isinstance(layer, nn.MaxPool2d):
            x, local = _ref_pool_forward(x, layer)
        elif isinstance(layer, nn.Flatten):
            local = x.shape
            x = x.reshape(x.shape[0], -1)
        else:
            local = x
            x = x @ p.weight.T + p.bias
        outputs.append(x)
        locals_.append(local)
    grads = [None] * len(spec.layers)
    irc_grads = [None] * len(spec.layers)
    g = grad_logits
    for i in range(len(spec.layers) - 1, -1, -1):
        layer, local = spec.layers[i], locals_[i]
        if isinstance(layer, nn.Dense):
            grads[i] = (g.T @ local, g.sum(axis=0))
            g = g @ params[i].weight
        elif isinstance(layer, nn.Flatten):
            g = g.reshape(local)
        elif isinstance(layer, nn.Relu):
            g = g * local
        elif isinstance(layer, nn.MaxPool2d):
            g = _ref_pool_backward(g, layer, local)
        else:
            g, grads[i], irc_grads[i] = _ref_conv_backward(g, layer, params[i].weight, local)
    return outputs, grads, irc_grads


def _bits(a):
    return (a.shape, a.dtype, np.ascontiguousarray(a).tobytes())


def _layer_outputs(spec, params, batch):
    """A copy of every layer's output, and every layer's backward data, from
    a layer_forward loop. Each output is copied before a relu after it can
    overwrite it; none of these nets starts with a relu, so the batch keeps
    its memory order and is never written."""
    x, outputs, locals_ = batch, [], []
    for layer, p in zip(spec.layers, params):
        x, local = nn.layer_forward(layer, p, x)
        outputs.append(x.copy(order="K"))
        locals_.append(local)
    return outputs, locals_


def _post_relu_ties(rng, shape):
    # Mostly negative, so many windows are all negative; relu turns those
    # into -0.0 and the exact zeros into 0.0, and 1.0 repeats within windows.
    return rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0], size=shape, p=[0.3, 0.3, 0.1, 0.2, 0.1])


# Sizes are those the net runs at (batch 64 for training, 10 for the crops
# of predict_topics). Below about 1e6 multiply-adds OpenBLAS hands a GEMM to
# small-matrix kernels whose summation order depends on operand layout, so a
# tiny conv layer's weight gradient may differ in the last bit from the
# reference (see test_small_gemm_within_rounding_of_reference).
EQUIVALENCE_CASES = {
    "tiny-32-b64": (nn.tiny_topic_net(3), 64, "uniform"),
    "tiny-32-b10": (nn.tiny_topic_net(3), 10, "uniform"),
    "tiny-40-b10": (nn.tiny_topic_net(4, in_shape=(3, 40, 40)), 10, "uniform"),
    "stride2-conv-gapped-pool": (
        nn.NetSpec(
            in_shape=(3, 40, 40),
            layers=(nn.Conv2d(16, 3, stride=2, pad=1), nn.Relu(), nn.MaxPool2d(2, stride=3),
                    nn.Flatten(), nn.Dense(5)),
        ),
        10,
        "normal",
    ),
    "overlapping-pool": (
        nn.NetSpec(
            in_shape=(3, 32, 32),
            layers=(nn.Conv2d(16, 3, pad=1), nn.Relu(), nn.MaxPool2d(3, stride=2), nn.Conv2d(8, 3),
                    nn.Relu(), nn.MaxPool2d(2), nn.Flatten(), nn.Dense(3)),
        ),
        10,
        "normal",
    ),
    "post-relu-ties": (nn.tiny_topic_net(3), 64, "ties"),
}


def _equivalence_inputs(case, dtype):
    """(spec, params, C-ordered batch, logit gradient) of an equivalence case."""
    spec, batch_size, inputs = EQUIVALENCE_CASES[case]
    params = [
        None if p is None else nn.LayerParams(*(t.astype(dtype) for t in astuple(p)))
        for p in nn.init_params(spec, seed=2)
    ]
    rng = np.random.default_rng(4)
    shape = (batch_size,) + spec.in_shape
    batch = {
        "uniform": lambda: rng.random(shape),
        "normal": lambda: rng.standard_normal(shape),
        "ties": lambda: _post_relu_ties(rng, shape),
    }[inputs]().astype(dtype)
    if inputs == "ties":
        # Every other conv1 channel is negative throughout, so each of its
        # pool1 windows is a tie of -0.0 after relu1.
        params[0].bias[::2] = -100.0
    grad_logits = rng.standard_normal((batch_size, spec.out_dim)).astype(dtype)
    return spec, params, batch, grad_logits


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_kernel_bit_identical_to_im2col_argmax_reference(case, dtype):
    spec, params, batch, grad_logits = _equivalence_inputs(case, dtype)
    logits, tape = nn.forward(spec, params, batch)
    grads = nn.backward(spec, params, tape, grad_logits)
    want_outputs, want_grads, irc_grads = _ref_outputs_and_grads(spec, params, batch, grad_logits)
    for name, got, want in zip(spec.layer_names(), _layer_outputs(spec, params, batch)[0], want_outputs):
        assert _bits(got) == _bits(want), name
    for name, got, want in zip(spec.layer_names(), grads, want_grads):
        if want is not None:
            assert _bits(got[0]) == _bits(want[0]), f"{name} weight"
            assert _bits(got[1]) == _bits(want[1]), f"{name} bias"
    # The conv gradients' sums over positions run in (row, col, image)
    # order; the earlier kernel's (image, row, col) order agrees to rounding,
    # relative to the tensor's largest entry (entries that cancel to near
    # zero keep an absolute error of that size). Measured: 5.1e-7 in
    # float32, 1.0e-15 in float64.
    rtol = {np.float32: 1e-5, np.float64: 1e-12}[dtype]
    for name, got, want in zip(spec.layer_names(), grads, irc_grads):
        if want is not None:
            for part, g, w in zip(("weight", "bias"), got, want):
                atol = rtol * np.abs(w).max()
                np.testing.assert_allclose(g, w, rtol=0, atol=atol, err_msg=f"{name} {part}")


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_batch_memory_layout_stays_hidden(case, dtype):
    # The kernels keep activations in (C, H, W, B) memory behind
    # (B, C, H, W)-shaped views. Whatever memory the batch is in, every
    # layer output, input gradient and parameter gradient has the same bits.
    spec, params, batch, grad_logits = _equivalence_inputs(case, dtype)
    forms = {
        "C-ordered": batch,
        "batch-innermost": np.ascontiguousarray(batch.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2),
        "mirrored": np.ascontiguousarray(batch[..., ::-1])[..., ::-1],
    }
    seen = {}
    for form, x in forms.items():
        assert np.array_equal(x, batch)
        outputs, locals_ = _layer_outputs(spec, params, x)
        for name, out in zip(spec.layer_names(), outputs):
            if out.ndim == 4:  # conv, relu and pool outputs
                assert out.transpose(1, 2, 3, 0).flags.c_contiguous, f"{form} {name}"
        g, input_grads, param_grads = grad_logits, [], []
        for i in range(len(spec.layers) - 1, -1, -1):
            g, pg = nn.layer_backward(spec.layers[i], params[i], locals_[i], g)
            input_grads.append(g)
            param_grads.extend(() if pg is None else pg)
        seen[form] = [_bits(a) for a in outputs + input_grads + param_grads]
    assert seen["batch-innermost"] == seen["C-ordered"]
    assert seen["mirrored"] == seen["C-ordered"]


POOL_CASES = {"tiled": (2, 0), "gapped": (2, 3), "overlapping": (3, 2), "stride-1": (3, 1)}


@pytest.mark.parametrize(
    "window, stride, dtype",
    [(w, s, dtype) for dtype in (np.float64, np.float32) for w, s in POOL_CASES.values()],
    ids=list(POOL_CASES) + [f"{c}-float32" for c in POOL_CASES],
)
def test_pool_bit_identical_to_argmax_reference_on_ties(window, stride, dtype):
    # 11 is no multiple of the tiled window, so some inputs lie in no window.
    layer = nn.MaxPool2d(window, stride=stride)
    rng = np.random.default_rng(8)
    x = _post_relu_ties(rng, (6, 3, 11, 11)).astype(dtype)
    x = x * (x > 0)  # -0.0 wherever the input was not positive
    out, cache = nn._pool_forward(x, layer)
    want, ref_cache = _ref_pool_forward(x, layer)
    assert _bits(out) == _bits(want)
    grad = rng.choice([-1.5, -0.0, 0.0, 2.0], size=out.shape).astype(dtype)
    assert _bits(nn._pool_backward(grad, layer, cache)) == _bits(_ref_pool_backward(grad, layer, ref_cache))


def test_small_gemm_within_rounding_of_reference():
    # A net this small sends its GEMMs to OpenBLAS's small-matrix kernels,
    # where the channel-major layout may sum in another order: the results
    # agree to rounding, not necessarily to the bit.
    spec = _small_spec()
    params = nn.init_params(spec, seed=3)
    rng = np.random.default_rng(5)
    batch = rng.standard_normal((3, 1, 6, 6))
    grad_logits = rng.standard_normal((3, 3))
    logits, tape = nn.forward(spec, params, batch)
    grads = nn.backward(spec, params, tape, grad_logits)
    want_outputs, want_grads, _ = _ref_outputs_and_grads(spec, params, batch, grad_logits)
    for got, want in zip(_layer_outputs(spec, params, batch)[0], want_outputs):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
    for got, want in zip(grads, want_grads):
        if want is not None:
            np.testing.assert_allclose(got[0], want[0], rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(got[1], want[1], rtol=1e-13, atol=1e-15)


def test_backward_skips_first_layer_input_gradient_without_changing_grads(monkeypatch):
    spec = nn.tiny_topic_net(3)
    params = nn.init_params(spec, seed=6)
    rng = np.random.default_rng(6)
    batch = rng.random((8, 3, 32, 32), dtype=np.float32)
    logits, tape = nn.forward(spec, params, batch)
    grad_logits = rng.standard_normal(logits.shape, dtype=np.float32)
    skipped = nn.backward(spec, params, tape, grad_logits)

    conv_backward = nn._conv_backward
    asked = []

    def always_input_grad(grad, layer, w, layer_cache, input_grad=True):
        asked.append(input_grad)
        return conv_backward(grad, layer, w, layer_cache, input_grad=True)

    monkeypatch.setattr(nn, "_conv_backward", always_input_grad)
    computed = nn.backward(spec, params, nn.forward(spec, params, batch)[1], grad_logits)
    assert asked == [True, False]  # conv2 needs its input gradient, conv1 does not
    for a, b in zip(skipped, computed):
        if a is not None:
            assert _bits(a[0]) == _bits(b[0]) and _bits(a[1]) == _bits(b[1])


@pytest.mark.parametrize(
    "layers",
    [
        (nn.Relu(), nn.Flatten(), nn.Dense(2)),
        (nn.MaxPool2d(2), nn.Relu(), nn.Flatten(), nn.Relu(), nn.Dense(2)),
        (nn.Flatten(), nn.Relu(), nn.Dense(2)),
    ],
    ids=["relu-first", "relu-after-pool", "relu-after-flatten"],
)
def test_forward_relu_overwrites_neither_the_batch_nor_the_tape(layers):
    # A relu writes its output into the activation before it only where no
    # one else reads that: not the caller's batch, not a pool output on the
    # tape, not a flatten output (at batch 1, a view of its input).
    spec = nn.NetSpec(in_shape=(2, 4, 4), layers=layers)
    params = nn.init_params(spec, seed=1)
    rng = np.random.default_rng(2)
    batch = rng.standard_normal((1,) + spec.in_shape) - 1.0  # some pool windows all negative
    grad_logits = rng.standard_normal((1, spec.out_dim))
    before = batch.tobytes()
    want_outputs, want_grads, _ = _ref_outputs_and_grads(spec, params, batch, grad_logits)
    logits, tape = nn.forward(spec, params, batch)
    for layer, local, want in zip(spec.layers, tape, want_outputs):
        if isinstance(layer, nn.MaxPool2d):
            assert _bits(local[1]) == _bits(want)
    grads = nn.backward(spec, params, tape, grad_logits)
    assert batch.tobytes() == before
    np.testing.assert_allclose(logits, want_outputs[-1], rtol=1e-13, atol=1e-15)
    for got, want in zip(grads, want_grads):
        if want is not None:
            np.testing.assert_allclose(got[0], want[0], rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(got[1], want[1], rtol=1e-13, atol=1e-15)


def test_backward_consumes_its_tape():
    spec = _small_spec()
    params = nn.init_params(spec, seed=0)
    rng = np.random.default_rng(0)
    batch = rng.random((2,) + spec.in_shape)
    grad_logits = rng.standard_normal((2, spec.out_dim))
    _, tape = nn.forward(spec, params, batch)
    nn.backward(spec, params, tape, grad_logits)
    assert tape == []
    with pytest.raises(TapeMismatch, match="already consumed"):
        nn.backward(spec, params, tape, grad_logits)
    other = nn.NetSpec(in_shape=spec.in_shape, layers=(nn.Flatten(), nn.Dense(spec.out_dim)))
    _, other_tape = nn.forward(other, nn.init_params(other, seed=0), batch)
    with pytest.raises(TapeMismatch, match="2 entries for a 7-layer net"):
        nn.backward(spec, params, other_tape, grad_logits)


def test_train_step_memory_keeps_no_patch_matrix():
    # A conv layer keeps its padded input for backward and rebuilds the
    # patches there; the k*k-times-larger patch matrix of both conv layers
    # (16 MiB at batch 64 in float32) must not outlive its GEMM.
    spec = nn.tiny_topic_net(3)
    params = nn.init_params(spec, seed=0)
    rng = np.random.default_rng(0)
    batch_size = 64
    batch = rng.random((batch_size,) + spec.in_shape, dtype=np.float32)
    grad_logits = rng.standard_normal((batch_size, spec.out_dim), dtype=np.float32)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, tape = nn.forward(spec, params, batch)
        nn.backward(spec, params, tape, grad_logits)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    # Measured: 21.5 MiB (31.0 MiB when the forward kept every layer's output
    # and backward held them all until it returned).
    assert peak < 23 * 2**20, f"forward+backward peaked at {peak / 2**20:.1f} MiB"
    _, tape = nn.forward(spec, params, batch)
    for layer, local, in_shape in zip(spec.layers, tape, [spec.in_shape] + spec.shapes()[:-1]):
        if isinstance(layer, nn.Conv2d):
            c, h, w = in_shape
            padded = batch_size * c * (h + 2 * layer.pad) * (w + 2 * layer.pad) * batch.itemsize
            kept = [a for a in (local if isinstance(local, tuple) else (local,)) if isinstance(a, np.ndarray)]
            assert kept and max(a.nbytes for a in kept) <= padded


def _one_gemm_conv_forward(x, layer, w, bias):
    # The forward before it was sliced: one patch matrix and one GEMM for
    # the whole batch.
    k, s, p = layer.kernel, layer.stride, layer.pad
    b, c, h, wd = x.shape
    oh = (h + 2 * p - k) // s + 1
    ow = (wd + 2 * p - k) // s + 1
    xp = np.zeros((c, h + 2 * p, wd + 2 * p, b), dtype=x.dtype)
    xp[:, p : p + h, p : p + wd] = x.transpose(1, 2, 3, 0)
    out = w.reshape(layer.out_channels, -1) @ nn._patches(xp, layer, oh, ow)
    out += bias[:, None]
    return out.reshape(layer.out_channels, oh, ow, b).transpose(3, 0, 1, 2), xp


# (layer, input (C, H, W), batch): the stock net's conv1 and conv2, and a
# stride-2 conv, each at a batch whose output rows span at least three slices.
SLICED_CONV_CASES = {
    "conv1": (nn.Conv2d(16, 3, pad=1), (3, 32, 32), 80),
    "conv2": (nn.Conv2d(32, 3, pad=1), (16, 16, 16), 64),
    "stride2": (nn.Conv2d(32, 3, stride=2, pad=1), (16, 48, 48), 30),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("case", sorted(SLICED_CONV_CASES))
def test_sliced_conv_forward_equals_one_gemm(case, dtype):
    layer, (c, h, w), batch_size = SLICED_CONV_CASES[case]
    spec = nn.NetSpec(in_shape=(c, h, w), layers=(layer, nn.Flatten(), nn.Dense(2)))
    (oc, oh, ow), *_ = spec.shapes()
    rows_per_slice = nn._PATCH_BUDGET // (c * layer.kernel**2 * ow * batch_size)
    assert oh > 2 * rows_per_slice >= 2
    rng = np.random.default_rng(9)
    weight = rng.standard_normal((oc, c, layer.kernel, layer.kernel)).astype(dtype)
    bias = rng.standard_normal(oc).astype(dtype)
    x = rng.standard_normal((batch_size, c, h, w)).astype(dtype)
    out, xp = nn._conv_forward(x, layer, weight, bias)
    want_out, want_xp = _one_gemm_conv_forward(x, layer, weight, bias)
    assert _bits(out) == _bits(want_out)
    assert _bits(xp) == _bits(want_xp)


def test_forward_peaks_near_the_cache_it_returns():
    # The forward keeps only its backward tape (11.7 MiB at batch 64 in
    # float32) and builds each conv's patch matrix a slice at a time. It
    # peaked at 14.05 MiB, in conv2, one slice's patches above the tape.
    # Keeping every layer's output as well peaked at 18.1 MiB, and one patch
    # matrix for the whole batch 5.4 MiB above that.
    spec = nn.tiny_topic_net(3)
    params = nn.init_params(spec, seed=0)
    batch = np.random.default_rng(0).random((64,) + spec.in_shape, dtype=np.float32)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        logits, tape = nn.forward(spec, params, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    assert peak - base <= 15 * 2**20, f"forward peaked at {(peak - base) / 2**20:.2f} MiB"
