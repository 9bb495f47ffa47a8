"""From-scratch net: hand-checked layers, finite-difference oracles, SGD."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ttn import nn
from ttn.errors import NonFiniteInput, ShapeMismatch, UnknownLayer


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
    out, cache = nn.forward(spec, [None, None], x)
    grad = np.arange(1.0, out.size + 1).reshape(out.shape)
    grad[0, -1] = -0.0
    _, layer_caches = cache
    dx = nn._pool_backward(grad.reshape(layer_caches[0][0].shape), spec.layers[0], layer_caches[0][1])
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
    logits, cache = nn.forward(spec, params, x)
    outs = nn.layer_outputs(cache)
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


def test_softmax_ce_hand_value():
    loss, grad = nn.softmax_cross_entropy(np.zeros((1, 2)), np.array([[1.0, 0.0]]))
    assert loss == pytest.approx(math.log(2), rel=1e-12)
    np.testing.assert_allclose(grad, [[-0.5, 0.5]], rtol=1e-12)  # (softmax - t) / B, B = 1


def test_softmax_ce_shift_invariant():
    logits = np.array([[1.0, 2.0, 3.0]])
    targets = np.array([[0.0, 1.0, 0.0]])
    a, ga = nn.softmax_cross_entropy(logits, targets)
    b, gb = nn.softmax_cross_entropy(logits + 1000.0, targets)
    assert a == pytest.approx(b, rel=1e-9)
    np.testing.assert_allclose(ga, gb, atol=1e-12)


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
    assert nn.gradient_check(spec, params, batch, targets) < 1e-4


def test_gradient_check_all_params_softmax():
    spec = _small_spec()
    params = nn.init_params(spec, seed=8)
    rng = np.random.default_rng(6)
    batch = rng.random((2, 1, 6, 6))
    targets = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    assert nn.gradient_check(spec, params, batch, targets, loss="softmax") < 1e-4


def test_gradient_check_strided_conv_and_overlapping_pool():
    spec = nn.NetSpec(
        in_shape=(2, 7, 7),
        layers=(nn.Conv2d(2, 3, stride=2, pad=1), nn.Relu(), nn.MaxPool2d(2, stride=1), nn.Flatten(), nn.Dense(2)),
    )
    params = nn.init_params(spec, seed=4)
    rng = np.random.default_rng(7)
    batch = rng.random((2, 2, 7, 7))
    targets = rng.random((2, 2))
    assert nn.gradient_check(spec, params, batch, targets) < 1e-4


def test_duplicate_samples_average_gradients():
    spec = _small_spec()
    params = nn.init_params(spec, seed=0)
    rng = np.random.default_rng(1)
    x1, x2 = rng.random((1, 1, 6, 6)), rng.random((1, 1, 6, 6))
    t1, t2 = rng.random((1, 3)), rng.random((1, 3))

    def grads_of(batch, targets):
        logits, cache = nn.forward(spec, params, batch)
        _, gl = nn.sigmoid_cross_entropy(logits, targets)
        return nn.backward(spec, params, cache, gl)

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
    logits, cache = nn.forward(spec, params, x)
    targets = nn.sigmoid(logits)
    loss, gl = nn.sigmoid_cross_entropy(logits, targets)
    grads = nn.backward(spec, params, cache, gl)
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


def test_fine_tune_config_defaults():
    cfg = nn.fine_tune_config()
    assert cfg.base_lr == pytest.approx(1e-4)
    assert cfg.lr_step == 30_000
    assert nn.learning_rate(cfg, 30_000) == pytest.approx(1e-5)


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
        logits, cache = nn.forward(spec, params, x)
        loss, gl = nn.sigmoid_cross_entropy(logits, t)
        losses.append(loss)
        nn.sgd_step(params, nn.backward(spec, params, cache, gl), cfg, it)
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
    # fan_in = input width. Checkpoints and training runs depend on these bits.
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
        assert got.tobytes() == want.tobytes()


def test_init_deterministic_per_seed():
    spec = nn.tiny_topic_net(6)
    assert nn.params_equal(nn.init_params(spec, seed=5), nn.init_params(spec, seed=5))
    assert not nn.params_equal(nn.init_params(spec, seed=5), nn.init_params(spec, seed=6))


def test_init_respects_dtype():
    spec = nn.NetSpec(in_shape=(1, 1, 4), layers=(nn.Flatten(), nn.Dense(2)))
    params = nn.init_params(spec, seed=0, dtype=np.float32)
    assert params[1].weight.dtype == np.float32
    assert params[1].weight_momentum.dtype == np.float32
