"""Minimal dense-tensor CNN kernels: layers, sigmoid cross-entropy, SGD with momentum.

Everything is plain numpy. Conv, relu and pool activations live in
(C, H, W, B) memory, images innermost as in cuda-convnet; callers see
(B, C, H, W)-shaped transposed views of it, and may hand forward a batch in
any memory order. The first conv's zero-padded copy of its input is where a
batch is converted, so a spatial shift of any later activation moves
contiguous runs of W*B elements. Convolution builds its patches
channel-major, as a (C*k*k, OH*OW*B) matrix of k*k strided copies of the
padded input. Forward builds it for slices of whole output rows, at most
_PATCH_BUDGET elements each, and each slice's GEMM writes its columns of
one (OC, OH*OW*B) output, bit for bit what one GEMM over the batch gives;
that output is already the next layer's (C, H, W, B) input. forward keeps
no layer output: its single-use tape holds only what each layer's backward
reads, for a conv layer its (C, H+2p, W+2p, B) padded input, and relu runs
in place, as in Caffe (Jia et al., 2014). Backward rebuilds the
whole batch's patch matrix for the weight gradient, as Caffe does, and
keeps it whole: splitting that GEMM's reduction would change its bits. The
weight and bias gradients sum over positions in (row, col, image) order,
so their low bits differ from a kernel that sums image by image. The input
gradient is one (C*k*k, OC) x (OC, OH*OW*B) GEMM for the whole patch
gradient, whose k*k tap rows are then added where those patches were read.
Relu and pooling are elementwise numpy over views, so their results follow
the input's memory. Flatten hands Dense a C-ordered (B, C*H*W) copy: a
reshape of (C, H, W, B) memory is an F-ordered view, on which Dense's GEMM
would sum in another order; its backward puts the gradient back into
(C, H, W, B) memory. Max pooling is a running np.maximum over the w*w
window-offset views; its backward recomputes the first-max mask from the
tape's input and output. Where windows share no input (stride >= window)
each input has one writer, so the masked gradient is written, not added,
and one final += 0.0 turns each -0.0 into the +0.0 that adding it to zeros
gives. layer_forward and layer_backward run one layer; forward and backward
loop over them. Backward passes are exact reverse-mode gradients, which
tests/gradcheck.py checks against central finite differences. The net runs
in float32, as Caffe's blobs do: init_params returns float32 tensors, and
the loss returns its gradient in the logits' dtype so backward keeps it.
The kernels keep the dtype they are given; the kernel tests check both
precisions against a reference implementation, and the finite-difference
check runs on float64 copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteInput, ShapeMismatch, TapeMismatch, UnknownLayer


@dataclass(frozen=True)
class Conv2d:
    out_channels: int
    kernel: int
    stride: int = 1
    pad: int = 0
    name: str = ""


@dataclass(frozen=True)
class Relu:
    name: str = ""


@dataclass(frozen=True)
class MaxPool2d:
    window: int
    stride: int = 0  # 0 means stride == window
    name: str = ""

    @property
    def step(self):
        return self.stride if self.stride else self.window


@dataclass(frozen=True)
class Dense:
    out_dim: int
    name: str = ""


@dataclass(frozen=True)
class Flatten:
    name: str = ""


_LAYER_TAGS = {Conv2d: "conv2d", Relu: "relu", MaxPool2d: "maxpool2d", Dense: "dense", Flatten: "flatten"}
_TAG_TYPES = {v: k for k, v in _LAYER_TAGS.items()}


@dataclass(frozen=True)
class NetSpec:
    """An ordered feed-forward architecture over (C, H, W) inputs.

    aliases maps alternative feature-layer names onto canonical layer names,
    so callers can ask for a familiar probe point without knowing the exact
    layer naming of this architecture.
    """

    in_shape: tuple
    layers: tuple
    aliases: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "in_shape", tuple(self.in_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.in_shape) != 3 or min(self.in_shape) < 1:
            raise ShapeMismatch(f"in_shape must be a positive (C, H, W), got {self.in_shape}")
        if not self.layers:
            raise ShapeMismatch("a net needs at least one layer")
        names = self.layer_names()
        if len(set(names)) != len(names):
            raise ShapeMismatch(f"duplicate layer names: {names}")
        self.shapes()  # validates layer compatibility

    def layer_names(self):
        """Explicit names where given, else type-indexed defaults (conv1, ...)."""
        counters = {}
        names = []
        for layer in self.layers:
            if layer.name:
                names.append(layer.name)
                continue
            base = {"conv2d": "conv", "maxpool2d": "pool", "dense": "fc"}.get(
                _LAYER_TAGS[type(layer)], _LAYER_TAGS[type(layer)]
            )
            counters[base] = counters.get(base, 0) + 1
            names.append(f"{base}{counters[base]}")
        return names

    def shapes(self):
        """Output shape (without batch axis) after each layer."""
        shape = self.in_shape
        out = []
        for layer in self.layers:
            if isinstance(layer, Conv2d):
                if len(shape) != 3:
                    raise ShapeMismatch(f"conv2d needs a (C, H, W) input, got {shape}")
                if min(layer.out_channels, layer.kernel, layer.stride) < 1 or layer.pad < 0:
                    raise ShapeMismatch(f"conv2d sizes must be positive (pad nonnegative): {layer}")
                c, h, w = shape
                oh = (h + 2 * layer.pad - layer.kernel) // layer.stride + 1
                ow = (w + 2 * layer.pad - layer.kernel) // layer.stride + 1
                if oh < 1 or ow < 1:
                    raise ShapeMismatch(f"conv kernel {layer.kernel} too large for input {shape}")
                shape = (layer.out_channels, oh, ow)
            elif isinstance(layer, MaxPool2d):
                if len(shape) != 3:
                    raise ShapeMismatch(f"maxpool2d needs a (C, H, W) input, got {shape}")
                if layer.window < 1 or layer.stride < 0:
                    raise ShapeMismatch(f"maxpool2d window must be positive, stride nonnegative: {layer}")
                c, h, w = shape
                oh = (h - layer.window) // layer.step + 1
                ow = (w - layer.window) // layer.step + 1
                if oh < 1 or ow < 1:
                    raise ShapeMismatch(f"pool window {layer.window} too large for input {shape}")
                shape = (c, oh, ow)
            elif isinstance(layer, Flatten):
                shape = (int(np.prod(shape)),)
            elif isinstance(layer, Dense):
                if len(shape) != 1:
                    raise ShapeMismatch(f"dense needs a flat input, got {shape} (add flatten)")
                if layer.out_dim < 1:
                    raise ShapeMismatch(f"dense out_dim must be positive: {layer}")
                shape = (layer.out_dim,)
            elif isinstance(layer, Relu):
                pass
            else:
                raise ShapeMismatch(f"unknown layer type {type(layer).__name__}")
            out.append(shape)
        if len(out[-1]) != 1:
            raise ShapeMismatch(f"final layer must produce a flat output, got {out[-1]}")
        return out

    @property
    def out_dim(self):
        return self.shapes()[-1][0]

    def resolve_layer(self, name):
        canonical = self.aliases.get(name, name)
        names = self.layer_names()
        if canonical not in names:
            known = sorted(set(names) | set(self.aliases))
            raise UnknownLayer(f"no layer named {name!r}; known: {', '.join(known)}")
        return names.index(canonical)

    def to_dict(self):
        layers = []
        for layer in self.layers:
            entry = {"type": _LAYER_TAGS[type(layer)]}
            for key, value in layer.__dict__.items():
                if key != "name" or value:
                    entry[key] = value
            layers.append(entry)
        return {"in_shape": list(self.in_shape), "layers": layers, "aliases": dict(self.aliases)}

    @classmethod
    def from_dict(cls, obj):
        """The spec to_dict wrote; a malformed one raises ShapeMismatch."""
        try:
            layers = []
            for entry in obj["layers"]:
                entry = dict(entry)
                tag = entry.pop("type")
                if tag not in _TAG_TYPES:
                    raise ShapeMismatch(f"unknown layer type {tag!r}")
                layers.append(_TAG_TYPES[tag](**entry))
            in_shape = tuple(obj["in_shape"])
            sizes = [v for layer in layers for k, v in layer.__dict__.items() if k != "name"]
            if not all(type(v) is int for v in sizes + list(in_shape)):
                raise ShapeMismatch("malformed net spec: sizes must be integers")
            return cls(
                in_shape=in_shape,
                layers=tuple(layers),
                aliases=dict(obj.get("aliases", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ShapeMismatch(f"malformed net spec: {type(exc).__name__}: {exc}")


def tiny_topic_net(k, in_shape=(3, 32, 32)):
    """The bundled reference architecture: two conv/pool stages and two dense
    layers ending in k logits. pool2 plays the "mid-level features" role and
    fc1 the "high-level features" role of much larger classification nets,
    hence the pool5/fc7 aliases."""
    return NetSpec(
        in_shape=in_shape,
        layers=(
            Conv2d(16, 3, stride=1, pad=1),
            Relu(),
            MaxPool2d(2),
            Conv2d(32, 3, stride=1, pad=1),
            Relu(),
            MaxPool2d(2),
            Flatten(),
            Dense(128),
            Relu(),
            Dense(k),
        ),
        aliases={"pool5": "pool2", "fc7": "fc1"},
    )


@dataclass
class LayerParams:
    weight: np.ndarray
    bias: np.ndarray
    weight_momentum: np.ndarray
    bias_momentum: np.ndarray


@dataclass(frozen=True)
class SgdConfig:
    """Stepped-decay SGD with classical momentum.

    lr(iter) = base_lr * lr_decay ** floor(iter / lr_step). The defaults are
    the training constants this project standardizes on: base rate 1e-3
    decayed by 0.1 every 50k iterations, momentum 0.9, batches of 64.
    """

    base_lr: float = 0.001
    lr_decay: float = 0.1
    lr_step: int = 50_000
    momentum: float = 0.9
    batch_size: int = 64
    max_iters: int = 120_000

    def __post_init__(self):
        if not 0 < self.base_lr < math.inf or not 0 < self.lr_decay <= 1:  # NaN fails both
            raise ValueError("base_lr must be finite and positive and lr_decay in (0, 1]")
        if self.lr_step < 1 or self.batch_size < 1 or self.max_iters < 0:
            raise ValueError("lr_step and batch_size must be >= 1, max_iters >= 0")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


def learning_rate(cfg, iteration):
    if iteration < 0:
        raise ValueError(f"iteration must be >= 0, got {iteration}")
    return cfg.base_lr * cfg.lr_decay ** (iteration // cfg.lr_step)


def param_shapes(spec):
    """Per layer, (weight shape, bias shape) for conv and dense layers, else None."""
    shapes = []
    for layer, (c, *_) in zip(spec.layers, [spec.in_shape] + spec.shapes()[:-1]):
        if isinstance(layer, Conv2d):
            shapes.append(((layer.out_channels, c, layer.kernel, layer.kernel), (layer.out_channels,)))
        elif isinstance(layer, Dense):
            shapes.append(((layer.out_dim, c), (layer.out_dim,)))
        else:
            shapes.append(None)
    return shapes


def init_params(spec, seed):
    """He-style fan-in scaled uniform weights, zero biases, zero momentum.

    Weights are drawn from U(-sqrt(6/fan_in), sqrt(6/fan_in)), which has
    standard deviation sqrt(2/fan_in), where fan_in is the product of the
    weight shape past its first axis. Layers are visited in declaration
    order with a single seeded generator, so a seed pins every tensor. The
    float64 draws are rounded to the net's float32.
    """
    rng = np.random.default_rng(seed)
    params = []
    for shapes in param_shapes(spec):
        if shapes is None:
            params.append(None)
            continue
        w_shape, b_shape = shapes
        limit = np.sqrt(6.0 / math.prod(w_shape[1:]))
        w = rng.uniform(-limit, limit, size=w_shape).astype(np.float32)
        b = np.zeros(b_shape, dtype=np.float32)
        params.append(LayerParams(w, b, np.zeros_like(w), np.zeros_like(b)))
    return params


def copy_params(params):
    return [
        None
        if p is None
        else LayerParams(p.weight.copy(), p.bias.copy(), p.weight_momentum.copy(), p.bias_momentum.copy())
        for p in params
    ]


def params_equal(a, b):
    for pa, pb in zip(a, b):
        if (pa is None) != (pb is None):
            return False
        if pa is None:
            continue
        if not (
            np.array_equal(pa.weight, pb.weight)
            and np.array_equal(pa.bias, pb.bias)
            and np.array_equal(pa.weight_momentum, pb.weight_momentum)
            and np.array_equal(pa.bias_momentum, pb.bias_momentum)
        ):
            return False
    return True


def _patches(xp, layer, oh, ow):
    """The (C*k*k, OH*OW*B) patch matrix of a (C, H, W, B) padded input."""
    k, s = layer.kernel, layer.stride
    c, b = xp.shape[0], xp.shape[3]
    cols = np.empty((c, k, k, oh, ow, b), dtype=xp.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xp[:, i : i + s * oh : s, j : j + s * ow : s]
    return cols.reshape(c * k * k, oh * ow * b)


# Most patch-matrix elements a conv forward builds at once (4 MiB in float32).
_PATCH_BUDGET = 2**20


def _conv_forward(x, layer, w, bias):
    k, s, p = layer.kernel, layer.stride, layer.pad
    b, c, h, wd = x.shape
    oh = (h + 2 * p - k) // s + 1
    ow = (wd + 2 * p - k) // s + 1
    # The padded copy is (C, H, W, B) whatever memory x is in.
    xp = np.zeros((c, h + 2 * p, wd + 2 * p, b), dtype=x.dtype)
    xp[:, p : p + h, p : p + wd] = x.transpose(1, 2, 3, 0)
    # Slices of whole output rows, each GEMM writing its own output columns.
    # The BLAS sums each output column in the same order whichever columns a
    # GEMM covers; tests/test_nn.py checks the bits against one GEMM.
    w_flat = w.reshape(layer.out_channels, -1)
    out = np.empty((layer.out_channels, oh * ow * b), dtype=np.result_type(w, x))
    step = max(1, _PATCH_BUDGET // (c * k * k * ow * b))
    for lo in range(0, oh, step):
        hi = min(lo + step, oh)
        rows = xp[:, lo * s : (hi - 1) * s + k]
        np.matmul(w_flat, _patches(rows, layer, hi - lo, ow), out=out[:, lo * ow * b : hi * ow * b])
    out += bias[:, None]
    return out.reshape(layer.out_channels, oh, ow, b).transpose(3, 0, 1, 2), xp


def _conv_backward(grad, layer, w, xp, input_grad=True):
    c, hp, wp, b = xp.shape
    oh, ow = grad.shape[2:]
    g = grad.transpose(1, 2, 3, 0).reshape(layer.out_channels, -1)
    dw = (_patches(xp, layer, oh, ow) @ g.T).T.reshape(w.shape)
    db = g.sum(axis=1)
    if not input_grad:
        return None, dw, db
    k, s, p = layer.kernel, layer.stride, layer.pad
    # One GEMM gives the whole (C*k*k, OH*OW*B) patch gradient; each tap's
    # rows are then added where that tap's patches were read.
    dcols = (w.reshape(layer.out_channels, -1).T @ g).reshape(c, k, k, oh, ow, b)
    dx = np.zeros(xp.shape, dtype=grad.dtype)
    for i in range(k):
        for j in range(k):
            dx[:, i : i + s * oh : s, j : j + s * ow : s] += dcols[:, i, j]
    return dx[:, p : hp - p, p : wp - p].transpose(3, 0, 1, 2), dw, db


def _pool_views(x, layer):
    """The input element each output reads at every window offset, in
    row-major offset order: w*w strided views shaped like the output."""
    w, s = layer.window, layer.step
    oh = (x.shape[2] - w) // s + 1
    ow = (x.shape[3] - w) // s + 1
    return [x[:, :, di : di + s * oh : s, dj : dj + s * ow : s] for di in range(w) for dj in range(w)]


def _pool_forward(x, layer):
    views = _pool_views(x, layer)
    out = views[0].copy(order="K")
    for view in views[1:]:
        # np.maximum returns its second operand on a tie (also 0.0 against
        # -0.0), so the running max keeps the first maximum in window order.
        np.maximum(view, out, out=out)
    return out, (x, out)


def _pool_backward(grad, layer, cache):
    # Each output's gradient goes to the first input in its window that
    # equals the output, so ties resolve as a first-max argmax would.
    x, out = cache
    dx = np.zeros_like(x, dtype=grad.dtype)
    taken = np.zeros_like(out, dtype=bool)
    # Windows that share no input have one writer per input: write there
    # instead of adding into zeros. For one offset every output maps to a
    # distinct input, so the strided add is safe when windows overlap.
    tiled = layer.step >= layer.window
    for view, dview in zip(_pool_views(x, layer), _pool_views(dx, layer)):
        hit = (view == out) & ~taken
        taken |= hit
        if tiled:
            np.multiply(grad, hit, out=dview)
        else:
            dview += grad * hit
    if tiled:
        # 0.0 + -0.0 is 0.0: what the additions into zeros would have left
        dx += 0.0
    return dx


def layer_forward(layer, p, x):
    """One layer's output and the layer-local data its backward needs.

    Relu overwrites x with its output and returns x itself; every other
    layer leaves x as it was.
    """
    if isinstance(layer, Conv2d):
        return _conv_forward(x, layer, p.weight, p.bias)
    if isinstance(layer, Relu):
        local = x > 0
        return np.multiply(x, local, out=x), local
    if isinstance(layer, MaxPool2d):
        return _pool_forward(x, layer)
    if isinstance(layer, Flatten):
        # C order: a reshape of (C, H, W, B) memory would be an F-ordered
        # view, and Dense's GEMM would sum it in another order.
        return np.ascontiguousarray(x).reshape(x.shape[0], -1), x
    return x @ p.weight.T + p.bias, x  # Dense


# Layers whose output is a new array that no tape entry reads, so a relu
# after one of them may overwrite it. A pool's output is on its own tape
# entry, and a flatten's may be a view of its input.
_OVERWRITABLE_OUTPUT = (Conv2d, Dense, Relu)


def forward(spec, params, batch):
    """Run the net on a (B, C, H, W) batch; returns (logits, tape).

    The tape is a list holding, per layer, only the data its backward reads
    (layer_forward's local): a conv layer's padded input, a relu's mask, a
    pool's input and output, a dense layer's input. It is single-use:
    backward consumes it. A relu writes its output into the activation the
    layer before it produced when that is a conv, dense or relu output;
    after any other layer, and on the batch itself, it works on a copy, so
    the caller's batch is never written.
    """
    batch = np.asarray(batch)
    if batch.ndim != 4 or batch.shape[1:] != spec.in_shape:
        raise ShapeMismatch(f"batch shape {batch.shape} does not match input {spec.in_shape}")
    x, tape = batch, []
    for i, (layer, p) in enumerate(zip(spec.layers, params)):
        if isinstance(layer, Relu) and (i == 0 or not isinstance(spec.layers[i - 1], _OVERWRITABLE_OUTPUT)):
            x = x.copy(order="K")
        x, local = layer_forward(layer, p, x)
        tape.append(local)
    return x, tape


def layer_backward(layer, p, local, g, input_grad=True):
    """(gradient w.r.t. the layer input, (d_weight, d_bias) or None) from the
    gradient g w.r.t. its output. input_grad=False lets a convolution skip
    its input gradient (returned as None)."""
    if isinstance(layer, Dense):
        return g @ p.weight, (g.T @ local, g.sum(axis=0))
    if isinstance(layer, Flatten):
        # Back into the memory order of the layer's input, so the layer
        # before reads its gradient in the order it reads its own cache.
        dx = np.empty_like(local, dtype=g.dtype)
        dx[...] = g.reshape(local.shape)
        return dx, None
    if isinstance(layer, Relu):
        return g * local, None
    if isinstance(layer, MaxPool2d):
        return _pool_backward(g, layer, local), None
    g, dw, db = _conv_backward(g, layer, p.weight, local, input_grad=input_grad)
    return g, (dw, db)


def backward(spec, params, tape, grad_logits):
    """Exact gradients of the loss w.r.t. every weight and bias.

    tape is the one forward() returned, and backward consumes it: it pops
    each layer's entry as it reaches that layer, so the data of the layers
    already done is freed while the rest run. A tape already consumed, or
    one whose length does not match the net, raises TapeMismatch.
    grad_logits is d(loss)/d(logits), as sigmoid_cross_entropy returns it.
    Returns a params-shaped list of (d_weight, d_bias) tuples (None for
    parameterless layers).
    """
    n = len(spec.layers)
    if len(tape) != n:
        used = ": backward has already consumed it" if not tape else ""
        raise TapeMismatch(f"the tape holds {len(tape)} entries for a {n}-layer net{used}")
    grads = [None] * n
    g = np.asarray(grad_logits)
    for i in range(n - 1, -1, -1):
        # nothing reads the gradient of the input batch
        g, grads[i] = layer_backward(spec.layers[i], params[i], tape.pop(), g, input_grad=i > 0)
    return grads


def sigmoid(x):
    # Evaluate each branch only where it is stable.
    x = np.asarray(x)
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_cross_entropy(logits, targets):
    """Numerically stable elementwise sigmoid cross-entropy.

    loss = mean over the batch of sum_k [max(x,0) - x*t + log(1 + exp(-|x|))],
    grad = (sigmoid(x) - t) / B. Targets may be soft (anywhere in [0, 1]).
    The gradient has the logits' float dtype, so backward runs in it.
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    if logits.shape != targets.shape:
        raise ShapeMismatch(f"logits {logits.shape} vs targets {targets.shape}")
    if not np.all(np.isfinite(logits)) or not np.all(np.isfinite(targets)):
        raise NonFiniteInput("logits and targets must be finite")
    if targets.min() < 0 or targets.max() > 1:
        raise ValueError("targets must lie in [0, 1]")
    b = logits.shape[0]
    elem = np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    loss = float(elem.sum() / b)
    grad = ((sigmoid(logits) - targets) / b).astype(np.promote_types(logits.dtype, np.float32), copy=False)
    return loss, grad


def sgd_step(params, grads, cfg, iteration):
    """One momentum update, in place: v <- m*v - lr*g; w <- w + v."""
    lr = learning_rate(cfg, iteration)
    for p, g in zip(params, grads):
        if p is None:
            continue
        dw, db = g
        p.weight_momentum *= cfg.momentum
        p.weight_momentum -= lr * dw
        p.weight += p.weight_momentum
        p.bias_momentum *= cfg.momentum
        p.bias_momentum -= lr * db
        p.bias += p.bias_momentum
    return params
