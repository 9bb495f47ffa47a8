"""Per-layer probe of the nn kernel at the shapes tiny_topic_net sees.

Each probed layer becomes a one-layer NetSpec (the layer plus Flatten, or
Flatten plus a Dense layer) at the input shape that layer has inside
tiny_topic_net, and the public nn.forward / nn.backward are timed on it.
Floating-point operations and bytes moved are computed from the shapes, not
measured: bytes count each operand and result read or written once.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from ttn import nn

PROBED = ("conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "fc1", "fc2")
TRAIN_BATCH = 64
PREDICT_BATCH = 10  # predict_topics runs the ten standard crops as one batch
WORD = 8  # float64


def _layer_inputs(spec):
    """name -> (layer, input shape without batch) for every layer of spec."""
    shapes = [spec.in_shape] + list(spec.shapes())
    return {name: (layer, shapes[i]) for i, (name, layer) in
            enumerate(zip(spec.layer_names(), spec.layers))}


def _single_layer_spec(layer, in_shape):
    if isinstance(layer, nn.Dense):
        (n,) = in_shape
        return nn.NetSpec(in_shape=(n, 1, 1), layers=(nn.Flatten(), layer))
    return nn.NetSpec(in_shape=in_shape, layers=(layer, nn.Flatten()))


def layer_cost(layer, in_shape, out_shape, batch):
    """Computed (flops, bytes) of one forward and one backward pass."""
    n_in = int(np.prod(in_shape)) * batch
    n_out = int(np.prod(out_shape)) * batch
    if isinstance(layer, nn.Conv2d):
        c_in = in_shape[0]
        weights = layer.out_channels * c_in * layer.kernel ** 2
        fwd = 2 * n_out * c_in * layer.kernel ** 2
        # backward: one product for the weight gradient, one for the input gradient
        return (fwd, 2 * fwd), (WORD * (n_in + n_out + weights), WORD * (2 * n_in + n_out + 2 * weights))
    if isinstance(layer, nn.Dense):
        weights = in_shape[0] * layer.out_dim
        fwd = 2 * n_out * in_shape[0]
        return (fwd, 2 * fwd), (WORD * (n_in + n_out + weights), WORD * (2 * n_in + n_out + 2 * weights))
    if isinstance(layer, nn.MaxPool2d):
        return (n_out * (layer.window ** 2 - 1), n_out), (WORD * (n_in + n_out), WORD * (n_in + n_out))
    # Relu: one comparison forward, one multiply backward
    return (n_in, n_in), (WORD * (n_in + n_out), WORD * (n_in + 2 * n_out))


def probe(k, seed, repeats=3):
    """Median forward/backward ms per probed layer at both batch shapes, plus
    computed flops and bytes of one training iteration, as (value, unit)."""
    spec = nn.tiny_topic_net(k)
    inputs = _layer_inputs(spec)
    out_shapes = dict(zip(spec.layer_names(), spec.shapes()))
    rng = np.random.default_rng((seed, 99))
    metrics = {}
    flops = bytes_moved = 0
    probe_ms = 0.0
    for name in PROBED:
        layer, in_shape = inputs[name]
        single = _single_layer_spec(layer, in_shape)
        params = nn.init_params(single, seed)
        for batch in (TRAIN_BATCH, PREDICT_BATCH):
            x = rng.standard_normal((batch,) + single.in_shape)
            fwd_ms, bwd_ms = [], []
            for _ in range(repeats):
                t0 = time.perf_counter()
                out, cache = nn.forward(single, params, x)
                t1 = time.perf_counter()
                nn.backward(single, params, cache, np.ones_like(out))
                t2 = time.perf_counter()
                fwd_ms.append((t1 - t0) * 1e3)
                bwd_ms.append((t2 - t1) * 1e3)
            metrics[f"nn.{name}.b{batch}.fwd_ms"] = (statistics.median(fwd_ms), "ms")
            metrics[f"nn.{name}.b{batch}.bwd_ms"] = (statistics.median(bwd_ms), "ms")
        (f_fwd, f_bwd), (b_fwd, b_bwd) = layer_cost(layer, in_shape, out_shapes[name], TRAIN_BATCH)
        flops += f_fwd + f_bwd
        bytes_moved += b_fwd + b_bwd
        probe_ms += metrics[f"nn.{name}.b{TRAIN_BATCH}.fwd_ms"][0] + metrics[f"nn.{name}.b{TRAIN_BATCH}.bwd_ms"][0]
    metrics["nn.mflop_per_iter"] = (flops / 1e6, "MFLOP")
    metrics["nn.mbytes_per_iter"] = (bytes_moved / 1e6, "MB")
    metrics["nn.probe_ms_per_iter"] = (probe_ms, "ms")
    metrics["nn.gflops_achieved"] = (flops / (probe_ms * 1e6), "GFLOP/s")
    return metrics
