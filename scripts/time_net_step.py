#!/usr/bin/env python3
"""Time one training step of the bundled net, layer by layer.

Runs forward, sigmoid cross-entropy, backward and the SGD update of
`tiny_topic_net(3)` on a float32 batch (64 random 32x32 images by default)
on one BLAS thread, and prints the median forward and backward time of each
layer, the median whole step, the minor page faults per step, the
tracemalloc peak of one forward and backward pass and that of one forward
alone. It then times forward passes alone on a batch of ten crops, the
input textnet.predict_topics runs, and prints each layer's median.

    python3 scripts/time_net_step.py --steps 25
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ttn import nn  # noqa: E402


def timed_forward(spec, params, batch):
    """One forward pass as nn.forward runs it; returns per-layer seconds, the
    logits and the tape of each layer's backward data. Every relu of the
    net follows a conv or dense layer, whose output nn.forward lets it
    overwrite, so layer_forward's in-place relu is the one nn.forward runs,
    and the batch is not written."""
    fwd, x, tape = [], batch, []
    for layer, p in zip(spec.layers, params):
        t0 = time.perf_counter()
        x, local = nn.layer_forward(layer, p, x)
        fwd.append(time.perf_counter() - t0)
        tape.append(local)
    return fwd, x, tape


def timed_step(spec, params, batch, targets, sgd):
    """One training step; returns per-layer forward and backward seconds and
    the gradients, which the caller keeps until the next step's replace
    them, as textnet.train does. Backward pops each layer's tape entry, as
    nn.backward does, so that layer's data is freed once it has run."""
    fwd, x, tape = timed_forward(spec, params, batch)
    _, g = nn.sigmoid_cross_entropy(x, targets)
    grads = [None] * len(spec.layers)
    bwd = [0.0] * len(spec.layers)
    for i in range(len(spec.layers) - 1, -1, -1):
        t0 = time.perf_counter()
        g, grads[i] = nn.layer_backward(spec.layers[i], params[i], tape.pop(), g, input_grad=i > 0)
        bwd[i] = time.perf_counter() - t0
    nn.sgd_step(params, grads, sgd, 0)
    return fwd, bwd, grads


def traced_peaks(spec, params, batch, targets):
    """tracemalloc peaks, in bytes, of one nn.forward alone and of one
    nn.forward and nn.backward."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        logits, tape = nn.forward(spec, params, batch)
        forward_peak = tracemalloc.get_traced_memory()[1] - base
        nn.backward(spec, params, tape, nn.sigmoid_cross_entropy(logits, targets)[1])
        return forward_peak, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=25, help="timed steps (after one warm-up step)")
    ap.add_argument("--batch", type=int, default=64)
    args = ap.parse_args(argv)
    if args.steps < 1 or args.batch < 1:
        ap.error("--steps and --batch must be >= 1")

    spec = nn.tiny_topic_net(3)
    params = nn.init_params(spec, seed=0)
    rng = np.random.default_rng(0)
    batch = rng.random((args.batch,) + spec.in_shape).astype(np.float32)
    targets = rng.dirichlet(np.ones(spec.out_dim), size=args.batch)
    sgd = nn.SgdConfig(batch_size=args.batch)

    *_, grads = timed_step(spec, params, batch, targets, sgd)  # warm-up
    fwd_runs, bwd_runs, step_runs = [], [], []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(args.steps):
        t0 = time.perf_counter()
        fwd, bwd, grads = timed_step(spec, params, batch, targets, sgd)
        step_runs.append(time.perf_counter() - t0)
        fwd_runs.append(fwd)
        bwd_runs.append(bwd)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    forward_peak, peak = traced_peaks(spec, params, batch, targets)

    print(f"tiny_topic_net(3), float32, batch {args.batch}, one BLAS thread, median of {args.steps} steps")
    print(f"{'layer':<8} {'fwd_ms':>8} {'bwd_ms':>8}")
    for i, name in enumerate(spec.layer_names()):
        f = statistics.median(run[i] for run in fwd_runs) * 1e3
        b = statistics.median(run[i] for run in bwd_runs) * 1e3
        print(f"{name:<8} {f:8.3f} {b:8.3f}")
    print(f"step_ms {statistics.median(step_runs) * 1e3:.3f}")
    print(f"minor_faults_per_step {faults / args.steps:.1f}")
    print(f"traced_peak_mib {peak / 2**20:.2f}")
    print(f"forward_peak_mib {forward_peak / 2**20:.2f}")

    # predict_topics runs the ten crops of one image as one batch.
    crops = rng.random((10,) + spec.in_shape).astype(np.float32)
    timed_forward(spec, params, crops)  # warm-up
    crop_runs = [timed_forward(spec, params, crops)[0] for _ in range(args.steps)]
    print(f"ten crops (predict_topics), batch 10, forward only, median of {args.steps} passes")
    print(f"{'layer':<8} {'fwd_ms':>8}")
    for i, name in enumerate(spec.layer_names()):
        print(f"{name:<8} {statistics.median(run[i] for run in crop_runs) * 1e3:8.3f}")
    print(f"forward_ms {statistics.median(sum(run) for run in crop_runs) * 1e3:.3f}")


if __name__ == "__main__":
    main()
