"""Central finite-difference check of the net's backward pass, for tests."""

from __future__ import annotations

import numpy as np

from ttn import nn


def gradient_check(spec, params, batch, targets, epsilon=1e-5, max_checks_per_tensor=None, seed=0):
    """Compare backward() against central finite differences of the
    sigmoid cross-entropy.

    Returns the maximum relative error over all checked parameter entries,
    where rel(a, n) = |a - n| / max(|a|, |n|, 1e-3). The floor keeps finite-
    difference roundoff from dominating near-zero gradients. Set
    max_checks_per_tensor to sample large tensors instead of sweeping them.
    It runs on float64 copies of params and batch: a float32 loss could not
    resolve an epsilon-sized step.
    """
    params = [None if p is None else nn.LayerParams(*(t.astype(np.float64) for t in (
        p.weight, p.bias, p.weight_momentum, p.bias_momentum))) for p in params]
    batch = np.asarray(batch, dtype=np.float64)

    def eval_loss():
        logits, _ = nn.forward(spec, params, batch)
        value, _ = nn.sigmoid_cross_entropy(logits, targets)
        return value

    logits, tape = nn.forward(spec, params, batch)
    _, grad_logits = nn.sigmoid_cross_entropy(logits, targets)
    grads = nn.backward(spec, params, tape, grad_logits)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, g in zip(params, grads):
        if p is None:
            continue
        for tensor, analytic in ((p.weight, g[0]), (p.bias, g[1])):
            flat = tensor.reshape(-1)
            n = flat.size
            if max_checks_per_tensor is not None and n > max_checks_per_tensor:
                idx = rng.choice(n, size=max_checks_per_tensor, replace=False)
            else:
                idx = range(n)
            a_flat = analytic.reshape(-1)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + epsilon
                up = eval_loss()
                flat[i] = orig - epsilon
                down = eval_loss()
                flat[i] = orig
                numeric = (up - down) / (2 * epsilon)
                rel = abs(a_flat[i] - numeric) / max(abs(a_flat[i]), abs(numeric), 1e-3)
                worst = max(worst, rel)
    return worst
