"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark runs on a small share of a shared host whose speed drifts by
tens of percent over seconds to minutes, for plain Python and numpy code
alike. Every timing the benchmark reports is scaled by how long this kernel
took in the same stretch of the run:

    normalized seconds = measured seconds * REF_NOMINAL_S / reference seconds

so the reported figures read as on a machine that runs the kernel in
REF_NOMINAL_S, and a change of machine speed between runs cancels out. The
kernel is part of the benchmark, not of the program, so a change to ttn
moves the measured seconds and never the reference.

The kernel mixes the kinds of code ttn spends its time in: an interpreted
loop over Python lists (the Gibbs samplers), many numpy calls on short
vectors (the per-candidate KL ranking), BLAS products and elementwise work on
larger arrays (the nn layers), and JSON encoding of floats (index and
checkpoint files).
"""

from __future__ import annotations

import json
import time

import numpy as np

# The kernel's time on the machine the bounds were set on (2 vCPUs of an
# Intel Xeon, quiet); only a scale, the same for every commit compared.
REF_NOMINAL_S = 0.030

_RNG = np.random.default_rng(20170524)
_VECTORS = _RNG.dirichlet(np.full(40, 0.1), size=200)
_A = _RNG.standard_normal((64, 600))
_B = _RNG.standard_normal((600, 200))
_ROWS = _RNG.random((20, 40)).tolist()


def _interpreted(n=600):
    weights = [1.0 + 0.01 * k for k in range(40)]
    counts = [0] * 40
    acc = 0.0
    for i in range(n):
        total = 0.0
        for k in range(40):
            total += weights[k] * (counts[k] + 0.1)
        u = (i * 0.6180339887) % 1.0 * total
        for k in range(40):
            u -= weights[k] * (counts[k] + 0.1)
            if u <= 0.0:
                break
        counts[k] += 1
        acc += total
    return acc


def _small_numpy():
    q = _VECTORS[0] + 1e-10
    return sum(float(np.sum(q * np.log(q / (v + 1e-10)))) for v in _VECTORS)


def _blas():
    out = np.maximum(_A @ _B, 0.0)
    return float((out.T @ _A).sum())


def _encode():
    return len(json.loads(json.dumps(_ROWS)))


def normalizer(samples):
    """The factor that turns measured seconds into normalized seconds, from
    reference kernel times taken across the same stretch of the run."""
    return REF_NOMINAL_S * len(samples) / sum(samples)


def reference():
    """Seconds the fixed kernel takes now (about REF_NOMINAL_S on a quiet machine)."""
    t0 = time.perf_counter()
    for _ in range(3):
        _interpreted()
        _small_numpy()
        _blas()
        _encode()
    return time.perf_counter() - t0
