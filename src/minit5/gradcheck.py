"""Central finite-difference checking of analytic gradients.

The checker perturbs parameter coordinates one at a time, so it is the
slow-but-independent route against which the tape's backward rules are
verified. It insists on float64 parameters: at h=1e-4 the truncation and
rounding errors of central differences are only negligible in double
precision.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tape, backward


def finite_diff_check(f, params, h=1e-4, max_coords_per_param=None, rng=None):
    """Max relative error between analytic gradients of f and central differences.

    f: nullary callable returning a scalar Tensor; it must re-read the
    current contents of `params` on every call (and be deterministic).
    params: dict name -> Tensor.
    max_coords_per_param: when set, check only this many sampled
    coordinates per parameter instead of all of them.

    Relative error per coordinate is
    |analytic - central| / (|analytic| + |central| + 1e-12).
    """
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise ValueError(f"gradient checking requires float64 parameters ('{name}' is {p.data.dtype})")
        p.grad = None

    with Tape() as tape:
        loss = f()
        if not np.isfinite(loss.data).all():
            raise FloatingPointError("finite_diff_check: f returned a non-finite loss")
        backward(loss, tape)

    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for name, p in params.items():
        flat = p.data.flat  # writes through to the parameter, whatever its memory layout
        analytic = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        n = p.data.size
        if max_coords_per_param is not None and max_coords_per_param < n:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = range(n)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            up = float(f().data)
            flat[i] = orig - h
            down = float(f().data)
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise FloatingPointError(f"finite_diff_check: non-finite f while perturbing '{name}'")
            numeric = (up - down) / (2.0 * h)
            a = float(analytic[i])
            rel = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
            worst = max(worst, rel)
    return worst
