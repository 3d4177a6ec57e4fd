"""Central finite-difference oracle for verifying analytic gradients.

All checks run in float64: float32 finite differences are too noisy to
resolve the tolerances used by the test suites.
"""

from __future__ import annotations

import numpy as np


def numerical_gradient(f, array, coords, eps=1e-6):
    """Central differences of scalar f() w.r.t. a float64 array mutated in place,
    at the flat indices `coords`; returns the derivatives in that order.
    """
    flat = array.reshape(-1)
    grads = np.zeros(len(coords), dtype=np.float64)
    for k, i in enumerate(coords):
        old = flat[i]
        flat[i] = old + eps
        fp = f()
        flat[i] = old - eps
        fm = f()
        flat[i] = old
        grads[k] = (fp - fm) / (2.0 * eps)
    return grads


def rel_error(analytic, numeric, floor=1e-6):
    """Max |a-n| over the pair, normalized by the largest numeric magnitude."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = max(float(np.max(np.abs(numeric)), ), floor)
    return float(np.max(np.abs(analytic - numeric))) / denom


def masked_rel_error(analytic, numeric, f_scale, eps):
    """Per-coordinate relative error, ignoring coordinates that sit below the
    finite-difference cancellation noise ~ |f| * ulp / (2 eps)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    noise = 64.0 * max(abs(f_scale), 1.0) * np.finfo(np.float64).eps / (2.0 * eps)
    mag = np.maximum(np.abs(analytic), np.abs(numeric))
    mask = mag > noise
    if not mask.any():
        return 0.0
    diff = np.abs(analytic - numeric)[mask]
    return float(np.max(diff / np.maximum(mag[mask], noise)))


def sample_coords(rng, size, limit):
    """Up to `limit` distinct flat coordinates of a tensor of `size` elements."""
    if size <= limit:
        return np.arange(size)
    return rng.choice(size, size=limit, replace=False)


def check_gradients(build, arrays, rng, eps=1e-6, max_coords=6):
    """Compare tape gradients of `build` against finite differences.

    `build(tensors) -> scalar Tensor` constructs the graph from leaf tensors
    wrapping `arrays` (shared buffers, float64): `check_store_gradients` with
    an empty store. Returns the max relative error across all arrays.
    """
    from .params import ParamStore

    return check_store_gradients(build, ParamStore(np.float64), arrays, rng, eps=eps,
                                 max_coords=max_coords)


def check_store_gradients(forward, store, x_arrays, rng, eps=1e-6, max_coords=4):
    """Gradient check for functions parameterized by a ParamStore (float64).

    `forward(x_tensors) -> scalar Tensor` reads parameters from `store`.
    Checks the inputs and every learnable store entry, perturbing the stored
    buffers in place for the finite-difference passes. Returns the max
    relative error.
    """
    from . import tensor as T

    x_leaves = [T.Tensor(a, requires_grad=True) for a in x_arrays]
    store.zero_grads()
    with T.Tape():
        loss = forward(x_leaves)
        T.backward(loss)

    def value():
        consts = [T.Tensor(a) for a in x_arrays]
        return float(forward(consts).data.reshape(()))  # no tape: forward only

    f_scale = float(loss.data.reshape(()))
    worst = 0.0
    for leaf, arr in zip(x_leaves, x_arrays):
        assert leaf.grad is not None, "input received no gradient"
        coords = sample_coords(rng, arr.size, max_coords)
        num = numerical_gradient(value, arr, coords, eps=eps)
        worst = max(worst, masked_rel_error(leaf.grad.reshape(-1)[coords], num, f_scale, eps))
    for name, t in store.params():
        assert t.grad is not None, f"parameter {name} received no gradient"
        coords = sample_coords(rng, t.data.size, max_coords)
        num = numerical_gradient(value, t.data, coords, eps=eps)
        worst = max(worst, masked_rel_error(t.grad.reshape(-1)[coords], num, f_scale, eps))
    return worst
