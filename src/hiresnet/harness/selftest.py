"""Fast built-in verification suites for the `selftest` CLI subcommand:
gradient checks on every op family, distance-transform route agreement, and
the analytic loss oracles. Prints one line per suite."""

from __future__ import annotations

import math

import numpy as np

from .. import tensor as T
from ..distance import cascaded_conv_dt, exact_dt
from ..gradcheck import check_gradients
from ..losses import (LossConfig, cea_loss, cea_weights, gd_loss, lsce_loss, lsce_floor,
                      smoothed_targets)
from ..moco import infonce
from ..tensor import ConvSpec, Tensor


def _grad_suite(rng):
    cases = (  # (scalar function of the leaf tensors, leaf shapes)
        (lambda ts: T.tsum(T.gelu(ts[0]) * T.silu(ts[0]) + T.sigmoid(ts[0])), [(20,)]),
        (lambda ts: T.tsum(T.matmul(ts[0].reshape((4, 5)), ts[1].reshape((5, 3))) ** 2.0),
         [(20,), (15,)]),
        (lambda ts: T.tsum(T.softmax(ts[0], axis=0) ** 2.0), [(12,)]),
    )
    worst = 0.0
    for build, shapes in cases:
        arrays = [rng.normal(size=s) for s in shapes]
        worst = max(worst, check_gradients(build, arrays, rng, max_coords=6))
    x = rng.normal(size=(1, 2, 6, 6))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=(3,))
    spec = ConvSpec(3, (3, 3), (2, 2), (1, 1))
    worst = max(worst, check_gradients(
        lambda ts: T.tsum(T.conv2d(ts[0], ts[1], ts[2], spec) ** 2.0), [x, w, b], rng))
    attn = [rng.normal(size=s) for s in [(1, 2, 4, 4), *[(4,)] * 6, (1,)]]  # 2 heads of 2
    worst = max(worst, check_gradients(
        lambda ts: T.tsum(T.window_attention(*ts, window=2, heads=2) ** 2.0), attn, rng))
    dw = ConvSpec(2, (5, 5), padding=(2, 2), groups=2)  # the IA blocks' depth-wise conv
    x, w = rng.normal(size=(1, 2, 5, 5)), rng.normal(size=(2, 1, 5, 5))
    worst = max(worst, check_gradients(
        lambda ts: T.tsum(T.conv2d(ts[0], ts[1], None, dw) ** 2.0), [x, w], rng))
    up = rng.normal(size=(1, 2, 3, 4))
    worst = max(worst, check_gradients(
        lambda ts: T.tsum(T.bilinear_upsample(ts[0], 2) ** 2.0), [up], rng))
    return worst < 1e-4, f"max rel err {worst:.2e}"


def _dt_suite(rng):
    for size in (8, 16):
        for _ in range(30):
            m = (rng.random((size, size)) < rng.uniform(0.3, 0.9)).astype(np.uint8)
            if not np.array_equal(cascaded_conv_dt(m, 20), exact_dt(m, 20)):
                return False, f"route mismatch on a {size}x{size} mask"
    return True, "cascade == BFS on 60 random masks"


def _loss_suite(rng):
    labels = np.array([[[0, 0], [0, 1]]])
    probs = Tensor(np.full((1, 2, 2, 2), 0.5))
    if abs(float(gd_loss(probs, labels).data) - 4.0 / 7.0) > 1e-6:
        return False, "generalized dice oracle (4/7) failed"

    if not np.allclose(smoothed_targets(0, 3, 0.1), [0.9, 0.05, 0.05]):
        return False, "smoothed-target formula failed"

    k, eps = 4, 0.1
    lab = np.array([[[2]]])
    logits = Tensor(np.log(smoothed_targets(2, k, eps)).reshape(1, k, 1, 1))
    if abs(float(lsce_loss(logits, lab, eps).data) - lsce_floor(k, eps)) > 1e-9:
        return False, "label-smoothing floor failed"

    lab2 = np.array([[[0, 1], [1, 1]]])
    perfect = Tensor(np.stack([(lab2[0] == 0), (lab2[0] == 1)]).astype(float)[None])
    cea = cea_loss(perfect, lab2, 1, cea_weights([perfect], lab2, 1, LossConfig())[0])
    if abs(float(cea.data)) > 1e-12:
        return False, "edge-aware zero-residual case failed"

    w = T.softmax(Tensor(np.array([1.0, 1.0, 0.4])), axis=0).data
    if not np.allclose(w, [0.3923, 0.3923, 0.2153], atol=5e-5):
        return False, "loss-weight softmax reproduction failed"

    nce = float(infonce(Tensor(np.array([[1.0, 0.0]])), np.array([[1.0, 0.0]]),
                        np.array([[0.0], [1.0]]), tau=1.0).data)
    if abs(nce - (-math.log(math.e / (math.e + 1)))) > 1e-6:
        return False, "InfoNCE closed form failed"
    return True, "all analytic oracles match"


def run_selftest(stream):
    rng = np.random.default_rng(2024)
    suites = (("gradient-checks", _grad_suite),
              ("distance-transform", _dt_suite),
              ("loss-oracles", _loss_suite))
    ok = True
    for name, suite in suites:
        passed, detail = suite(rng)
        ok &= passed
        stream.write(f"{'PASS' if passed else 'FAIL'} {name}: {detail}\n")
    return ok
