"""Tensor core: op semantics, gradient checks against finite differences,
layout round trips, and stability properties."""

import math
import re
import weakref

import numpy as np
import pytest

import hiresnet.tensor as T
from hiresnet.gradcheck import check_gradients, check_store_gradients, rel_error
from hiresnet.params import ParamStore


def rand(rng, shape):
    return rng.normal(size=shape).astype(np.float64)


# ---------------------------------------------------------------------------
# construction


def test_tensor_from_basic():
    t = T.tensor_from([2, 2], [1, 2, 3, 4])
    assert t.shape == (2, 2)
    np.testing.assert_array_equal(t.data, [[1, 2], [3, 4]])


def test_tensor_from_empty():
    t = T.tensor_from([0], [])
    assert t.shape == (0,)
    assert t.size == 0


def test_tensor_from_mismatch():
    with pytest.raises(T.ShapeError):
        T.tensor_from([2], [1, 2, 3])


# ---------------------------------------------------------------------------
# elementwise arithmetic


def test_add_values():
    a = T.tensor_from([2], [1, 2])
    b = T.tensor_from([2], [3, 4])
    np.testing.assert_array_equal((a + b).data, [4, 6])


def test_mul_by_one_is_identity():
    a = T.tensor_from([3], [1.5, -2.0, 0.25])
    out = a * 1.0
    np.testing.assert_array_equal(out.data, a.data)


def test_product_rule_gradient():
    x = T.Tensor(np.array([2.0]), requires_grad=True)
    y = T.Tensor(np.array([3.0]), requires_grad=True)
    with T.Tape():
        T.backward(T.tsum(x * y))
    np.testing.assert_array_equal(x.grad, [3.0])
    np.testing.assert_array_equal(y.grad, [2.0])


def test_incompatible_shapes_raise():
    a = T.tensor_from([2], [1, 2])
    b = T.tensor_from([3], [1, 2, 3])
    with pytest.raises(T.ShapeError):
        a + b


def test_broadcast_gradient_reduces():
    rng = np.random.default_rng(0)
    a = rand(rng, (2, 3, 4))
    b = rand(rng, (1, 3, 1))
    err = check_gradients(lambda ts: T.tsum(ts[0] * ts[1]), [a, b], rng, max_coords=12)
    assert err < 1e-6


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    eye = T.Tensor(np.eye(2))
    m = T.tensor_from([2, 2], [1, 2, 3, 4])
    np.testing.assert_array_equal(T.matmul(eye, m).data, m.data)


def test_matmul_hand_dot():
    a = T.tensor_from([1, 2], [1, 2])
    b = T.tensor_from([2, 1], [3, 4])
    np.testing.assert_array_equal(T.matmul(a, b).data, [[11]])


def test_matmul_dim_mismatch():
    with pytest.raises(T.ShapeError):
        T.matmul(T.zeros((2, 3)), T.zeros((2, 3)))


def _square_with_doubled_gradient(a):
    """x^2 whose recorded backward returns twice the true gradient."""
    ad = a.data
    return T._record(ad * ad, (a,), lambda g: (4.0 * g * ad,))


def test_gradient_checkers_catch_a_wrong_backward():
    # negative control: the oracle must fail an op whose backward is off by 2x
    rng = np.random.default_rng(20)
    x = rand(rng, (3, 4))
    err = check_gradients(lambda ts: T.tsum(_square_with_doubled_gradient(ts[0])), [x], rng)
    assert err >= 0.4

    store = ParamStore(np.float64)
    store.add_param("w", rand(rng, (3, 4)))
    err = check_store_gradients(
        lambda ts: T.tsum(_square_with_doubled_gradient(ts[0] * store["w"])), store,
        [rand(rng, (3, 4))], rng)
    assert err >= 0.4


def test_matmul_gradient_vs_fd():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rand(rng, (3, 4))
        b = rand(rng, (4, 2))
        err = check_gradients(lambda ts: T.tsum(T.matmul(ts[0], ts[1]) ** 2.0), [a, b], rng, max_coords=20)
        assert err < 1e-6


def test_batched_matmul_gradient():
    rng = np.random.default_rng(2)
    a = rand(rng, (2, 3, 4, 5))
    b = rand(rng, (2, 3, 5, 4))
    err = check_gradients(lambda ts: T.tsum(T.matmul(ts[0], ts[1])), [a, b], rng, max_coords=10)
    assert err < 1e-6


# ---------------------------------------------------------------------------
# activations


def test_activation_values_at_zero():
    z = T.zeros((1,))
    assert T.gelu(z).data[0] == 0.0
    assert T.silu(z).data[0] == 0.0
    assert T.sigmoid(z).data[0] == 0.5


def masked_sigmoid(x):
    """Reference sigmoid: each tail's stable formula on its own masked subset."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_equals_the_masked_formula_bit_for_bit(dtype):
    rng = np.random.default_rng(31)
    edges = [0.0, -0.0, 1e4, -1e4, 1.0, -1.0, 88.0, -88.0, 750.0, -750.0]
    x = np.concatenate([edges, rng.normal(size=2000) * 5, rng.normal(size=500) * 200]).astype(dtype)
    x = rng.permutation(x).reshape(2, 5, 251)
    s = T._sigmoid_np(x)
    assert s.dtype == dtype
    np.testing.assert_array_equal(s, masked_sigmoid(x))
    np.testing.assert_array_equal(T.sigmoid(T.Tensor(x)).data, masked_sigmoid(x))
    np.testing.assert_array_equal(T.silu(T.Tensor(x)).data, x * masked_sigmoid(x))


def test_relu_values():
    x = T.tensor_from([2], [-1.0, 2.0])
    np.testing.assert_array_equal(T.relu(x).data, [0.0, 2.0])


@pytest.mark.parametrize("op", [T.relu, T.gelu, T.silu, T.sigmoid])
def test_activation_gradients_vs_fd(op):
    # vectorized central differences: elementwise ops decouple per coordinate
    rng = np.random.default_rng(3)
    x = rng.normal(size=100) * 2.0
    x[np.abs(x) < 1e-3] += 0.01  # keep relu's kink out of the fd stencil
    eps = 1e-6
    xt = T.Tensor(x.copy(), requires_grad=True)
    with T.Tape():
        T.backward(T.tsum(op(xt)))
    up = op(T.Tensor(x + eps)).data
    dn = op(T.Tensor(x - eps)).data
    numeric = (up - dn) / (2 * eps)
    assert rel_error(xt.grad, numeric) < 1e-6


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    out = T.softmax(T.tensor_from([2], [0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_reproduces_loss_weights():
    out = T.softmax(T.tensor_from([3], [1.0, 1.0, 0.4], dtype=np.float64), axis=0)
    np.testing.assert_allclose(out.data, [0.3923, 0.3923, 0.2153], atol=5e-5)


def test_softmax_large_logits_stable():
    out = T.softmax(T.tensor_from([2], [1000.0, 0.0]), axis=0)
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [1.0, 0.0])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    for scale in (1.0, 1e3):
        x = T.Tensor(rng.normal(size=(5, 7)) * scale)
        s = T.softmax(x, axis=1).data
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_gradient_vs_fd():
    rng = np.random.default_rng(5)
    x = rand(rng, (3, 6))
    tgt = rand(rng, (3, 6))
    err = check_gradients(
        lambda ts: T.tsum(T.softmax(ts[0], axis=1) * T.Tensor(tgt)), [x], rng, max_coords=18)
    assert err < 1e-6


def test_log_softmax_gradient_vs_fd():
    rng = np.random.default_rng(6)
    x = rand(rng, (2, 5))
    tgt = rand(rng, (2, 5))
    err = check_gradients(
        lambda ts: T.tsum(T.log_softmax(ts[0], axis=1) * T.Tensor(tgt)), [x], rng, max_coords=10)
    assert err < 1e-6


def attention_inputs(rng, hd=6, out_b=1):
    """x [1, 2, 4, 4], six [hd] projections and an [out_b] output bias."""
    return [rand(rng, (1, 2, 4, 4)), *(rand(rng, (hd,)) for _ in range(6)), rand(rng, (out_b,))]


def test_window_attention_gradient_vs_fd():
    rng = np.random.default_rng(7)
    arrays = attention_inputs(rng)
    tgt = T.Tensor(rand(rng, (1, 2, 4, 4)))
    err = check_gradients(
        lambda ts: T.tsum(T.window_attention(*ts, window=2, heads=2) * tgt), arrays, rng,
        max_coords=8)
    assert err < 1e-6


def test_window_attention_rejects_mismatched_projections():
    rng = np.random.default_rng(8)
    disagreeing = attention_inputs(rng)
    disagreeing[3] = rand(rng, (4,))
    cases = {"(4,)": disagreeing, "(5,)": attention_inputs(rng, hd=5),
             "(2,)": attention_inputs(rng, out_b=2)}
    for shape, arrays in cases.items():
        with pytest.raises(T.ShapeError, match=re.escape(shape)):
            T.window_attention(*map(T.Tensor, arrays), window=2, heads=2)


# ---------------------------------------------------------------------------
# convolution


def ones_conv(shape, kshape, stride, pad, groups=1):
    x = T.Tensor(np.ones(shape))
    w = T.Tensor(np.ones(kshape))
    spec = T.ConvSpec(out_channels=kshape[0], kernel=kshape[2:], stride=stride, padding=pad, groups=groups)
    return T.conv2d(x, w, None, spec).data


def test_conv_overlap_counting():
    out = ones_conv((1, 1, 3, 3), (1, 1, 3, 3), (1, 1), (1, 1)).squeeze()
    np.testing.assert_array_equal(out, [[4, 6, 4], [6, 9, 6], [4, 6, 4]])


def test_conv_stride2_quarters_resolution():
    out = ones_conv((1, 1, 4, 4), (1, 1, 3, 3), (2, 2), (1, 1))
    assert out.shape == (1, 1, 2, 2)
    # two stride-2 applications: 16x16 -> 4x4
    mid = ones_conv((1, 1, 16, 16), (1, 1, 3, 3), (2, 2), (1, 1))
    assert mid.shape[2:] == (8, 8)


def test_conv_identity_kernel():
    rng = np.random.default_rng(7)
    x = T.Tensor(rand(rng, (2, 3, 5, 5)))
    w = np.zeros((3, 3, 1, 1))
    for i in range(3):
        w[i, i, 0, 0] = 1.0
    spec = T.ConvSpec(out_channels=3, kernel=(1, 1))
    out = T.conv2d(x, T.Tensor(w), None, spec)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv_floor_semantics_on_odd_extent():
    # 5x5, k3 s2 p0: the last row/col cannot fill a window and is dropped
    out = ones_conv((1, 1, 5, 5), (1, 1, 3, 3), (2, 2), (0, 0))
    assert out.shape == (1, 1, 2, 2)


def test_conv_kernel_too_large_raises():
    with pytest.raises(T.ShapeError):
        ones_conv((1, 1, 2, 2), (1, 1, 5, 5), (1, 1), (0, 0))


def test_conv_group_mismatch_raises():
    x = T.Tensor(np.ones((1, 3, 4, 4)))
    w = T.Tensor(np.ones((4, 1, 3, 3)))
    with pytest.raises(T.ShapeError):
        T.conv2d(x, w, None, T.ConvSpec(out_channels=4, kernel=(3, 3), groups=2))


def conv_reference(x, w, b, stride, padding, groups):
    """Direct nested-loop grouped cross-correlation (independent oracle)."""
    n, c, h, wd = x.shape
    oc, cg, kh, kw = w.shape
    (sh, sw), (ph, pw) = stride, padding
    xp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw))
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    ho, wo = (h + 2 * ph - kh) // sh + 1, (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, oc, ho, wo))
    for s in range(n):
        for o in range(oc):
            first = o // (oc // groups) * cg
            for i in range(ho):
                for j in range(wo):
                    acc = b[o]
                    for ci in range(cg):
                        for u in range(kh):
                            for v in range(kw):
                                acc += w[o, ci, u, v] * xp[s, first + ci, i * sh + u, j * sw + v]
                    out[s, o, i, j] = acc
    return out


CONV_CASES = {  # id: (input shape, spec)
    "1x1": ((2, 3, 4, 5), T.ConvSpec(4, (1, 1))),
    "3x3-s2-p1": ((2, 3, 6, 6), T.ConvSpec(4, (3, 3), (2, 2), (1, 1))),
    "5x5-depthwise-p2": ((1, 4, 6, 6), T.ConvSpec(4, (5, 5), (1, 1), (2, 2), groups=4)),
    "groups2": ((1, 4, 5, 5), T.ConvSpec(6, (3, 3), (1, 1), (1, 1), groups=2)),
    "1x3-s2x1-p0x1": ((1, 2, 5, 4), T.ConvSpec(3, (1, 3), (2, 1), (0, 1))),
    "odd-extent-drops-last-row": ((1, 2, 6, 5), T.ConvSpec(2, (3, 3), (2, 2), (0, 0))),
    "empty-batch": ((0, 3, 4, 4), T.ConvSpec(4, (3, 3), (2, 2), (1, 1))),
}


@pytest.mark.parametrize("case", CONV_CASES)
def test_conv_matches_nested_loop_reference(case):
    shape, spec = CONV_CASES[case]
    rng = np.random.default_rng(list(CONV_CASES).index(case))
    x = rand(rng, shape)
    w = rand(rng, (spec.out_channels, shape[1] // spec.groups, *spec.kernel))
    b = rand(rng, (spec.out_channels,))
    out = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), spec).data
    ref = conv_reference(x, w, b, spec.stride, spec.padding, spec.groups)
    assert out.shape == ref.shape
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)


def test_conv_gradient_vs_fd():
    rng = np.random.default_rng(8)
    spec = T.ConvSpec(out_channels=6, kernel=(3, 3), stride=(2, 2), padding=(1, 1))
    cases = [((2, 4, 5, 5), spec)] * 5 + [CONV_CASES["groups2"], CONV_CASES["1x3-s2x1-p0x1"]]
    for shape, spec in cases:
        x = rand(rng, shape)
        w = rand(rng, (spec.out_channels, shape[1] // spec.groups, *spec.kernel)) * 0.5
        b = rand(rng, (spec.out_channels,))
        err = check_gradients(
            lambda ts: T.tsum(T.conv2d(ts[0], ts[1], ts[2], spec) ** 2.0), [x, w, b], rng)
        assert err < 1e-5, spec


def test_depthwise_conv_gradient_vs_fd():
    rng = np.random.default_rng(9)
    spec = T.ConvSpec(out_channels=4, kernel=(3, 3), stride=(1, 1), padding=(1, 1), groups=4)
    # then the IA blocks' depth-wise conv
    cases = [((1, 4, 4, 4), spec)] * 5 + [CONV_CASES["5x5-depthwise-p2"]]
    for shape, spec in cases:
        x = rand(rng, shape)
        w = rand(rng, (spec.out_channels, 1, *spec.kernel))
        b = rand(rng, (spec.out_channels,))
        err = check_gradients(
            lambda ts: T.tsum(T.conv2d(ts[0], ts[1], ts[2], spec) ** 2.0), [x, w, b], rng)
        assert err < 1e-5, spec


def fuzz_conv_cases(count=40):
    """Seeded (input shape, ConvSpec) pairs: kernels 1-5 per axis, strides
    1-3 per axis (every third case stride 1, the next mixed (1, 2)), padding
    0-2 per axis, groups of 1, a middle divisor or depth-wise, any extent the
    kernel fits, batches of 0-2."""
    cases = []
    for seed in range(count):
        rng = np.random.default_rng(500 + seed)
        kh, kw = (int(v) for v in rng.integers(1, 6, size=2))
        ph, pw = (int(v) for v in rng.integers(0, 3, size=2))
        stride = ((1, 1), (1, 2), tuple(int(v) for v in rng.integers(1, 4, size=2)))[seed % 3]
        c = int(rng.choice([4, 6]))
        groups = (1, 2, c)[seed // 3 % 3]
        oc = c if groups == c else groups * int(rng.integers(1, 4))
        h = max(kh - 2 * ph, 1) + int(rng.integers(0, 6))
        w = max(kw - 2 * pw, 1) + int(rng.integers(0, 6))
        cases.append(((int(rng.integers(0, 3)), c, h, w),
                      T.ConvSpec(oc, (kh, kw), stride, (ph, pw), groups)))
    return cases


def test_conv_fuzz_matches_reference_and_finite_differences():
    cases = fuzz_conv_cases()
    # both grad_x paths, and the shapes that stress the indexing
    assert any(spec.stride == (1, 1) for _, spec in cases)
    assert any(spec.stride == (1, 2) for _, spec in cases)
    assert any(min(spec.stride) > 1 for _, spec in cases)
    assert any(spec.kernel[0] != spec.kernel[1] for _, spec in cases)
    assert any(spec.padding[0] > spec.kernel[0] - 1 for _, spec in cases)
    assert any((h + 2 * spec.padding[0] - spec.kernel[0]) % spec.stride[0]
               for (_, _, h, _), spec in cases)  # the floor drops rows
    assert {spec.groups == shape[1] for shape, spec in cases} == {True, False}
    assert any(1 < spec.groups < shape[1] for shape, spec in cases)
    assert {shape[0] for shape, _ in cases} == {0, 1, 2}
    for i, (shape, spec) in enumerate(cases):
        rng = np.random.default_rng(i)
        x = rand(rng, shape)
        w = rand(rng, (spec.out_channels, shape[1] // spec.groups, *spec.kernel))
        b = rand(rng, (spec.out_channels,))
        out = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), spec).data
        ref = conv_reference(x, w, b, spec.stride, spec.padding, spec.groups)
        assert out.shape == ref.shape, (shape, spec)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12, err_msg=f"{shape} {spec}")
        err = check_gradients(
            lambda ts: T.tsum(T.conv2d(ts[0], ts[1], ts[2], spec) ** 2.0), [x, w, b], rng)
        assert err < 1e-5, (shape, spec)


# ---------------------------------------------------------------------------
# batch norm


def bn_buffers(c):
    return np.zeros(c), np.ones(c)


def test_batchnorm_standardized_input_passthrough():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(4, 3, 8, 8))
    x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
    rm, rv = bn_buffers(3)
    out = T.batchnorm2d(T.Tensor(x), T.ones((3,)), T.zeros((3,)), rm, rv, training=True)
    np.testing.assert_allclose(out.data, x, atol=1e-4)


def test_batchnorm_constant_input_gives_beta():
    rm, rv = bn_buffers(2)
    x = T.Tensor(np.full((2, 2, 4, 4), 7.0))
    beta = T.tensor_from([2], [1.5, -0.5])
    out = T.batchnorm2d(x, T.ones((2,)), beta, rm, rv, training=True)
    np.testing.assert_allclose(out.data[:, 0], 1.5, atol=1e-6)
    np.testing.assert_allclose(out.data[:, 1], -0.5, atol=1e-6)


def test_batchnorm_channel_mismatch():
    rm, rv = bn_buffers(2)
    with pytest.raises(T.ShapeError):
        T.batchnorm2d(T.zeros((1, 3, 2, 2)), T.ones((2,)), T.zeros((2,)), rm, rv, True)


def test_batchnorm_gradient_vs_fd():
    # note: sum(out**2) is degenerate here (exactly invariant to the input
    # through the normalization), so probe with a random linear functional
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rand(rng, (2, 3, 4, 4))
        gm = rand(rng, (3,)) + 1.5
        bt = rand(rng, (3,))
        tgt = T.Tensor(rand(rng, (2, 3, 4, 4)))

        def build(ts):
            rm, rv = bn_buffers(3)
            out = T.batchnorm2d(ts[0], ts[1], ts[2], rm, rv, training=True)
            return T.tsum(out * tgt)

        err = check_gradients(build, [x, gm, bt], rng, max_coords=10)
        assert err < 1e-4


def test_batchnorm_running_stats_after_one_training_call():
    # channel 0 holds four 0s and four 2s (mean 1, biased variance 1, unbiased
    # 8/7); channel 1 holds 1..8 (mean 4.5, biased variance 5.25, unbiased 6)
    x = np.zeros((2, 2, 2, 2))
    x[1, 0] = 2.0
    x[:, 1] = np.arange(1.0, 9.0).reshape(2, 2, 2)
    rm = np.array([5.0, 0.0])
    rv = np.array([3.0, 1.0])
    T.batchnorm2d(T.Tensor(x), T.ones((2,)), T.zeros((2,)), rm, rv, training=True)
    # 0.9·old + 0.1·batch
    np.testing.assert_allclose(rm, [4.6, 0.45], rtol=1e-12)
    np.testing.assert_allclose(rv, [2.8, 1.425], rtol=1e-12)


def test_batchnorm_eval_uses_running_stats():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 2, 4, 4))
    rm = np.array([1.0, -1.0])
    rv = np.array([4.0, 0.25])
    out = T.batchnorm2d(T.Tensor(x), T.ones((2,)), T.zeros((2,)), rm, rv, training=False)
    expect = (x - rm.reshape(1, 2, 1, 1)) / np.sqrt(rv.reshape(1, 2, 1, 1) + T.BN_EPS)
    np.testing.assert_allclose(out.data, expect, rtol=1e-6)
    # eval mode must not touch the buffers
    np.testing.assert_array_equal(rm, [1.0, -1.0])


@pytest.mark.parametrize("case", ["1x1", "3x3-s2-p1"])
def test_batchnorm_in_training_cancels_a_conv_bias(case):
    # why the network's convs that feed a training-mode BN have no bias: the
    # batch mean subtracts it, so it changes no output and gets no gradient
    shape, spec = CONV_CASES[case]
    rng = np.random.default_rng(13)
    x, gamma, beta = rand(rng, shape), rand(rng, (4,)), rand(rng, (4,))
    w = rand(rng, (4, shape[1], *spec.kernel))
    tgt = rand(rng, T.conv2d(T.Tensor(x), T.Tensor(w), None, spec).shape)

    def step(bias):
        wt = T.Tensor(w, requires_grad=True)
        with T.Tape():
            out = T.batchnorm2d(T.conv2d(T.Tensor(x), wt, bias, spec), T.Tensor(gamma),
                                T.Tensor(beta), *bn_buffers(4), training=True)
            T.backward(T.tsum(out * T.Tensor(tgt)))
        return out.data, wt.grad

    bias = T.Tensor(rand(rng, (4,)), requires_grad=True)
    out_b, grad_w = step(bias)
    out_none, _ = step(None)
    np.testing.assert_allclose(out_b, out_none, rtol=0, atol=1e-12)
    assert np.linalg.norm(bias.grad) <= 1e-12 * np.linalg.norm(grad_w)


# ---------------------------------------------------------------------------
# bilinear upsampling


def bilinear_reference(img, scale):
    """Direct evaluation of the half-pixel formula (independent oracle)."""
    h, w = img.shape
    out = np.zeros((h * scale, w * scale))
    for i in range(h * scale):
        for j in range(w * scale):
            sy = (i + 0.5) / scale - 0.5
            sx = (j + 0.5) / scale - 0.5
            y0, x0 = math.floor(sy), math.floor(sx)
            fy, fx = sy - y0, sx - x0
            y0c, y1c = min(max(y0, 0), h - 1), min(max(y0 + 1, 0), h - 1)
            x0c, x1c = min(max(x0, 0), w - 1), min(max(x0 + 1, 0), w - 1)
            out[i, j] = ((1 - fy) * (1 - fx) * img[y0c, x0c]
                         + (1 - fy) * fx * img[y0c, x1c]
                         + fy * (1 - fx) * img[y1c, x0c]
                         + fy * fx * img[y1c, x1c])
    return out


def test_upsample_constant_stays_constant():
    x = T.Tensor(np.full((1, 2, 3, 3), 2.5))
    out = T.bilinear_upsample(x, 2)
    assert out.shape == (1, 2, 6, 6)
    np.testing.assert_allclose(out.data, 2.5)


def test_upsample_scale_one_is_identity():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(1, 1, 4, 4))
    out = T.bilinear_upsample(T.Tensor(x), 1)
    np.testing.assert_array_equal(out.data, x)


def test_upsample_matches_half_pixel_formula():
    square = np.array([[1.0, 2.0], [3.0, 4.0]])
    wide = np.random.default_rng(15).normal(size=(3, 5))
    for img, scale in ((square, 2), (square, 4), (wide, 2), (wide, 4)):
        out = T.bilinear_upsample(T.Tensor(img[None, None]), scale).data[0, 0]
        np.testing.assert_allclose(out, bilinear_reference(img, scale), rtol=1e-6,
                                   err_msg=f"{img.shape} map at scale {scale}")


def test_upsample_matrices_are_cached_read_only_per_dtype():
    a = T.bilinear_matrix(3, 6, np.dtype(np.float32))
    assert T.bilinear_matrix(3, 6, np.dtype(np.float32)) is a
    assert a.dtype == np.float32
    with pytest.raises(ValueError):
        a[0, 0] = 0.0
    b = T.bilinear_matrix(3, 6, np.dtype(np.float64))
    assert b.dtype == np.float64 and not b.flags.writeable
    np.testing.assert_array_equal(a, b.astype(np.float32))


def test_upsample_rejects_bad_scale():
    with pytest.raises(ValueError):
        T.bilinear_upsample(T.zeros((1, 1, 2, 2)), 0)


def test_upsample_gradient_vs_fd():
    rng = np.random.default_rng(14)
    x = rand(rng, (1, 2, 3, 3))
    tgt = rand(rng, (1, 2, 6, 6))
    err = check_gradients(
        lambda ts: T.tsum(T.bilinear_upsample(ts[0], 2) * T.Tensor(tgt)), [x], rng, max_coords=18)
    assert err < 1e-6


# ---------------------------------------------------------------------------
# pooling


def test_global_avg_pool_values():
    x = T.Tensor(np.ones((1, 2, 2, 2)))
    np.testing.assert_array_equal(T.global_avg_pool(x).data, [[1.0, 1.0]])
    y = T.tensor_from([1, 1, 2, 2], [1, 2, 3, 4])
    np.testing.assert_array_equal(T.global_avg_pool(y).data, [[2.5]])


def test_global_avg_pool_gradient():
    x = T.Tensor(np.arange(4.0).reshape(1, 1, 2, 2), requires_grad=True)
    with T.Tape():
        T.backward(T.tsum(T.global_avg_pool(x)))
    np.testing.assert_allclose(x.grad, np.full((1, 1, 2, 2), 0.25))


# ---------------------------------------------------------------------------
# layout ops


def test_reshape_round_trip_bit_exact():
    rng = np.random.default_rng(15)
    x = T.Tensor(rng.normal(size=(1, 4, 4, 4)).astype(np.float32))
    back = T.reshape(T.reshape(x, (4, 4, 4)), (1, 4, 4, 4))
    np.testing.assert_array_equal(back.data, x.data)


def test_concat_channels():
    a = T.zeros((1, 2, 4, 4))
    b = T.ones((1, 2, 4, 4))
    out = T.concat([a, b], axis=1)
    assert out.shape == (1, 4, 4, 4)
    np.testing.assert_array_equal(out.data[:, :2], 0.0)
    np.testing.assert_array_equal(out.data[:, 2:], 1.0)


def test_concat_mismatch_raises():
    with pytest.raises(T.ShapeError):
        T.concat([T.zeros((1, 2, 4, 4)), T.zeros((1, 2, 3, 4))], axis=1)


def test_slice_and_gradient():
    rng = np.random.default_rng(16)
    x = rand(rng, (2, 5, 3))
    err = check_gradients(
        lambda ts: T.tsum(T.slice_axis(ts[0], 1, 1, 3) ** 2.0), [x], rng, max_coords=12)
    assert err < 1e-6


def test_transpose_gradient():
    rng = np.random.default_rng(17)
    x = rand(rng, (2, 3, 4))
    tgt = rand(rng, (4, 2, 3))
    err = check_gradients(
        lambda ts: T.tsum(T.transpose(ts[0], (2, 0, 1)) * T.Tensor(tgt)), [x], rng, max_coords=10)
    assert err < 1e-6


def test_transpose_negative_axes_gradient():
    rng = np.random.default_rng(19)
    x = T.Tensor(rand(rng, (2, 3, 4)), requires_grad=True)
    w = rand(rng, (4, 2, 3))
    with T.Tape():
        out = T.transpose(x, (-1, 0, 1))
        np.testing.assert_array_equal(out.data, np.transpose(x.data, (2, 0, 1)))
        T.backward(T.tsum(out * T.Tensor(w)))
    np.testing.assert_array_equal(x.grad, np.transpose(w, (1, 2, 0)))
    with pytest.raises(ValueError):
        T.transpose(x, (3, 0, 1))
    err = check_gradients(
        lambda ts: T.tsum(T.transpose(ts[0], (-1, 0, 1)) * T.Tensor(w)), [x.data], rng,
        max_coords=10)
    assert err < 1e-6


def test_concat_negative_axis():
    a = T.Tensor(np.ones((2, 3)), requires_grad=True)
    b = T.Tensor(np.ones((2, 4)), requires_grad=True)
    g = np.arange(14.0).reshape(2, 7)
    with T.Tape():
        out = T.concat([a, b], axis=-1)
        assert out.shape == (2, 7)
        T.backward(T.tsum(out * T.Tensor(g)))
    np.testing.assert_array_equal(a.grad, g[:, :3])
    np.testing.assert_array_equal(b.grad, g[:, 3:])
    with pytest.raises(T.ShapeError):
        T.concat([a, b], axis=2)


def test_slice_axis_rejects_out_of_range_axes():
    x = T.Tensor(np.arange(24.0).reshape(2, 3, 4))
    for axis in (5, 3, -4):
        with pytest.raises(T.ShapeError, match=f"slice axis {axis} out of range"):
            T.slice_axis(x, axis, 0, 1)
    np.testing.assert_array_equal(T.slice_axis(x, -1, 1, 3).data, x.data[:, :, 1:3])
    np.testing.assert_array_equal(T.slice_axis(x, -3, 1, 2).data, x.data[1:2])


def test_concat_slice_round_trip_bit_exact():
    rng = np.random.default_rng(18)
    a = rng.normal(size=(2, 3, 4)).astype(np.float32)
    b = rng.normal(size=(2, 2, 4)).astype(np.float32)
    cat = T.concat([T.Tensor(a), T.Tensor(b)], axis=1)
    np.testing.assert_array_equal(T.slice_axis(cat, 1, 0, 3).data, a)
    np.testing.assert_array_equal(T.slice_axis(cat, 1, 3, 5).data, b)


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    x = T.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    with T.Tape():
        T.backward(T.tsum(x))
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_quadratic():
    x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with T.Tape():
        T.backward(T.tsum(x * x))
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.Tape():
        y = x * 2.0
        with pytest.raises(T.ShapeError):
            T.backward(y)


def test_backward_rejects_detached():
    x = T.Tensor(np.ones(3), requires_grad=True)
    y = T.tsum(x)  # no active tape
    with pytest.raises(T.TapeError):
        T.backward(y)


def test_tape_requires_reset_between_backwards():
    x = T.Tensor(np.ones(2), requires_grad=True)
    with T.Tape():
        loss = T.tsum(x)
        T.backward(loss)
        with pytest.raises(T.TapeError):
            T.tsum(x * 2.0)
    with T.Tape():  # a consumed tape records nothing; the next step opens a new one
        T.backward(T.tsum(x * 3.0))
    np.testing.assert_array_equal(x.grad, [4.0, 4.0])  # 1 + 3 accumulated


def test_consumed_tape_dies_with_its_step(no_cycle_collector):
    w = T.Tensor(np.ones((3, 3)), requires_grad=True)  # outlives every step, like a parameter

    def step():
        with T.Tape() as tape:
            T.backward(T.tsum(T.gelu(T.matmul(w, w)) * 2.0))
        return weakref.ref(tape)

    ref = step()
    assert ref() is None  # freed by refcount: no closure holds a Tensor
    assert w.grad is not None


def test_tape_determinism():
    def run(seed):
        rng = np.random.default_rng(seed)
        x = T.Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32), requires_grad=True)
        w = T.Tensor(rng.normal(size=(3, 3, 3, 3)).astype(np.float32), requires_grad=True)
        with T.Tape():
            out = T.conv2d(x, w, None, T.ConvSpec(out_channels=3, kernel=(3, 3), padding=(1, 1)))
            loss = T.tsum(T.gelu(out) ** 2.0)
            T.backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run(42)
    l2, gx2, gw2 = run(42)
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_array_equal(gx1, gx2)
    np.testing.assert_array_equal(gw1, gw2)


def test_finite_check_mode_flags_nan():
    x = T.Tensor(np.array([1.0, -1.0]))
    T.CHECK_FINITE = True
    try:
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            T.log(x)  # log of a negative produces nan
    finally:
        T.CHECK_FINITE = False


# ---------------------------------------------------------------------------
# finite-difference property sweep (one pass over every differentiable op)


def test_fd_property_sweep():
    rng = np.random.default_rng(19)
    elementwise = [
        ("add", lambda ts: T.tsum((ts[0] + ts[1]) ** 2.0), [(3, 4), (3, 4)]),
        ("sub", lambda ts: T.tsum((ts[0] - ts[1]) ** 2.0), [(3, 4), (3, 4)]),
        ("mul", lambda ts: T.tsum(ts[0] * ts[1]), [(3, 4), (3, 4)]),
        ("div", lambda ts: T.tsum(ts[0] / (ts[1] * ts[1] + 1.0)), [(3, 4), (3, 4)]),
        ("exp", lambda ts: T.tsum(T.exp(ts[0])), [(10,)]),
        ("log", lambda ts: T.tsum(T.log(ts[0] * ts[0] + 0.5)), [(10,)]),
        ("sqrt", lambda ts: T.tsum(T.sqrt(ts[0] * ts[0] + 0.5)), [(10,)]),
    ]
    for name, build, shapes in elementwise:
        for _ in range(10):
            arrays = [rand(rng, s) for s in shapes]
            err = check_gradients(build, arrays, rng, max_coords=6)
            assert err < 1e-6, f"{name}: rel err {err}"

    structural = [
        ("mean", lambda ts: T.tmean(ts[0] * ts[0], axis=(0, 2)).sum(), [(2, 3, 4)]),
        ("gap", lambda ts: T.tsum(T.global_avg_pool(ts[0]) ** 2.0), [(2, 3, 4, 4)]),
        ("upsample", lambda ts: T.tsum(T.bilinear_upsample(ts[0], 2) ** 2.0), [(1, 2, 3, 3)]),
        ("softmax", lambda ts: T.tsum(T.softmax(ts[0], axis=1) ** 2.0), [(3, 5)]),
        ("concat", lambda ts: T.tsum(T.concat([ts[0], ts[1]], axis=0) ** 2.0), [(2, 3), (1, 3)]),
    ]
    for name, build, shapes in structural:
        for _ in range(10):
            arrays = [rand(rng, s) for s in shapes]
            err = check_gradients(build, arrays, rng, max_coords=6)
            assert err < 1e-4, f"{name}: rel err {err}"
