"""Building blocks: identity behavior of zeroed residual branches, shape
contracts, attention invariants, and gradient checks."""

import math

import numpy as np
import pytest

import hiresnet.tensor as T
from hiresnet import blocks
from hiresnet.blocks import WindowSpec
from hiresnet.gradcheck import check_store_gradients
from hiresnet.params import build, record


def make_store(forward, rng, dtype=np.float64):
    """The parameters `forward(store)` creates, drawn from `rng`."""
    return build(record(forward, dtype), rng, dtype)


def empty(c, h=4, w=4):
    """An N = 0 batch: it carries the shapes a record pass needs."""
    return T.Tensor(np.zeros((0, c, h, w)))


def zero_params(store, keys):
    for name, t in store.params():
        if any(key in name for key in keys):
            t.data[...] = 0.0


# ---------------------------------------------------------------------------
# inverted bottleneck


def test_ib_block_zeroed_is_identity():
    rng = np.random.default_rng(0)
    store = make_store(lambda s: blocks.ib_block(empty(4), s, "ib", False), rng)
    zero_params(store, ("conv",))
    x = T.Tensor(rng.normal(size=(2, 4, 6, 6)))
    # eval mode with the fresh (0, 1) running stats bypasses batch statistics
    out = blocks.ib_block(x, store, "ib", training=False)
    np.testing.assert_allclose(out.data, x.data, atol=1e-12)


@pytest.mark.parametrize("shape", [(1, 4, 6, 6), (3, 8, 4, 4)])
def test_ib_block_preserves_shape(shape):
    rng = np.random.default_rng(1)
    store = make_store(lambda s: blocks.ib_block(empty(shape[1]), s, "ib", False), rng)
    x = T.Tensor(rng.normal(size=shape))
    assert blocks.ib_block(x, store, "ib", training=True).shape == shape


def test_ib_block_gradients_vs_fd():
    rng = np.random.default_rng(2)
    for _ in range(3):
        store = make_store(lambda s: blocks.ib_block(empty(3), s, "ib", False), rng)
        x = rng.normal(size=(1, 3, 4, 4))
        tgt = T.Tensor(rng.normal(size=(1, 3, 4, 4)))
        err = check_store_gradients(
            lambda ts: T.tsum(blocks.ib_block(ts[0], store, "ib", training=True) * tgt),
            store, [x], rng)
        assert err < 1e-3


# ---------------------------------------------------------------------------
# SE attention


def test_se_saturated_gate_is_identity():
    rng = np.random.default_rng(3)
    store = make_store(lambda s: blocks.se_attention(empty(4), s, "se", 2), rng)
    zero_params(store, ("fc",))
    store["se.fc2.bias"].data[...] = 50.0  # sigmoid saturates to 1
    x = T.Tensor(rng.normal(size=(2, 4, 3, 3)))
    out = blocks.se_attention(x, store, "se", 2)
    np.testing.assert_allclose(out.data, x.data, atol=1e-9)


def test_se_half_gate_scales_by_half():
    rng = np.random.default_rng(4)
    store = make_store(lambda s: blocks.se_attention(empty(4), s, "se", 2), rng)
    zero_params(store, ("fc",))  # zero logits -> sigmoid gate is exactly 0.5
    x = T.Tensor(rng.normal(size=(1, 4, 2, 2)))
    out = blocks.se_attention(x, store, "se", 2)
    np.testing.assert_allclose(out.data, 0.5 * x.data, atol=1e-12)


def test_se_requires_divisible_ratio():
    with pytest.raises(T.ShapeError):
        make_store(lambda s: blocks.se_attention(empty(6), s, "se", 4), np.random.default_rng(0))


def test_se_gradients_vs_fd():
    rng = np.random.default_rng(5)
    for _ in range(3):
        store = make_store(lambda s: blocks.se_attention(empty(4), s, "se", 2), rng)
        x = rng.normal(size=(1, 4, 2, 2))
        err = check_store_gradients(
            lambda ts: T.tsum(blocks.se_attention(ts[0], store, "se", 2) ** 2.0),
            store, [x], rng)
        assert err < 1e-4


# ---------------------------------------------------------------------------
# window attention


def window_partition(x, window):
    """[N, C, H, W] -> [N·C·(H/window)·(W/window), window, window] on the tape."""
    n, c, h, w = x.shape
    gh, gw = h // window, w // window
    t = T.reshape(x, (n, c, gh, window, gw, window))
    t = T.transpose(t, (0, 1, 2, 4, 3, 5))
    return T.reshape(t, (n * c * gh * gw, window, window))


def window_merge(t, n, c, h, w, window):
    """The inverse of window_partition."""
    gh, gw = h // window, w // window
    t = T.reshape(t, (n, c, gh, gw, window, window))
    t = T.transpose(t, (0, 1, 2, 4, 3, 5))
    return T.reshape(t, (n, c, h, w))


def test_window_reshape_round_trip():
    rng = np.random.default_rng(6)
    x = T.Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32))
    win = window_partition(x, 2)
    assert win.shape == (8, 2, 2)
    back = window_merge(win, 1, 2, 4, 4, 2)
    np.testing.assert_array_equal(back.data, x.data)


def test_window_partition_batched_round_trip():
    rng = np.random.default_rng(7)
    x = T.Tensor(rng.normal(size=(3, 5, 8, 12)).astype(np.float32))
    win = window_partition(x, 4)
    assert win.shape == (3 * 5 * 2 * 3, 4, 4)
    back = window_merge(win, 3, 5, 8, 12, 4)
    np.testing.assert_array_equal(back.data, x.data)


def test_wmhsa_zero_value_and_out_proj_is_identity():
    rng = np.random.default_rng(8)
    store = make_store(lambda s: blocks.wmhsa(empty(2), s, "attn", WindowSpec(2, 2, 3)), rng)
    store["attn.v.weight"].data[...] = 0.0
    store["attn.out.weight"].data[...] = 0.0
    x = T.Tensor(rng.normal(size=(1, 2, 4, 4)))
    out = blocks.wmhsa(x, store, "attn", WindowSpec(2, 2, 3))
    np.testing.assert_allclose(out.data, x.data, atol=1e-12)


def test_wmhsa_attention_rows_sum_to_one():
    rng = np.random.default_rng(9)
    store = make_store(lambda s: blocks.wmhsa(empty(3), s, "attn", WindowSpec(4, 2, 4)), rng)
    x = T.Tensor(rng.normal(size=(2, 3, 8, 8)) * 3.0)
    _, attn = blocks.wmhsa(x, store, "attn", WindowSpec(4, 2, 4), return_attn=True)
    np.testing.assert_allclose(attn.data.sum(axis=-1), 1.0, atol=1e-6)


def test_wmhsa_constant_window_gives_constant_output():
    # identical tokens: attention is uniform by symmetry, output constant
    rng = np.random.default_rng(10)
    store = make_store(lambda s: blocks.wmhsa(empty(1), s, "attn", WindowSpec(4, 2, 4)), rng)
    x = T.Tensor(np.full((1, 1, 4, 4), 0.7))
    out = blocks.wmhsa(x, store, "attn", WindowSpec(4, 2, 4))
    np.testing.assert_allclose(out.data, out.data.reshape(-1)[0], rtol=1e-10)


def test_wmhsa_rejects_indivisible_window():
    rng = np.random.default_rng(11)
    store = make_store(lambda s: blocks.wmhsa(empty(1), s, "attn", WindowSpec(2, 1, 2)), rng)
    x = T.Tensor(np.zeros((1, 1, 5, 4)))
    with pytest.raises(T.ShapeError):
        blocks.wmhsa(x, store, "attn", WindowSpec(2, 1, 2))


def test_wmhsa_gradients_vs_fd():
    rng = np.random.default_rng(12)
    for _ in range(3):
        store = make_store(lambda s: blocks.wmhsa(empty(2), s, "attn", WindowSpec(2, 2, 2)), rng)
        x = rng.normal(size=(1, 2, 4, 4))
        err = check_store_gradients(
            lambda ts: T.tsum(blocks.wmhsa(ts[0], store, "attn", WindowSpec(2, 2, 2)) ** 2.0),
            store, [x], rng)
        assert err < 1e-4


def test_wmhsa_records_one_tape_node():
    rng = np.random.default_rng(13)
    spec = WindowSpec(2, 2, 3)
    store = make_store(lambda s: blocks.wmhsa(empty(2), s, "attn", spec), rng)
    x = T.Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
    with T.Tape() as tape:
        blocks.wmhsa(x, store, "attn", spec)
        blocks.wmhsa(x, store, "attn", spec)
    assert sum(node.backward is not None for node in tape.nodes) == 2


def lifted_wmhsa(x, store, prefix, spec, k_bias=None):
    """Reference window attention: every scalar token lifted to per-head
    Q/K/V vectors, scores as a batched matmul, heads merged by the output
    projection. `k_bias` adds a key bias the store does not hold."""
    n, c, h, w = x.shape
    L, heads, dh = spec.window, spec.heads, spec.head_dim
    tok = T.reshape(window_partition(x, L), (-1, L * L, 1))
    b, t = tok.shape[0], L * L

    def lift(name, bias):
        p = tok * store[f"{prefix}.{name}.weight"] + bias
        return T.transpose(T.reshape(p, (b, t, heads, dh)), (0, 2, 1, 3))

    q = lift("q", store[f"{prefix}.q.bias"])
    k = lift("k", 0.0 if k_bias is None else k_bias)
    v = lift("v", store[f"{prefix}.v.bias"])
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
    attn = T.softmax(scores, axis=-1)
    ctx = T.matmul(attn, v)
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, t, heads * dh))
    out = T.tsum(ctx * store[f"{prefix}.out.weight"], axis=-1, keepdims=True)
    out = out + store[f"{prefix}.out.bias"]
    out = window_merge(T.reshape(out, (b, L, L)), n, c, h, w, L)
    return out + x


def random_wmhsa_store(rng, heads, head_dim, dtype):
    spec = WindowSpec(1, heads, head_dim)
    store = make_store(lambda s: blocks.wmhsa(empty(1, 1, 1), s, "attn", spec), rng, dtype)
    for _, t in store.params():  # non-zero biases, weights of order one
        t.data[...] = rng.normal(size=t.data.shape)
    return store


def grads_of(forward, x_arr, store, tgt):
    x = T.Tensor(x_arr.copy(), requires_grad=True)
    store.zero_grads()
    with T.Tape():
        out = forward(x)
        T.backward(T.tsum(out * tgt))
    return out.data, x.grad, {name: t.grad for name, t in store.params()}


def norm_rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# float64 must agree to round-off; float32 to sqrt(eps), half its digits
REFERENCE_TOL = {np.float64: 1e-12, np.float32: float(np.sqrt(np.finfo(np.float32).eps))}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("window,heads,head_dim",
                         [(2, 1, 1), (2, 3, 8), (4, 2, 4), (4, 1, 8), (7, 3, 2), (7, 2, 8)])
def test_wmhsa_matches_lifted_reference(dtype, window, heads, head_dim):
    rng = np.random.default_rng(100 + 10 * window + heads)
    store = random_wmhsa_store(rng, heads, head_dim, dtype)
    spec = WindowSpec(window, heads, head_dim)
    x = (rng.normal(size=(2, 3, 2 * window, window)) * 1.5).astype(dtype)
    assert_matches_lifted_reference(x, store, spec, rng)


def assert_matches_lifted_reference(x, store, spec, rng):
    """wmhsa's output, input gradient and parameter gradients against
    lifted_wmhsa's, at REFERENCE_TOL for x's dtype."""
    tgt = T.Tensor(rng.normal(size=x.shape).astype(x.dtype))
    fused = grads_of(lambda t: blocks.wmhsa(t, store, "attn", spec), x, store, tgt)
    ref = grads_of(lambda t: lifted_wmhsa(t, store, "attn", spec), x, store, tgt)
    tol = REFERENCE_TOL[x.dtype.type]
    assert norm_rel(fused[0], ref[0]) <= tol
    assert norm_rel(fused[1], ref[1]) <= tol
    assert set(fused[2]) == set(ref[2])
    for name in ref[2]:
        assert norm_rel(fused[2][name], ref[2][name]) <= tol, name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_wmhsa_matches_lifted_reference_across_attention_blocks(dtype):
    # 256 windows of 49 tokens: 54 per float32 block and 27 per float64 block,
    # so several full blocks and a partial last one
    rng = np.random.default_rng(23)
    store = random_wmhsa_store(rng, 2, 4, dtype)
    spec = WindowSpec(7, 2, 4)
    x = (rng.normal(size=(2, 8, 28, 28)) * 1.5).astype(dtype)
    windows, per_block = 256, T._ATTN_BLOCK_BYTES // (2 * 49 * 49 * np.dtype(dtype).itemsize)
    assert 1 < per_block < windows and windows % per_block
    assert_matches_lifted_reference(x, store, spec, rng)
    _, attn = blocks.wmhsa(T.Tensor(x), store, "attn", spec, return_attn=True)
    assert attn.shape == (windows, 2, 49, 49)
    np.testing.assert_allclose(attn.data.sum(axis=-1), 1.0, rtol=10 * np.finfo(dtype).eps)


def test_wmhsa_key_bias_has_no_effect():
    # a key bias adds a term constant along the softmax axis, so it cancels
    rng = np.random.default_rng(20)
    store = random_wmhsa_store(rng, 2, 4, np.float64)
    spec = WindowSpec(4, 2, 4)
    x = T.Tensor(rng.normal(size=(1, 2, 8, 8)))
    k_bias = T.Tensor(rng.normal(size=8) * 3.0)
    ref = lifted_wmhsa(x, store, "attn", spec, k_bias=k_bias)
    out = blocks.wmhsa(x, store, "attn", spec)
    assert norm_rel(out.data, ref.data) <= 1e-12


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_wmhsa_large_tokens_stay_finite(dtype):
    # scores u_i x_j reach ~1e6 here; exp overflows unless the exact row max is taken off
    rng = np.random.default_rng(21)
    store = random_wmhsa_store(rng, 2, 4, dtype)
    spec = WindowSpec(4, 2, 4)
    x = T.Tensor((rng.normal(size=(2, 2, 8, 8)) * 1e3).astype(dtype), requires_grad=True)
    with T.Tape():
        out, attn = blocks.wmhsa(x, store, "attn", spec, return_attn=True)
        T.backward(T.tsum(out))
    qk = (store["attn.q.weight"].data * store["attn.k.weight"].data).reshape(2, 4)
    largest_score = np.abs(qk.sum(axis=1) / 2.0).max() * np.abs(x.data).max() ** 2
    assert largest_score > np.log(np.finfo(dtype).max)  # exp(score) alone would overflow
    assert np.all(np.isfinite(out.data))
    assert np.all(np.isfinite(x.grad))
    np.testing.assert_allclose(attn.data.sum(axis=-1), 1.0, rtol=10 * np.finfo(dtype).eps)


def test_wmhsa_zero_query_gives_uniform_attention():
    # u_i = alpha x_i + gamma = 0 for every token: each row attends uniformly
    rng = np.random.default_rng(22)
    store = random_wmhsa_store(rng, 2, 3, np.float64)
    store["attn.q.weight"].data[...] = 0.0
    store["attn.q.bias"].data[...] = 0.0
    spec = WindowSpec(4, 2, 3)
    x = T.Tensor(rng.normal(size=(1, 2, 4, 4)))
    out, attn = blocks.wmhsa(x, store, "attn", spec, return_attn=True)
    np.testing.assert_allclose(attn.data, 1.0 / 16, rtol=1e-14)
    beta = np.sum(store["attn.v.weight"].data * store["attn.out.weight"].data)
    delta = (np.sum(store["attn.v.bias"].data * store["attn.out.weight"].data)
             + store["attn.out.bias"].data[0])
    window_mean = x.data.mean(axis=(2, 3), keepdims=True)
    np.testing.assert_allclose(out.data, x.data + beta * window_mean + delta, rtol=1e-12)


# ---------------------------------------------------------------------------
# information aggregation block


def ia_store(rng, c=4, heads=2, head_dim=2, dw_kernel=3, se_ratio=2):
    spec = WindowSpec(1, heads, head_dim)
    return make_store(lambda s: blocks.ia_block(empty(c), s, "ia", spec, dw_kernel, se_ratio), rng)


def test_ia_block_zeroed_projection_is_identity():
    rng = np.random.default_rng(13)
    store = ia_store(rng)
    zero_params(store, ("proj",))
    x = T.Tensor(rng.normal(size=(2, 4, 4, 4)))
    out = blocks.ia_block(x, store, "ia", WindowSpec(2, 2, 2), 3, 2)
    np.testing.assert_allclose(out.data, x.data, atol=1e-12)


@pytest.mark.parametrize("c,hw", [(4, 8), (8, 8), (4, 16), (8, 16)])
def test_ia_block_shape_contract(c, hw):
    rng = np.random.default_rng(14)
    store = make_store(lambda s: blocks.ia_block(empty(c), s, "ia", WindowSpec(4, 2, 2), 5, 2), rng)
    x = T.Tensor(rng.normal(size=(2, c, hw, hw)))
    out = blocks.ia_block(x, store, "ia", WindowSpec(4, 2, 2), 5, 2)
    assert out.shape == (2, c, hw, hw)


def test_ia_block_parameter_count_closed_form():
    rng = np.random.default_rng(15)
    store = make_store(lambda s: blocks.ia_block(empty(48), s, "ia", WindowSpec(4, 2, 8), 5, 4), rng)
    expected = blocks.ia_block_param_count(48, 2, 8, 5, 4)
    assert store.count_learnable() == expected


def test_ia_block_fewer_params_than_basic_block():
    # directional check at equal widths; holds from small widths upward
    rng = np.random.default_rng(16)
    for c in (32, 48, 64):
        ia = make_store(lambda s: blocks.ia_block(empty(c), s, "b", WindowSpec(4, 2, 8), 5, 4), rng)
        basic = make_store(lambda s: blocks.basic_block(empty(c), s, "b", False), rng)
        assert ia.count_learnable() < basic.count_learnable()


def test_ia_block_gradients_vs_fd():
    rng = np.random.default_rng(17)
    for _ in range(3):
        store = ia_store(rng)
        x = rng.normal(size=(1, 4, 4, 4))
        err = check_store_gradients(
            lambda ts: T.tsum(blocks.ia_block(ts[0], store, "ia", WindowSpec(2, 2, 2), 3, 2) ** 2.0),
            store, [x], rng)
        assert err < 1e-3


def test_ia_block_no_dead_parameters():
    rng = np.random.default_rng(18)
    store = make_store(lambda s: blocks.ia_block(empty(4), s, "ia", WindowSpec(2, 2, 2), 3, 2),
                       rng, np.float32)
    x = T.Tensor(rng.normal(size=(2, 4, 4, 4)).astype(np.float32))
    store.zero_grads()
    with T.Tape():
        out = blocks.ia_block(x, store, "ia", WindowSpec(2, 2, 2), 3, 2)
        T.backward(T.tsum(out ** 2.0))
    # a gradient counts as dead below 1e-5 of the largest one in the store;
    # float32 round-off alone reaches ~1e-9 of it, the smallest live one ~5e-3
    for name, t in store.params():
        assert t.grad is not None, name
    peak = {name: np.max(np.abs(t.grad)) for name, t in store.params()}
    top = max(peak.values())
    for name, g in peak.items():
        assert g > 1e-5 * top, f"{name}: |g| {g:.2e} vs largest {top:.2e}"


def test_basic_block_zeroed_is_identity():
    rng = np.random.default_rng(19)
    store = make_store(lambda s: blocks.basic_block(empty(4), s, "b", False), rng)
    zero_params(store, ("conv",))
    x = T.Tensor(rng.normal(size=(1, 4, 4, 4)))
    out = blocks.basic_block(x, store, "b", training=False)
    np.testing.assert_allclose(out.data, x.data, atol=1e-12)
