"""Network building blocks: inverted bottleneck, SE channel attention,
window multi-head self-attention over scalar tokens, and the information
aggregation block that composes them.

All blocks preserve [N, C, H, W] shape; resampling lives in the network
assembly. Blocks are pure functions of (input, params) apart from BN
running-stat updates in training mode. Each layer fetches its tensors with
`store.get(name, shape, init)` where it uses them, which also defines them
for a record pass (see `hiresnet.params`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import tensor as T
from .params import conv_uniform, linear_uniform, ones, zeros
from .tensor import ConvSpec, ShapeError

ACTIVATIONS = {"gelu": T.gelu, "silu": T.silu, "relu": T.relu, "sigmoid": T.sigmoid}


@dataclass(frozen=True)
class WindowSpec:
    """Window side length and per-head geometry for window attention."""

    window: int
    heads: int
    head_dim: int


def apply_bn(x, store, name, training, momentum=0.1):
    c = (x.shape[1],)
    return T.batchnorm2d(x, store.get(f"{name}.gamma", c, ones),
                         store.get(f"{name}.beta", c, zeros),
                         store.get(f"{name}.running_mean", c, zeros, buffer=True),
                         store.get(f"{name}.running_var", c, ones, buffer=True),
                         training=training, momentum=momentum)


def apply_conv(x, store, name, spec):
    shape = (spec.out_channels, x.shape[1] // spec.groups, *spec.kernel)
    return T.conv2d(x, store.get(f"{name}.weight", shape, conv_uniform),
                    store.get(f"{name}.bias", (spec.out_channels,), zeros), spec)


def apply_linear(x, store, name, out_features):
    """[N, in] -> [N, out] through an [in, out] weight and a bias."""
    weight = store.get(f"{name}.weight", (x.shape[-1], out_features), linear_uniform)
    return T.matmul(x, weight) + store.get(f"{name}.bias", (out_features,), zeros)


# ---------------------------------------------------------------------------
# inverted bottleneck: thin heads, 4x-wide middle, linear residual join


def ib_block(x, store, prefix, training):
    c = x.shape[1]
    h = apply_bn(x, store, f"{prefix}.bn1", training)
    h = apply_conv(h, store, f"{prefix}.conv1", ConvSpec(c, (3, 3), (1, 1), (1, 1)))
    h = T.gelu(h)
    h = apply_bn(h, store, f"{prefix}.bn2", training)
    h = apply_conv(h, store, f"{prefix}.conv2", ConvSpec(4 * c, (1, 1)))
    h = T.gelu(h)
    h = apply_bn(h, store, f"{prefix}.bn3", training)
    h = apply_conv(h, store, f"{prefix}.conv3", ConvSpec(c, (1, 1)))
    return x + h


# ---------------------------------------------------------------------------
# squeeze-and-excitation channel gate


def se_attention(x, store, prefix, ratio):
    n, c = x.shape[0], x.shape[1]
    if c % ratio:
        raise ShapeError(f"channels {c} not divisible by SE ratio {ratio}")
    s = T.global_avg_pool(x)
    z = T.silu(apply_linear(s, store, f"{prefix}.fc1", c // ratio))
    gate = T.sigmoid(apply_linear(z, store, f"{prefix}.fc2", c))
    return x * T.reshape(gate, (n, c, 1, 1))


# ---------------------------------------------------------------------------
# window attention on scalar tokens
#
# The feature map is cut into L x L windows with channels folded into the
# batch axis, so every window contributes L^2 scalar tokens. Each head has
# learned Q/K/V vectors of head_dim (weight and bias, shared across channels
# and windows) and an output projection merges the heads back to one scalar.
# Because the tokens are scalars, this reduces exactly to a few per-head
# scalars, and the [B, T, heads*head_dim] lift is never built:
#
#   q_i.k_j / sqrt(d) = (alpha x_i + gamma) x_j + (terms constant in j),
#     alpha = w_q.w_k / sqrt(d),  gamma = b_q.w_k / sqrt(d)
#
# and terms constant along the softmax axis cancel, so a key bias would have
# no effect and there is none. Attention rows sum to 1, so the output is
#
#   out_i = sum_h beta_h (P_h x)_i + delta,
#     beta = w_v.w_o per head,  delta = b_v.w_o + b_o
#
# T.scalar_token_attention computes the first term as one fused op.


def window_partition(x, window):
    n, c, h, w = x.shape
    if h % window or w % window:
        raise ShapeError(f"spatial dims {h}x{w} not divisible by window {window}")
    gh, gw = h // window, w // window
    t = T.reshape(x, (n, c, gh, window, gw, window))
    t = T.transpose(t, (0, 1, 2, 4, 3, 5))
    return T.reshape(t, (n * c * gh * gw, window, window))


def window_merge(t, n, c, h, w, window):
    gh, gw = h // window, w // window
    t = T.reshape(t, (n, c, gh, gw, window, window))
    t = T.transpose(t, (0, 1, 2, 4, 3, 5))
    return T.reshape(t, (n, c, h, w))


def unit_uniform(rng, shape, dtype):
    return rng.uniform(-1.0, 1.0, size=shape).astype(dtype)


def out_uniform(rng, shape, dtype):
    """U(-1, 1) / √(heads·head_dim) for the [heads·head_dim] output projection."""
    return rng.uniform(-1.0, 1.0, size=shape).astype(dtype) / math.sqrt(shape[0])


def wmhsa(x, store, prefix, spec: WindowSpec, return_attn=False):
    n, c, h, w = x.shape
    L, heads, dh = spec.window, spec.heads, spec.head_dim
    tok = T.reshape(window_partition(x, L), (-1, L * L))

    def per_head(name, init):
        return T.reshape(store.get(f"{prefix}.{name}", (heads * dh,), init), (heads, dh))

    q_w, q_b = per_head("q.weight", unit_uniform), per_head("q.bias", zeros)
    k_w = per_head("k.weight", unit_uniform)
    v_w, v_b = per_head("v.weight", unit_uniform), per_head("v.bias", zeros)
    out_w = per_head("out.weight", out_uniform)
    out_b = store.get(f"{prefix}.out.bias", (1,), zeros)
    scale = 1.0 / math.sqrt(dh)
    alpha = T.tsum(q_w * k_w, axis=-1) * scale
    gamma = T.tsum(q_b * k_w, axis=-1) * scale
    beta = T.tsum(v_w * out_w, axis=-1)
    delta = T.tsum(v_b * out_w) + out_b
    res = T.scalar_token_attention(tok, alpha, gamma, beta, return_attn=return_attn)
    y, attn = res if return_attn else (res, None)
    out = window_merge(T.reshape(y + delta, (-1, L, L)), n, c, h, w, L)
    out = out + x  # inner skip
    if return_attn:
        return out, attn
    return out


# ---------------------------------------------------------------------------
# information aggregation block: WMHSA -> SE -> DW conv -> 1x1, outer skip


def ia_block(x, store, prefix, window_spec, dw_kernel, se_ratio,
             activations=("gelu", "silu")):
    c = x.shape[1]
    act1, act2 = (ACTIVATIONS[a] for a in activations)
    h = wmhsa(x, store, f"{prefix}.attn", window_spec)
    h = act1(h)
    h = se_attention(h, store, f"{prefix}.se", se_ratio)
    pad = dw_kernel // 2
    dw = ConvSpec(c, (dw_kernel, dw_kernel), (1, 1), (pad, pad), groups=c)
    h = h + apply_conv(h, store, f"{prefix}.dw", dw)
    h = act2(h)
    h = apply_conv(h, store, f"{prefix}.proj", ConvSpec(c, (1, 1)))
    return x + h  # outer skip


def ia_block_param_count(c, heads, head_dim, dw_kernel, se_ratio):
    """Closed-form learnable-parameter total for one IA block."""
    hd = heads * head_dim
    attn = 3 * hd + 2 * hd + hd + 1  # q/k/v weights, q/v biases, out weight + bias
    se = c * (c // se_ratio) + c // se_ratio + (c // se_ratio) * c + c
    dw = c * dw_kernel * dw_kernel + c
    proj = c * c + c
    return attn + se + dw + proj


# ---------------------------------------------------------------------------
# plain residual block (two 3x3 convs) kept as the parameter-count baseline


def basic_block(x, store, prefix, training):
    c = x.shape[1]
    h = apply_bn(x, store, f"{prefix}.bn1", training)
    h = apply_conv(h, store, f"{prefix}.conv1", ConvSpec(c, (3, 3), (1, 1), (1, 1)))
    h = T.gelu(h)
    h = apply_bn(h, store, f"{prefix}.bn2", training)
    h = apply_conv(h, store, f"{prefix}.conv2", ConvSpec(c, (3, 3), (1, 1), (1, 1)))
    return x + h
