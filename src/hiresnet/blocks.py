"""Network building blocks: inverted bottleneck, SE channel attention,
window multi-head self-attention over scalar tokens (`wmhsa`: one
`T.window_attention` op from block input to output), and the information
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


def apply_bn(x, store, name, training):
    c = (x.shape[1],)
    return T.batchnorm2d(x, store.get(f"{name}.gamma", c, ones),
                         store.get(f"{name}.beta", c, zeros),
                         store.get(f"{name}.running_mean", c, zeros, buffer=True).data,
                         store.get(f"{name}.running_var", c, ones, buffer=True).data,
                         training=training)


def apply_conv(x, store, name, spec, bias=True):
    """`bias=False` before a training-mode batch norm, whose mean cancels a bias."""
    shape = (spec.out_channels, x.shape[1] // spec.groups, *spec.kernel)
    return T.conv2d(x, store.get(f"{name}.weight", shape, conv_uniform),
                    store.get(f"{name}.bias", (spec.out_channels,), zeros) if bias else None,
                    spec)


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


def unit_uniform(rng, shape, dtype):
    return rng.uniform(-1.0, 1.0, size=shape).astype(dtype)


def out_uniform(rng, shape, dtype):
    """U(-1, 1) / √(heads·head_dim) for the [heads·head_dim] output projection."""
    return rng.uniform(-1.0, 1.0, size=shape).astype(dtype) / math.sqrt(shape[0])


def wmhsa(x, store, prefix, spec: WindowSpec, return_attn=False):
    hd = (spec.heads * spec.head_dim,)
    proj = [store.get(f"{prefix}.{name}", hd, init) for name, init in (
        ("q.weight", unit_uniform), ("q.bias", zeros), ("k.weight", unit_uniform),
        ("v.weight", unit_uniform), ("v.bias", zeros), ("out.weight", out_uniform))]
    out_b = store.get(f"{prefix}.out.bias", (1,), zeros)
    return T.window_attention(x, *proj, out_b, spec.window, spec.heads, return_attn=return_attn)


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
