"""Full network assembly: funnel stem, parallel multi-resolution branches
with repeated cross-scale fusion, and the coarse + refined segmentation head.

Branch i lives at 1/(4*2^i) of the input resolution with channels[i] maps;
the ladder stops at three branches, there is no fourth stage anywhere in
the graph. The forward functions are the only description of the graph:
`init_network` builds the parameters `layout(config)` recorded from them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import blocks
from . import tensor as T
from .blocks import WindowSpec, apply_bn, apply_conv
from .params import build, record
from .tensor import ConvSpec, ShapeError, Tensor


@dataclass(frozen=True)
class NetworkConfig:
    channels: tuple = (8, 16, 32)
    blocks: tuple = (2, 2, 3)        # funnel IB count, layer1 IA count, layer2 IA count
    modules: tuple = (1, 2)          # fusion module repeats per layer
    window: int = 4
    heads: int = 2
    head_dim: int = 4
    dw_kernel: int = 5
    se_ratio: int = 4
    num_classes: int = 4
    input_hw: tuple = (64, 64)
    block_kind: str = "ia"           # "ia" | "basic"
    ia_activations: tuple = ("gelu", "silu")
    ocr_dim: int = 0                 # 0 -> sum(channels) // 2

    def __post_init__(self):
        if len(self.channels) != 3 or len(self.blocks) != 3 or len(self.modules) != 2:
            raise ValueError("expected 3 channel widths, 3 block counts, 2 module counts")
        for name in ("channels", "window", "heads", "head_dim", "se_ratio", "dw_kernel"):
            if np.min(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.dw_kernel % 2 == 0:
            raise ValueError(f"dw_kernel must be odd, got {self.dw_kernel}")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.block_kind not in ("ia", "basic"):
            raise ValueError(f"unknown block kind {self.block_kind!r}")
        acts = self.ia_activations
        if len(acts) != 2 or not set(acts) <= blocks.ACTIVATIONS.keys():
            raise ValueError(f"ia_activations must be two of {', '.join(blocks.ACTIVATIONS)}, "
                             f"got {acts!r}")
        h, w = self.input_hw
        if self.block_kind == "ia" and (h % (16 * self.window) or w % (16 * self.window)):
            raise ValueError(
                f"input {h}x{w} must be divisible by 16*window={16 * self.window} "
                "so every branch windows evenly")
        if h % 16 or w % 16:
            raise ValueError(f"input {h}x{w} must be divisible by 16")

    @classmethod
    def full_scale(cls, num_classes=7, input_hw=(224, 224)):
        """Full-size widths and depths; heavy on CPU, used for shape checks."""
        return cls(channels=(48, 96, 192), blocks=(4, 4, 12), modules=(1, 4),
                   window=7, heads=2, head_dim=8, num_classes=num_classes,
                   input_hw=input_hw)

    @property
    def context_dim(self):
        return self.ocr_dim if self.ocr_dim else sum(self.channels) // 2

    def window_spec(self):
        return WindowSpec(self.window, self.heads, self.head_dim)


@dataclass
class SegOutput:
    coarse_logits: Tensor
    refined_logits: Tensor


# ---------------------------------------------------------------------------
# parameters: recorded from the forward pass (see hiresnet.params)


@functools.cache
def layout(config, dtype=np.float32):
    """Every tensor `network_forward` creates for `config`, in creation order.

    Recorded once per (config, dtype) on an empty batch in eval mode (BN in
    training mode would take statistics of the empty batch).
    """
    image = Tensor(np.zeros((0, 3, *config.input_hw), dtype=dtype))
    return record(lambda store: network_forward(image, store, config, training=False), dtype)


def init_network(config, rng, dtype=np.float32):
    return build(layout(config, dtype), rng, dtype)


def param_count(config):
    """Learnable parameter total (BN running stats excluded)."""
    return sum(math.prod(shape) for _, shape, _, buffer in layout(config) if not buffer)


# ---------------------------------------------------------------------------
# forward passes


def funnel_forward(image, store, width, ib_blocks, training, prefix="funnel"):
    h, w = image.shape[2], image.shape[3]
    if h % 4 or w % 4:
        raise ShapeError(f"funnel needs input divisible by 4, got {h}x{w}")
    down = ConvSpec(width, (3, 3), (2, 2), (1, 1))
    x = apply_bn(image, store, f"{prefix}.bn1", training)
    x = T.gelu(apply_conv(x, store, f"{prefix}.conv1", down))
    x = apply_bn(x, store, f"{prefix}.bn2", training)
    x = T.gelu(apply_conv(x, store, f"{prefix}.conv2", down))
    for k in range(ib_blocks):
        x = blocks.ib_block(x, store, f"{prefix}.ib{k}", training)
    return x


def new_branch(x, store, prefix, c_out, training, bias=True):
    if x.shape[2] % 2 or x.shape[3] % 2:
        raise ShapeError(f"cannot halve odd spatial dims {x.shape[2:]}")
    h = apply_bn(x, store, f"{prefix}.bn", training)
    return apply_conv(h, store, f"{prefix}.conv", ConvSpec(c_out, (3, 3), (2, 2), (1, 1)), bias)


def _apply_stage_block(x, store, prefix, config, training):
    if config.block_kind == "ia":
        return blocks.ia_block(x, store, prefix, config.window_spec(),
                               config.dw_kernel, config.se_ratio,
                               activations=config.ia_activations)
    return blocks.basic_block(x, store, prefix, training)


def fuse(branches, store, prefix, channels, training):
    """Bring every branch to every resolution and sum the aligned maps."""
    k = len(branches)
    outs = list(branches)  # own-resolution branch passes through unchanged
    for i in range(k):  # paths in {i}to{j} order, the order their tensors are created in
        for j in range(k):
            if i == j:
                continue
            path = f"{prefix}.{i}to{j}"
            x = branches[i]
            if i < j:
                for s in range(j - i):  # each step's conv but the last feeds the next BN
                    x = new_branch(x, store, f"{path}.step{s}", channels[i + s + 1], training,
                                   bias=(s == j - i - 1))
            else:
                x = T.bilinear_upsample(x, 2 ** (i - j))
                x = apply_bn(x, store, f"{path}.bn", training)
                x = apply_conv(x, store, f"{path}.conv", ConvSpec(channels[j], (1, 1)))
            outs[j] = outs[j] + x  # each outs[j] still sums over ascending i
    return outs


def multi_branch_forward(x, store, config, training):
    """Layer l spawns branch l from the last branch, then runs its modules:
    blocks on every branch, then a fusion across all of them."""
    branches = [x]
    for layer, (n_blocks, n_modules) in enumerate(zip(config.blocks[1:], config.modules), 1):
        branches.append(new_branch(branches[-1], store, f"layer{layer}.spawn",
                                   config.channels[layer], training))
        for m in range(n_modules):
            for br in range(len(branches)):
                for k in range(n_blocks):
                    branches[br] = _apply_stage_block(
                        branches[br], store, f"layer{layer}.mod{m}.b{br}.blk{k}", config, training)
            branches = fuse(branches, store, f"layer{layer}.mod{m}.fuse",
                            config.channels[:layer + 1], training)
    return branches


def _embed(x, store, name, d, training):
    h = apply_conv(x, store, f"{name}.conv", ConvSpec(d, (1, 1)), bias=False)
    h = apply_bn(h, store, f"{name}.bn", training)
    return T.gelu(h)


def refine(branches, store, config, training, image_hw, prefix="refine"):
    """Coarse 1x1 head plus pixel-region context refinement.

    Soft region features are softmax-of-logits weighted sums of the shared
    pixel features; pixel-region affinities re-weight embedded region
    descriptors into a context map that augments each pixel before the
    refined classification. Both logit maps are upsampled to `image_hw`,
    which must be branch 0's extent times one integer scale on both axes.
    """
    n = branches[0].shape[0]
    hq, wq = branches[0].shape[2], branches[0].shape[3]
    h, w = image_hw
    scale = h // hq
    if (hq * scale, wq * scale) != (h, w):
        raise ShapeError(f"cannot upsample {hq}x{wq} features by one integer scale to {h}x{w}")
    k = config.num_classes
    cs = sum(config.channels)
    d = config.context_dim

    aligned = [branches[0]]
    for i, b in enumerate(branches[1:], start=1):
        aligned.append(T.bilinear_upsample(b, 2 ** i))
    feat = T.concat(aligned, axis=1)                      # [N, Cs, Hq, Wq]
    coarse = apply_conv(feat, store, f"{prefix}.coarse", ConvSpec(k, (1, 1)))

    p = hq * wq
    logits_flat = T.reshape(coarse, (n, k, p))
    region_weights = T.softmax(logits_flat, axis=2)       # spatial softmax per class
    feat_flat = T.reshape(feat, (n, cs, p))
    regions = T.matmul(region_weights, T.transpose(feat_flat, (0, 2, 1)))  # [N, K, Cs]
    regions = T.reshape(T.transpose(regions, (0, 2, 1)), (n, cs, k, 1))

    pixel_key = _embed(feat, store, f"{prefix}.pixel_key", d, training)        # [N, d, Hq, Wq]
    region_key = _embed(regions, store, f"{prefix}.region_key", d, training)   # [N, d, K, 1]
    region_value = _embed(regions, store, f"{prefix}.region_value", d, training)

    pk = T.transpose(T.reshape(pixel_key, (n, d, p)), (0, 2, 1))            # [N, P, d]
    rk = T.reshape(region_key, (n, d, k))
    affinity = T.softmax(T.matmul(pk, rk) * (1.0 / math.sqrt(d)), axis=2)   # [N, P, K]
    rv = T.transpose(T.reshape(region_value, (n, d, k)), (0, 2, 1))         # [N, K, d]
    context = T.matmul(affinity, rv)                                        # [N, P, d]
    context = T.reshape(T.transpose(context, (0, 2, 1)), (n, d, hq, wq))

    refined_in = T.concat([feat, context], axis=1)
    refined = apply_conv(refined_in, store, f"{prefix}.refined", ConvSpec(k, (1, 1)))

    return SegOutput(coarse_logits=T.bilinear_upsample(coarse, scale),
                     refined_logits=T.bilinear_upsample(refined, scale))


def network_forward(image, store, config, training):
    x = funnel_forward(image, store, config.channels[0], config.blocks[0], training)
    branches = multi_branch_forward(x, store, config, training)
    return refine(branches, store, config, training, image.shape[2:])


def fused_probabilities(out: SegOutput):
    """Inference rule: mean of the two class-probability maps (1:1 mix)."""
    pc = T.softmax(out.coarse_logits, axis=1)
    pr = T.softmax(out.refined_logits, axis=1)
    return (pc.data + pr.data) * 0.5


def predict_labels(out: SegOutput):
    return np.argmax(fused_probabilities(out), axis=1)
