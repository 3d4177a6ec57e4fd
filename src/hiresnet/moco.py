"""Contrastive pretraining mechanics at toy scale: dual encoders, momentum
update, FIFO negative queue, InfoNCE.

The pluggable encoder defaults to the funnel stem + global average pool +
linear projection so the whole suite runs in minutes on one core. Only the
query parameters ever receive gradients; the key encoder is a momentum copy
and its tensors are created with requires_grad disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import network
from . import tensor as T
from .blocks import apply_linear
from .harness.data import SCALE_RATIOS, flip_image, scale_crop
from .network import NetworkConfig
from .params import ParamStore, build, record
from .tensor import Tensor


@dataclass(frozen=True)
class PretrainConfig:
    width: int = 8               # funnel channel width
    ib_blocks: int = 2
    proj_dim: int = 16
    image_hw: tuple = (32, 32)
    queue_size: int = 256
    momentum: float = 0.999
    tau: float = 0.2
    lr: float = 0.03             # retuned for the toy encoder, not a quoted value
    jitter: float = 0.05
    flip_prob: float = 0.5
    ratios: tuple = SCALE_RATIOS

    def encoder_config(self):
        # reuse the funnel stem; branch fields beyond it are unused, and the
        # funnel itself only requires inputs divisible by 4
        return NetworkConfig(channels=(self.width, 2 * self.width, 4 * self.width),
                             blocks=(self.ib_blocks, 1, 1), modules=(1, 1),
                             window=2, head_dim=2, num_classes=2, input_hw=(64, 64))


@dataclass
class MoCoState:
    params_q: ParamStore
    params_k: ParamStore
    queue: np.ndarray            # [D, Q] unit-norm feature columns
    ptr: int
    momentum: float
    tau: float
    config: PretrainConfig = field(default=None)


def init_encoder(cfg, rng, dtype=np.float32):
    """The query encoder's parameters, recorded from `encode` on an empty batch."""
    images = np.zeros((0, 3, *cfg.image_hw), dtype=dtype)
    return build(record(lambda store: encode(images, store, cfg, training=False), dtype),
                 rng, dtype)


def encode(images, store, cfg, training):
    """images [N, 3, H, W] -> L2-normalized features [N, proj_dim]."""
    x = images if isinstance(images, Tensor) else Tensor(images)
    feats = network.funnel_forward(x, store, cfg.encoder_config(), training)
    pooled = T.global_avg_pool(feats)
    return l2_normalize(apply_linear(pooled, store, "proj", cfg.proj_dim))


def l2_normalize(z, eps=1e-12):
    norm = T.sqrt(T.tsum(z * z, axis=1, keepdims=True) + eps)
    return z / norm


def init_moco(cfg, rng):
    params_q = init_encoder(cfg, rng)
    params_k = params_q.copy(requires_grad=False)
    queue = rng.normal(size=(cfg.proj_dim, cfg.queue_size))
    queue /= np.linalg.norm(queue, axis=0, keepdims=True)
    return MoCoState(params_q=params_q, params_k=params_k,
                     queue=queue.astype(np.float32), ptr=0,
                     momentum=cfg.momentum, tau=cfg.tau, config=cfg)


def infonce(q, k_pos, queue, tau):
    """Mean InfoNCE over the batch; gradients flow through q only.

    q: [N, D] tensor; k_pos: [N, D] array (detached); queue: [D, Q] array.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    k_const = np.asarray(k_pos, dtype=q.data.dtype)
    l_pos = T.tsum(q * Tensor(k_const), axis=1, keepdims=True)      # [N, 1]
    if queue is not None and queue.shape[1] > 0:
        l_neg = T.matmul(q, Tensor(np.asarray(queue, dtype=q.data.dtype)))
        logits = T.concat([l_pos, l_neg], axis=1)
    else:
        logits = l_pos
    logits = logits * (1.0 / tau)
    logp = T.log_softmax(logits, axis=1)
    return -T.tmean(T.slice_axis(logp, 1, 0, 1))


def momentum_update(params_k, params_q, m):
    """theta_k <- m * theta_k + (1 - m) * theta_q, elementwise."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"momentum must lie in [0, 1], got {m}")
    for (name_k, tk), (name_q, tq) in zip(params_k.params(), params_q.params()):
        if name_k != name_q or tk.data.shape != tq.data.shape:
            raise ValueError(f"parameter sets disagree at {name_k} / {name_q}")
        tk.data = (m * tk.data + (1.0 - m) * tq.data).astype(tk.data.dtype)


def queue_push(state, keys):
    """FIFO ring insertion of key columns at the pointer, wrapping modularly."""
    keys = np.asarray(keys)
    if keys.shape[1] != state.queue.shape[0]:
        raise ValueError(
            f"feature dim {keys.shape[1]} != queue dim {state.queue.shape[0]}")
    q_size = state.queue.shape[1]
    for row in keys:
        state.queue[:, state.ptr] = row
        state.ptr = (state.ptr + 1) % q_size
    return state


def augment_pair(image, rng, cfg=None):
    """Two independent augmented views of one [3, H, W] image."""
    cfg = cfg or PretrainConfig()

    def one_view():
        img = image
        if rng.random() < cfg.flip_prob:
            img = flip_image(img, 0)
        if rng.random() < cfg.flip_prob:
            img = flip_image(img, 1)
        ratio = cfg.ratios[rng.integers(len(cfg.ratios))]
        img, _ = scale_crop(img, None, ratio, rng)
        if cfg.jitter > 0:
            img = img * (1.0 + rng.uniform(-cfg.jitter, cfg.jitter, size=(3, 1, 1)))
        return np.clip(img, 0.0, 1.0).astype(np.float32)

    return one_view(), one_view()


def sgd_step(store, lr, momentum, velocity):
    for name, t in store.params():
        g = t.grad
        if g is None:
            continue
        v = velocity.get(name)
        v = g if v is None else momentum * v + g
        velocity[name] = v
        t.data -= (lr * v).astype(t.data.dtype)


def moco_step(state, images, rng, velocity, lr=None):
    """One pretraining step over a [N, 3, H, W] image batch; returns the loss."""
    cfg = state.config
    lr = cfg.lr if lr is None else lr
    views_q, views_k = [], []
    for img in images:
        a, b = augment_pair(img, rng, cfg)
        views_q.append(a)
        views_k.append(b)
    batch_q = np.stack(views_q)
    batch_k = np.stack(views_k)

    keys = encode(batch_k, state.params_k, cfg, training=True).data.copy()
    state.params_q.zero_grads()
    with T.Tape():
        q = encode(batch_q, state.params_q, cfg, training=True)
        loss = infonce(q, keys, state.queue, state.tau)
        T.backward(loss)
    sgd_step(state.params_q, lr, 0.9, velocity)
    momentum_update(state.params_k, state.params_q, state.momentum)
    queue_push(state, keys)
    return float(loss.data)


def export_encoder(state, opt_meta=None):
    """Entries for the harness checkpoint, tagged as encoder-only weights."""
    meta = {"encoder_only": 1.0}
    meta.update(opt_meta or {})
    return state.params_q, meta
