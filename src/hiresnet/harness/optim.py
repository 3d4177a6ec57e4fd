"""AdamW with decoupled weight decay, and the warmup + cosine LR schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class NumericalError(RuntimeError):
    """Raised when training hits non-finite values; maps to CLI exit code 2."""


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class OptimState:
    weight_decay: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adamw_step(store, opt, lr):
    """One decoupled-weight-decay Adam update over every learnable parameter.

    Gradients are read from the store tensors; a missing gradient counts as
    zero. Aborts on non-finite gradients.
    """
    opt.step += 1
    bc1 = 1.0 - BETA1 ** opt.step
    bc2 = 1.0 - BETA2 ** opt.step
    for name, t in store.params():
        g = t.grad
        if g is None:
            g = np.zeros_like(t.data)
        elif not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for {name}")
        if name not in opt.m:
            opt.m[name] = np.zeros_like(t.data)
            opt.v[name] = np.zeros_like(t.data)
        m = opt.m[name] = BETA1 * opt.m[name] + (1.0 - BETA1) * g
        v = opt.v[name] = BETA2 * opt.v[name] + (1.0 - BETA2) * g * g
        t.data -= lr * opt.weight_decay * t.data
        t.data -= (lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)).astype(t.data.dtype)


@dataclass(frozen=True)
class Schedule:
    base_lr: float
    warmup_epochs: int
    total_epochs: int
    steps_per_epoch: int

    def __post_init__(self):
        if self.total_epochs > 0 and self.warmup_epochs >= self.total_epochs:
            raise ValueError("warmup must be shorter than the run")


def lr_at(schedule, global_step):
    """Linear 0 -> base across warmup, then cosine to 0; clamps past the end."""
    warm = schedule.warmup_epochs * schedule.steps_per_epoch
    total = schedule.total_epochs * schedule.steps_per_epoch
    if global_step < warm:
        return schedule.base_lr * global_step / warm
    if global_step >= total:
        return 0.0
    t = (global_step - warm) / (total - warm)
    return schedule.base_lr * 0.5 * (1.0 + math.cos(math.pi * t))
