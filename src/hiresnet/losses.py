"""Training losses: generalized dice (GD), label-smoothing cross-entropy
(LSCE), and the class-agnostic edge-aware (CEA) penalty, combined over the
coarse and refined outputs.

GD weights every class by the inverse of its ground-truth pixel count; CEA
binarizes the problem around one randomly drawn class and weights squared
prediction error by powered distance transforms of the ground-truth and
thresholded-prediction masks. Distance maps enter the graph as constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .distance import cascaded_conv_dt, onehot
from .tensor import Tensor

TERMS = ("gd", "lsce", "cea")
# the logged loss values: the weighted total, then each term over both outputs
LOSS_KEYS = ("loss_total", *(f"loss_{part}" for part in TERMS))


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 0.3923            # GD weight
    beta_w: float = 0.3923           # LSCE weight
    gamma: float = 0.2153            # CEA weight
    coarse_ratio: float = 1.0
    refined_ratio: float = 1.0
    epsilon: float = 0.1             # label-smoothing factor
    hd_beta: float = 2.0             # distance-transform exponent
    dt_cap: int = 20
    cea_excluded_class: int | None = None

    def __post_init__(self):
        if min(self.alpha, self.beta_w, self.gamma) <= 0:
            raise ValueError("loss weights must be positive")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.dt_cap < 0:
            raise ValueError("dt_cap must be non-negative")


def _check_labels(labels, num_classes):
    lab = np.asarray(labels)
    if lab.size == 0:
        raise ValueError("empty label batch")
    if lab.min() < 0 or lab.max() >= num_classes:
        raise ValueError(f"labels outside [0, {num_classes})")
    return lab


def gd_loss(probs, labels):
    """Generalized dice over all classes present in the batch.

    probs: [N, K, H, W] per-pixel class simplex. Classes absent from the
    ground truth get zero weight (1/0 is undefined and a zero-pixel class
    cannot contribute overlap).
    """
    labels = _check_labels(labels, probs.shape[1])
    r = onehot(labels, probs.shape[1]).swapaxes(0, 1).astype(probs.data.dtype, order="C")
    counts = r.sum(axis=(0, 2, 3))
    w = np.zeros_like(counts)
    present = counts > 0
    w[present] = 1.0 / counts[present]
    w_map = w.reshape(1, -1, 1, 1)

    inter = T.tsum(probs * Tensor(r * w_map))
    pred_mass = T.tsum(T.tsum(probs, axis=(0, 2, 3)) * Tensor(w))
    gt_mass = float((w * counts).sum())  # == number of present classes
    return 1.0 - (inter * 2.0) / (pred_mass + gt_mass)


def lsce_loss(logits, labels, epsilon):
    """Cross-entropy against smoothed targets: 1-eps on the true class,
    eps/(K-1) elsewhere; mean over pixels, log-sum-exp stabilized."""
    k = logits.shape[1]
    if k < 2:
        raise ValueError("label smoothing needs at least 2 classes")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    labels = _check_labels(labels, k)
    y = onehot(labels, k).swapaxes(0, 1).astype(logits.data.dtype, order="C")
    y = y * (1.0 - epsilon - epsilon / (k - 1)) + epsilon / (k - 1)
    logp = T.log_softmax(logits, axis=1)
    n_pix = logits.shape[0] * logits.shape[2] * logits.shape[3]
    return -(T.tsum(logp * Tensor(y))) / float(n_pix)


def smoothed_targets(true_class, num_classes, epsilon):
    """The LSCE target row for one pixel (test/inspection helper)."""
    row = np.full(num_classes, epsilon / (num_classes - 1))
    row[true_class] = 1.0 - epsilon
    return row


def lsce_floor(num_classes, epsilon):
    """Analytic minimum of the smoothed cross-entropy, reached when the
    predicted distribution equals the smoothed target."""
    if epsilon == 0.0:
        return 0.0
    off = epsilon / (num_classes - 1)
    return float(-(1 - epsilon) * np.log(1 - epsilon) - epsilon * np.log(off))


def sample_cea_class(labels, config, rng):
    """Uniform draw from the classes present in the batch (None if empty)."""
    present = np.unique(np.asarray(labels))
    if config.cea_excluded_class is not None:
        present = present[present != config.cea_excluded_class]
    if present.size == 0:
        return None
    return int(present[rng.integers(present.size)])


def cea_loss(probs, labels, config, rng, forced_class=None):
    """Edge-aware penalty for one sampled class; returns (loss, class).

    loss = mean over pixels of (T_c - P_c)^2 * (DT(T_c)^beta + DT(S_c)^beta)
    with S_c the thresholded prediction. Gradients flow through P_c only;
    the distance maps are piecewise-constant in the prediction.
    """
    labels = _check_labels(labels, probs.shape[1])
    c = forced_class if forced_class is not None else sample_cea_class(labels, config, rng)
    if c is None:
        return Tensor(np.zeros((), dtype=probs.data.dtype)), None

    t_mask = (labels == c).astype(np.uint8)
    s_mask = (probs.data[:, c] >= 0.5).astype(np.uint8)
    beta = config.hd_beta
    weight = (cascaded_conv_dt(t_mask, config.dt_cap).astype(np.float64) ** beta
              + cascaded_conv_dt(s_mask, config.dt_cap).astype(np.float64) ** beta
              ).astype(probs.data.dtype)

    p_c = T.reshape(T.slice_axis(probs, 1, c, c + 1), t_mask.shape)
    diff = Tensor(t_mask.astype(probs.data.dtype)) - p_c
    return T.tmean(diff * diff * Tensor(weight)), c


def combined_loss(output, labels, config, rng):
    """Weighted GD + LSCE + CEA over both outputs.

    One CEA class is drawn per batch and shared by the coarse and refined
    terms. Returns (total, breakdown) where the breakdown holds plain floats
    for logging: per-output terms plus ratio-weighted sums.
    """
    cea_class = sample_cea_class(labels, config, rng)
    breakdown = {"cea_class": cea_class}
    ratios = {"coarse": config.coarse_ratio, "refined": config.refined_ratio}
    total = None
    for name, logits in (("coarse", output.coarse_logits),
                         ("refined", output.refined_logits)):
        probs = T.softmax(logits, axis=1)
        gd = gd_loss(probs, labels)
        lsce = lsce_loss(logits, labels, config.epsilon)
        cea, _ = cea_loss(probs, labels, config, rng, forced_class=cea_class)
        term = gd * config.alpha + lsce * config.beta_w + cea * config.gamma
        breakdown[f"{name}_gd"] = float(gd.data)
        breakdown[f"{name}_lsce"] = float(lsce.data)
        breakdown[f"{name}_cea"] = float(cea.data)
        breakdown[f"{name}_total"] = float(term.data)
        weighted = term * ratios[name]
        total = weighted if total is None else total + weighted
    for part in TERMS:
        breakdown[f"loss_{part}"] = (config.coarse_ratio * breakdown[f"coarse_{part}"]
                                     + config.refined_ratio * breakdown[f"refined_{part}"])
    breakdown["loss_total"] = float(total.data)
    return total, breakdown
