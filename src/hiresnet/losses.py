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


def cea_weights(prob_maps, labels, c, config):
    """DT(T_c)^beta + DT(S_c)^beta for each output's probabilities, from one
    distance transform of the stacked masks [T_c, S_c of each output]; S_c is
    the output's class-c probability thresholded at 0.5."""
    masks = [np.asarray(labels) == c] + [p.data[:, c] >= 0.5 for p in prob_maps]
    dt = cascaded_conv_dt(np.stack(masks).astype(np.uint8), config.dt_cap)
    dt = dt.astype(np.float64) ** config.hd_beta
    return [(dt[0] + dt_s).astype(p.data.dtype) for p, dt_s in zip(prob_maps, dt[1:])]


def cea_loss(probs, labels, c, weight):
    """Edge-aware penalty for class c under its `cea_weights` map:
    mean over pixels of (T_c - P_c)^2 * weight. Gradients flow through P_c
    only; the distance maps are piecewise-constant in the prediction.
    """
    labels = _check_labels(labels, probs.shape[1])
    t_mask = (labels == c).astype(probs.data.dtype)
    p_c = T.reshape(T.slice_axis(probs, 1, c, c + 1), t_mask.shape)
    diff = Tensor(t_mask) - p_c
    return T.tmean(diff * diff * Tensor(weight))


def combined_loss(output, labels, config, rng):
    """Weighted GD + LSCE + CEA over both outputs.

    The one CEA decision of a step: one class drawn per batch, shared by the
    coarse and refined terms, whose weight maps come from one distance
    transform; a batch with no drawable class has a zero CEA term. Returns
    (total, breakdown) where the breakdown holds plain floats for logging:
    per-output terms plus ratio-weighted sums.
    """
    labels = _check_labels(labels, output.coarse_logits.shape[1])
    c = sample_cea_class(labels, config, rng)
    outputs = (("coarse", output.coarse_logits, config.coarse_ratio),
               ("refined", output.refined_logits, config.refined_ratio))
    probs = [T.softmax(logits, axis=1) for _, logits, _ in outputs]
    weights = cea_weights(probs, labels, c, config) if c is not None else [None] * len(probs)
    breakdown = {}
    total = None
    for (name, logits, ratio), p, weight in zip(outputs, probs, weights):
        gd = gd_loss(p, labels)
        lsce = lsce_loss(logits, labels, config.epsilon)
        cea = (cea_loss(p, labels, c, weight) if c is not None
               else Tensor(np.zeros((), dtype=p.data.dtype)))
        term = gd * config.alpha + lsce * config.beta_w + cea * config.gamma
        breakdown[f"{name}_gd"] = float(gd.data)
        breakdown[f"{name}_lsce"] = float(lsce.data)
        breakdown[f"{name}_cea"] = float(cea.data)
        breakdown[f"{name}_total"] = float(term.data)
        weighted = term * ratio
        total = weighted if total is None else total + weighted
    for part in TERMS:
        breakdown[f"loss_{part}"] = (config.coarse_ratio * breakdown[f"coarse_{part}"]
                                     + config.refined_ratio * breakdown[f"refined_{part}"])
    breakdown["loss_total"] = float(total.data)
    return total, breakdown
