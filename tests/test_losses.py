"""Loss suite: hand-derived oracles, analytic floors, gradient checks,
determinism of the edge-aware class draw, and the one distance transform
per combined loss."""

import numpy as np
import pytest

import hiresnet.tensor as T
from hiresnet import losses
from hiresnet.distance import exact_dt
from hiresnet.gradcheck import check_gradients
from hiresnet.losses import (LossConfig, cea_loss, cea_weights, combined_loss, gd_loss,
                             lsce_loss, sample_cea_class)
from hiresnet.network import SegOutput
from hiresnet.tensor import Tensor


def onehot_probs(labels, k):
    n, h, w = labels.shape
    p = np.zeros((n, k, h, w))
    for c in range(k):
        p[:, c][labels == c] = 1.0
    return Tensor(p)


def softmax_np(x, axis):
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# generalized dice


def test_gd_perfect_prediction_is_zero():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 3, size=(2, 4, 4))
    loss = gd_loss(onehot_probs(labels, 3), labels)
    assert abs(float(loss.data)) < 1e-12


def test_gd_uniform_prediction_hand_value():
    # 4 pixels, classes split 3/1, uniform 0.5 probs:
    # w = (1/3, 1); numer = (1/3)(1.5) + 1(0.5) = 1
    # denom = (1/3)(3+2) + 1(1+2) = 14/3; loss = 1 - 2*3/14 = 4/7
    labels = np.array([[[0, 0], [0, 1]]])
    probs = Tensor(np.full((1, 2, 2, 2), 0.5))
    loss = gd_loss(probs, labels)
    assert abs(float(loss.data) - 4.0 / 7.0) < 1e-9


def test_gd_absent_class_gets_zero_weight():
    labels = np.zeros((1, 2, 2), dtype=np.int64)  # only class 0 present
    probs = Tensor(np.stack([np.full((1, 2, 2), 0.7), np.full((1, 2, 2), 0.2),
                             np.full((1, 2, 2), 0.1)], axis=1))
    loss = float(gd_loss(probs, labels).data)
    # w = (1/4, 0, 0): loss = 1 - 2*(0.25*2.8)/(0.25*(4+2.8)) = 1 - 1.4/1.7
    assert abs(loss - (1 - 1.4 / 1.7)) < 1e-9


def test_gd_bounded_in_unit_interval():
    rng = np.random.default_rng(1)
    for _ in range(20):
        labels = rng.integers(0, 4, size=(1, 6, 6))
        logits = rng.normal(size=(1, 4, 6, 6)) * 3
        probs = Tensor(softmax_np(logits, axis=1))
        val = float(gd_loss(probs, labels).data)
        assert -1e-9 <= val <= 1.0 + 1e-9


def test_gd_empty_batch_raises():
    with pytest.raises(ValueError):
        gd_loss(Tensor(np.zeros((0, 2, 2, 2))), np.zeros((0, 2, 2), dtype=int))


def test_gd_gradient_through_softmax():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 3, size=(1, 4, 4))
    for _ in range(5):
        logits = rng.normal(size=(1, 3, 4, 4))
        err = check_gradients(
            lambda ts: gd_loss(T.softmax(ts[0], axis=1), labels), [logits], rng, max_coords=8)
        assert err < 1e-4


# ---------------------------------------------------------------------------
# label-smoothing cross-entropy


def test_lsce_targets_match_formula():
    np.testing.assert_allclose(losses.smoothed_targets(0, 3, 0.1), [0.9, 0.05, 0.05])


def test_lsce_zero_epsilon_equals_plain_ce():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=(2, 3, 3))
    logits_np = rng.normal(size=(2, 4, 3, 3))
    loss = float(lsce_loss(Tensor(logits_np), labels, 0.0).data)
    logp = np.log(softmax_np(logits_np, axis=1))
    ce = -np.mean([logp[n, labels[n, i, j], i, j]
                   for n in range(2) for i in range(3) for j in range(3)])
    assert abs(loss - ce) < 1e-9


def test_lsce_uniform_logits_give_log_k():
    labels = np.array([[[0, 1], [2, 3]]])
    logits = Tensor(np.zeros((1, 4, 2, 2)))
    loss = float(lsce_loss(logits, labels, 0.0).data)
    assert abs(loss - np.log(4)) < 1e-9


def test_lsce_floor_attained_at_smoothed_target():
    eps, k = 0.1, 4
    labels = np.array([[[1]]])
    row = losses.smoothed_targets(1, k, eps)
    logits = Tensor(np.log(row).reshape(1, k, 1, 1))
    loss = float(lsce_loss(logits, labels, eps).data)
    assert abs(loss - losses.lsce_floor(k, eps)) < 1e-9


def test_lsce_never_below_floor_and_zero_gradient_at_floor():
    rng = np.random.default_rng(4)
    eps, k = 0.15, 3
    floor = losses.lsce_floor(k, eps)
    for _ in range(20):
        labels = rng.integers(0, k, size=(1, 3, 3))
        logits = Tensor(rng.normal(size=(1, k, 3, 3)) * 2)
        assert float(lsce_loss(logits, labels, eps).data) >= floor - 1e-9

    labels = rng.integers(0, k, size=(1, 4, 4))
    rows = np.stack([losses.smoothed_targets(labels[0, i, j], k, eps)
                     for i in range(4) for j in range(4)])
    logits_np = np.log(rows).T.reshape(1, k, 4, 4)
    leaf = Tensor(logits_np, requires_grad=True)
    with T.Tape():
        T.backward(lsce_loss(leaf, labels, eps))
    assert np.max(np.abs(leaf.grad)) < 1e-6


def test_lsce_epsilon_out_of_range():
    with pytest.raises(ValueError):
        lsce_loss(Tensor(np.zeros((1, 2, 1, 1))), np.zeros((1, 1, 1), dtype=int), 1.0)


def test_lsce_gradient_vs_fd():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 3, size=(1, 3, 3))
    for eps in (0.0, 0.1):
        logits = rng.normal(size=(1, 3, 3, 3))
        err = check_gradients(
            lambda ts: lsce_loss(ts[0], labels, eps), [logits], rng, max_coords=8)
        assert err < 1e-6


# ---------------------------------------------------------------------------
# class-agnostic edge-aware loss


def cea(probs, labels, c, cfg):
    """One output's CEA term for class c, under its own weight map."""
    return cea_loss(probs, labels, c, cea_weights([probs], labels, c, cfg)[0])


def test_cea_perfect_prediction_is_zero_for_every_class():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 3, size=(1, 6, 6))
    probs = onehot_probs(labels, 3)
    cfg = LossConfig()
    for c in np.unique(labels):
        assert abs(float(cea(probs, labels, int(c), cfg).data)) < 1e-12


def test_cea_single_wrong_pixel_hand_value():
    # class-1 square with one interior pixel predicted as background
    labels = np.zeros((1, 8, 8), dtype=np.int64)
    labels[0, 2:7, 2:7] = 1
    probs_np = np.zeros((1, 2, 8, 8))
    probs_np[0, 0] = 1.0 - (labels[0] == 1)
    probs_np[0, 1] = (labels[0] == 1).astype(float)
    probs_np[0, 1, 4, 4] = 0.0  # the wrong pixel: P_c = 0 where T_c = 1
    probs_np[0, 0, 4, 4] = 1.0
    cfg = LossConfig(dt_cap=20)

    t_mask = (labels[0] == 1).astype(np.uint8)
    s_mask = (probs_np[0, 1] >= 0.5).astype(np.uint8)
    dg = exact_dt(t_mask, cfg.dt_cap)
    ds = exact_dt(s_mask, cfg.dt_cap)
    expect = (dg[4, 4] ** 2 + ds[4, 4] ** 2) / 64.0
    assert dg[4, 4] == 3  # interior of a 5x5 block

    loss = cea(Tensor(probs_np), labels, 1, cfg)
    assert abs(float(loss.data) - expect) < 1e-9


def test_cea_false_positive_inside_predicted_blob_hand_value():
    # class-1 square with a one-pixel hole in the truth, predicted solid: the
    # error sits 3 erosions deep in S_c and outside T_c, so only DT(S_c)^beta
    # weights it
    labels = np.zeros((1, 8, 8), dtype=np.int64)
    labels[0, 2:7, 2:7] = 1
    labels[0, 4, 4] = 0
    probs_np = np.zeros((1, 2, 8, 8))
    probs_np[0, 1, 2:7, 2:7] = 1.0
    probs_np[0, 0] = 1.0 - probs_np[0, 1]
    cfg = LossConfig(dt_cap=20)
    s_mask = (probs_np[0, 1] >= 0.5).astype(np.uint8)
    assert exact_dt(s_mask, cfg.dt_cap)[4, 4] == 3
    assert exact_dt((labels[0] == 1).astype(np.uint8), cfg.dt_cap)[4, 4] == 0

    loss = cea(Tensor(probs_np), labels, 1, cfg)
    assert abs(float(loss.data) - 3.0 ** cfg.hd_beta / 64.0) < 1e-9


def test_cea_fixed_seed_reproducible():
    rng_labels = np.random.default_rng(7)
    labels = rng_labels.integers(0, 4, size=(2, 8, 8))
    probs = Tensor(softmax_np(rng_labels.normal(size=(2, 4, 8, 8)), axis=1))
    cfg = LossConfig()
    picks = [sample_cea_class(labels, cfg, np.random.default_rng(123)) for _ in range(2)]
    assert picks[0] == picks[1] and picks[0] in np.unique(labels)
    out = [float(cea(probs, labels, c, cfg).data) for c in picks]
    assert out[0] == out[1]


def test_cea_positive_when_thresholded_pixel_disagrees():
    labels = np.zeros((1, 6, 6), dtype=np.int64)
    labels[0, 1:5, 1:5] = 1
    probs_np = np.zeros((1, 2, 6, 6))
    probs_np[0, 1] = 0.9 * (labels[0] == 1)  # shrink: one pixel flipped below
    probs_np[0, 1, 2, 2] = 0.1
    probs_np[0, 0] = 1.0 - probs_np[0, 1]
    loss = cea(Tensor(probs_np), labels, 1, LossConfig())
    assert float(loss.data) > 0


def test_cea_excluded_class_flag():
    labels = np.zeros((1, 4, 4), dtype=np.int64)  # only class 0 present
    cfg = LossConfig(cea_excluded_class=0)
    assert sample_cea_class(labels, cfg, np.random.default_rng(0)) is None
    labels[0, 0, 0] = 1
    assert sample_cea_class(labels, cfg, np.random.default_rng(0)) == 1


def test_cea_gradient_through_probs():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 2, size=(1, 4, 4))
    cfg = LossConfig()
    logits = rng.normal(size=(1, 2, 4, 4)) * 2.0
    # avoid probabilities near the 0.5 threshold: the distance weights are
    # piecewise constant and finite differences would step across the jump
    probs_ref = softmax_np(logits, axis=1)
    logits[:, :, np.abs(probs_ref[0, 0] - 0.5) < 0.05] *= 2.0

    err = check_gradients(lambda ts: cea(T.softmax(ts[0], axis=1), labels, 1, cfg),
                          [logits], rng, max_coords=8)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# combined loss


def make_output(rng, n=1, k=3, hw=8):
    return SegOutput(
        coarse_logits=Tensor(rng.normal(size=(n, k, hw, hw))),
        refined_logits=Tensor(rng.normal(size=(n, k, hw, hw))))


def test_combined_perfect_outputs_hit_floors():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 3, size=(1, 8, 8))
    cfg = LossConfig(epsilon=0.1)
    # logits realizing exactly the smoothed-target distribution per pixel
    rows = losses.smoothed_targets(0, 3, cfg.epsilon)
    base = np.zeros((1, 3, 8, 8))
    for i in range(8):
        for j in range(8):
            base[0, :, i, j] = np.log(losses.smoothed_targets(labels[0, i, j], 3, cfg.epsilon))
    out = SegOutput(coarse_logits=Tensor(base), refined_logits=Tensor(base.copy()))
    total, bd = combined_loss(out, labels, cfg, np.random.default_rng(0))
    floor = losses.lsce_floor(3, cfg.epsilon)
    assert abs(bd["coarse_lsce"] - floor) < 1e-9
    # GD/CEA see the smoothed (not one-hot) probabilities here, so only LSCE
    # bottoms out exactly; check one-hot zeros for GD/CEA separately
    probs = onehot_probs(labels, 3)
    assert abs(float(gd_loss(probs, labels).data)) < 1e-12
    c = sample_cea_class(labels, cfg, np.random.default_rng(0))
    assert abs(float(cea(probs, labels, c, cfg).data)) < 1e-12


def test_combined_weights_enter_linearly():
    rng = np.random.default_rng(10)
    labels = rng.integers(0, 3, size=(1, 8, 8))
    out = make_output(rng)
    unit = LossConfig(alpha=1.0, beta_w=1.0, gamma=1.0)
    paper = LossConfig()
    _, bd_unit = combined_loss(out, labels, unit, np.random.default_rng(5))
    _, bd_paper = combined_loss(out, labels, paper, np.random.default_rng(5))
    for name in ("coarse_gd", "coarse_lsce", "coarse_cea",
                 "refined_gd", "refined_lsce", "refined_cea"):
        assert bd_unit[name] == bd_paper[name]
    expect = (paper.alpha * bd_paper["coarse_gd"]
              + paper.beta_w * bd_paper["coarse_lsce"]
              + paper.gamma * bd_paper["coarse_cea"])
    assert abs(bd_paper["coarse_total"] - expect) < 1e-9


def test_combined_identical_outputs_double_at_unit_ratio():
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 3, size=(1, 8, 8))
    logits = Tensor(rng.normal(size=(1, 3, 8, 8)))
    out = SegOutput(coarse_logits=logits, refined_logits=logits)
    total, bd = combined_loss(out, labels, LossConfig(), np.random.default_rng(3))
    assert abs(float(total.data) - 2.0 * bd["coarse_total"]) < 1e-9


def test_combined_backward_reaches_both_outputs():
    rng = np.random.default_rng(12)
    labels = rng.integers(0, 3, size=(1, 8, 8))
    coarse = Tensor(rng.normal(size=(1, 3, 8, 8)), requires_grad=True)
    refined = Tensor(rng.normal(size=(1, 3, 8, 8)), requires_grad=True)
    out = SegOutput(coarse_logits=coarse, refined_logits=refined)
    with T.Tape():
        total, _ = combined_loss(out, labels, LossConfig(), np.random.default_rng(0))
        T.backward(total)
    assert coarse.grad is not None and np.max(np.abs(coarse.grad)) > 0
    assert refined.grad is not None and np.max(np.abs(refined.grad)) > 0


def test_combined_loss_makes_one_distance_transform_call(monkeypatch):
    calls = []

    def counted(mask, cap):
        calls.append(mask.shape)
        return exact_cascade(mask, cap)

    exact_cascade = losses.cascaded_conv_dt
    monkeypatch.setattr(losses, "cascaded_conv_dt", counted)
    rng = np.random.default_rng(15)
    labels = rng.integers(0, 3, size=(2, 8, 8))
    combined_loss(make_output(rng, n=2), labels, LossConfig(), np.random.default_rng(0))
    # T_c and each output's S_c, stacked
    assert calls == [(3, 2, 8, 8)]


@pytest.mark.parametrize("c", [0, 1, 2])
def test_combined_cea_terms_match_exact_dt_reference(c):
    rng = np.random.default_rng(16)
    labels = rng.integers(0, 3, size=(2, 8, 8))
    out = SegOutput(coarse_logits=Tensor(3.0 * rng.normal(size=(2, 3, 8, 8))),
                    refined_logits=Tensor(3.0 * rng.normal(size=(2, 3, 8, 8))))
    cfg = LossConfig(dt_cap=3)
    # the seed whose draw is c forces the class
    seed = next(s for s in range(100)
                if sample_cea_class(labels, cfg, np.random.default_rng(s)) == c)
    _, bd = combined_loss(out, labels, cfg, np.random.default_rng(seed))

    t_mask = (labels == c).astype(np.uint8)
    for name in ("coarse", "refined"):
        p_c = softmax_np(getattr(out, f"{name}_logits").data, axis=1)[:, c]
        s_mask = (p_c >= 0.5).astype(np.uint8)
        weight = np.stack([exact_dt(t, cfg.dt_cap) ** cfg.hd_beta
                           + exact_dt(s, cfg.dt_cap) ** cfg.hd_beta
                           for t, s in zip(t_mask, s_mask)])
        expect = np.mean((t_mask - p_c) ** 2 * weight)
        assert expect > 0
        assert abs(bd[f"{name}_cea"] - expect) < 1e-12 * expect


def test_combined_cea_is_zero_when_only_the_excluded_class_is_present():
    rng = np.random.default_rng(17)
    labels = np.zeros((2, 8, 8), dtype=np.int64)
    _, bd = combined_loss(make_output(rng, n=2), labels, LossConfig(cea_excluded_class=0),
                          np.random.default_rng(0))
    assert bd["coarse_cea"] == 0.0 and bd["refined_cea"] == 0.0
    assert bd["coarse_gd"] > 0 and bd["refined_lsce"] > 0


def test_combined_loss_rejects_labels_outside_the_classes():
    # a drawn class past the logits' classes must not reach the CEA weights
    labels = np.full((1, 8, 8), 3)
    with pytest.raises(ValueError, match="labels outside"):
        combined_loss(make_output(np.random.default_rng(18)), labels, LossConfig(),
                      np.random.default_rng(0))


def test_losses_invariant_under_pixel_permutation():
    rng = np.random.default_rng(13)
    labels = rng.integers(0, 3, size=(1, 4, 4))
    logits = rng.normal(size=(1, 3, 4, 4))
    perm = rng.permutation(16)
    labels_p = labels.reshape(1, -1)[:, perm].reshape(1, 4, 4)
    logits_p = logits.reshape(1, 3, -1)[:, :, perm].reshape(1, 3, 4, 4)
    for eps in (0.0, 0.1):
        a = float(lsce_loss(Tensor(logits), labels, eps).data)
        b = float(lsce_loss(Tensor(logits_p), labels_p, eps).data)
        assert abs(a - b) < 1e-9
    a = float(gd_loss(Tensor(softmax_np(logits, 1)), labels).data)
    b = float(gd_loss(Tensor(softmax_np(logits_p, 1)), labels_p).data)
    assert abs(a - b) < 1e-9


def test_cea_invariant_under_flips():
    # flips preserve 4-adjacency, so the distance weights move with the pixels
    rng = np.random.default_rng(14)
    labels = rng.integers(0, 2, size=(1, 6, 6))
    probs_np = softmax_np(rng.normal(size=(1, 2, 6, 6)), axis=1)
    cfg = LossConfig()
    base = cea(Tensor(probs_np), labels, 1, cfg)
    for axis in (1, 2):
        flipped = cea(Tensor(np.flip(probs_np, axis + 1).copy()),
                      np.flip(labels, axis).copy(), 1, cfg)
        assert abs(float(base.data) - float(flipped.data)) < 1e-12


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(alpha=0.0)
    with pytest.raises(ValueError):
        LossConfig(epsilon=1.0)
