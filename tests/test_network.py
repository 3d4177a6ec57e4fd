"""Network assembly: resolution ladder, fusion behavior, refinement head
contracts, determinism, and parameter accounting."""

import dataclasses

import numpy as np
import pytest

import hiresnet.tensor as T
from hiresnet import network
from hiresnet.blocks import apply_linear
from hiresnet.gradcheck import check_store_gradients
from hiresnet.losses import LossConfig, combined_loss
from hiresnet.network import NetworkConfig
from hiresnet.params import ParamStore, build, record


DESK = NetworkConfig()
TINY = NetworkConfig(channels=(4, 8, 16), blocks=(1, 1, 1), modules=(1, 1),
                     window=2, heads=2, head_dim=2, num_classes=3, input_hw=(32, 32))


def init(config, seed=0, dtype=np.float32):
    return network.init_network(config, np.random.default_rng(seed), dtype=dtype)


def make_store(forward, rng, dtype=np.float32):
    """The parameters `forward(store)` creates, drawn from `rng`."""
    return build(record(forward, dtype), rng, dtype)


def empty(c, h=4, w=4):
    """An N = 0 batch: it carries the shapes a record pass needs."""
    return T.Tensor(np.zeros((0, c, h, w)))


def fuse_store(rng, channels, dtype=np.float32):
    xs = [empty(c, 2 ** (len(channels) - i), 2 ** (len(channels) - i))
          for i, c in enumerate(channels)]
    return make_store(lambda s: network.fuse(xs, s, "f", channels, False), rng, dtype)


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_indivisible_input():
    with pytest.raises(ValueError):
        NetworkConfig(input_hw=(60, 64))


def test_config_rejects_single_class():
    with pytest.raises(ValueError):
        NetworkConfig(num_classes=1)


# ---------------------------------------------------------------------------
# funnel


def test_funnel_quarters_resolution():
    cfg = NetworkConfig(channels=(8, 16, 32), input_hw=(64, 64))
    store = init(cfg)
    x = T.Tensor(np.random.default_rng(0).normal(size=(1, 3, 64, 64)).astype(np.float32))
    out = network.funnel_forward(x, store, cfg.channels[0], cfg.blocks[0], training=False)
    assert out.shape == (1, 8, 16, 16)


def test_funnel_empty_stem_is_plain_downsample():
    cfg = NetworkConfig(blocks=(0, 2, 3))
    store = init(cfg)
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.normal(size=(1, 3, 64, 64)).astype(np.float32))
    out = network.funnel_forward(x, store, cfg.channels[0], cfg.blocks[0], training=False)
    assert out.shape == (1, 8, 16, 16)
    # no ib parameters were created for an empty stem
    assert not any("ib" in name for name in store.names())


def test_funnel_gradient_reaches_first_conv():
    store = init(TINY)
    rng = np.random.default_rng(2)
    x = T.Tensor(rng.normal(size=(1, 3, 32, 32)).astype(np.float32))
    store.zero_grads()
    with T.Tape():
        out = network.funnel_forward(x, store, TINY.channels[0], TINY.blocks[0], training=True)
        T.backward(T.tsum(out ** 2.0))
    g = store["funnel.conv1.weight"].grad
    assert g is not None and np.max(np.abs(g)) > 0


# ---------------------------------------------------------------------------
# branch creation and fusion


def test_new_branch_halves_and_doubles():
    store = make_store(lambda s: network.new_branch(empty(8), s, "s", 16, False),
                       np.random.default_rng(0))
    x = T.Tensor(np.random.default_rng(1).normal(size=(1, 8, 16, 16)).astype(np.float32))
    out = network.new_branch(x, store, "s", 16, training=False)
    assert out.shape == (1, 16, 8, 8)


def test_new_branch_twice_reaches_sixteenth():
    rng = np.random.default_rng(2)

    def spawn_twice(s):
        network.new_branch(network.new_branch(empty(8), s, "a", 16, False), s, "b", 32, False)

    store = make_store(spawn_twice, rng)
    x = T.Tensor(np.zeros((1, 8, 16, 16), dtype=np.float32))
    out = network.new_branch(x, store, "a", 16, training=False)
    out = network.new_branch(out, store, "b", 32, training=False)
    assert out.shape == (1, 32, 4, 4)


def test_new_branch_rejects_odd_dims():
    store = make_store(lambda s: network.new_branch(empty(4), s, "s", 8, False),
                       np.random.default_rng(0))
    with pytest.raises(T.ShapeError):
        network.new_branch(T.Tensor(np.zeros((1, 4, 5, 5), dtype=np.float32)),
                           store, "s", 8, training=False)


def test_new_branch_gradcheck():
    rng = np.random.default_rng(3)
    store = make_store(lambda s: network.new_branch(empty(4), s, "s", 8, False), rng, np.float64)
    x = rng.normal(size=(1, 4, 6, 6))
    err = check_store_gradients(
        lambda ts: T.tsum(network.new_branch(ts[0], store, "s", 8, training=True) ** 2.0),
        store, [x], rng)
    assert err < 1e-4


def test_fuse_single_branch_is_identity():
    store = ParamStore()
    x = T.Tensor(np.random.default_rng(0).normal(size=(1, 4, 8, 8)).astype(np.float32))
    out = network.fuse([x], store, "f", (4,), training=False)
    np.testing.assert_array_equal(out[0].data, x.data)


def test_fuse_zero_cross_terms_pass_through():
    rng = np.random.default_rng(4)
    store = fuse_store(rng, (4, 8, 16))
    for name, t in store.params():
        if "conv" in name:
            t.data[...] = 0.0
    xs = [T.Tensor(rng.normal(size=(1, 4, 8, 8)).astype(np.float32)),
          T.Tensor(rng.normal(size=(1, 8, 4, 4)).astype(np.float32)),
          T.Tensor(rng.normal(size=(1, 16, 2, 2)).astype(np.float32))]
    outs = network.fuse(xs, store, "f", (4, 8, 16), training=False)
    for o, x in zip(outs, xs):
        np.testing.assert_allclose(o.data, x.data, atol=1e-7)


def test_fuse_three_branches_preserve_shapes():
    rng = np.random.default_rng(5)
    store = fuse_store(rng, (4, 8, 16))
    xs = [T.Tensor(rng.normal(size=(2, 4, 8, 8)).astype(np.float32)),
          T.Tensor(rng.normal(size=(2, 8, 4, 4)).astype(np.float32)),
          T.Tensor(rng.normal(size=(2, 16, 2, 2)).astype(np.float32))]
    outs = network.fuse(xs, store, "f", (4, 8, 16), training=True)
    assert [tuple(o.shape) for o in outs] == [tuple(x.shape) for x in xs]


def test_fuse_gradcheck():
    rng = np.random.default_rng(6)
    store = fuse_store(rng, (2, 4), np.float64)
    xs = [rng.normal(size=(1, 2, 4, 4)), rng.normal(size=(1, 4, 2, 2))]

    def build(ts):
        outs = network.fuse(list(ts), store, "f", (2, 4), training=True)
        return T.tsum(outs[0] ** 2.0) + T.tsum(outs[1] ** 2.0)

    err = check_store_gradients(build, store, xs, rng)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# multi-branch module and the resolution ladder


def test_branch_shapes_desk_config():
    cfg = NetworkConfig(channels=(8, 16, 32), blocks=(2, 2, 3), modules=(1, 2))
    store = init(cfg)
    x = T.Tensor(np.random.default_rng(0).normal(size=(1, 8, 16, 16)).astype(np.float32))
    branches = network.multi_branch_forward(x, store, cfg, training=False)
    assert [tuple(b.shape) for b in branches] == [
        (1, 8, 16, 16), (1, 16, 8, 8), (1, 32, 4, 4)]


def test_resolution_ladder_matches_table():
    store = init(TINY)
    x = T.Tensor(np.random.default_rng(1).normal(size=(1, 3, 32, 32)).astype(np.float32))
    feats = network.funnel_forward(x, store, TINY.channels[0], TINY.blocks[0], training=False)
    branches = network.multi_branch_forward(feats, store, TINY, training=False)
    h, w = TINY.input_hw
    for i, b in enumerate(branches):
        div = 4 * 2 ** i
        assert tuple(b.shape) == (1, TINY.channels[i], h // div, w // div)


def test_full_scale_layer2_block_structure():
    # layer2 stacks 12 aggregation blocks per branch in each of 4 modules
    cfg = NetworkConfig.full_scale()
    store = init(cfg)
    names = set(store.names())
    for m in range(4):
        for br in range(3):
            assert f"layer2.mod{m}.b{br}.blk11.proj.weight" in names
            assert f"layer2.mod{m}.b{br}.blk12.proj.weight" not in names
    assert not any(n.startswith("layer2.mod4.") for n in names)


def test_no_fourth_stage_exists():
    store = init(DESK)
    assert not any(name.startswith("layer3") for name in store.names())
    x = T.Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32))
    feats = network.funnel_forward(x, store, DESK.channels[0], DESK.blocks[0], training=False)
    assert len(network.multi_branch_forward(feats, store, DESK, training=False)) == 3


def test_every_stage_parameter_gets_gradient():
    store = init(TINY, seed=3)
    rng = np.random.default_rng(4)
    x = T.Tensor(rng.normal(size=(2, 3, 32, 32)).astype(np.float32))
    store.zero_grads()
    with T.Tape():
        out = network.network_forward(x, store, TINY, training=True)
        loss = T.tsum(out.coarse_logits ** 2.0) + T.tsum(out.refined_logits ** 2.0)
        T.backward(loss)
    missing = [name for name, t in store.params() if t.grad is None]
    assert not missing, f"no gradient reached: {missing[:5]}"


@pytest.mark.parametrize("config", [
    DESK,
    NetworkConfig(block_kind="basic"),
    # full-scale widths and modules (1, 4), one block per stage: ~1.4 s
    dataclasses.replace(NetworkConfig.full_scale(num_classes=4, input_hw=(112, 112)),
                        blocks=(1, 1, 1)),
], ids=["desk", "basic", "full_scale"])
def test_network_no_dead_parameters(config):
    # the whole-network form of test_ia_block_no_dead_parameters: one float64
    # training step through the loss. A conv bias straight before a
    # training-mode BN gets ~1e-17 of the largest gradient norm; the smallest
    # live one gets 6e-6 (full_scale) to 6e-4 (basic) of it
    rng = np.random.default_rng(21)
    store = init(config, seed=20, dtype=np.float64)
    images = T.Tensor(rng.uniform(size=(2, 3, *config.input_hw)))
    labels = rng.integers(0, config.num_classes, size=(2, *config.input_hw))
    store.zero_grads()
    with T.Tape():
        out = network.network_forward(images, store, config, training=True)
        total, _ = combined_loss(out, labels, LossConfig(), rng)
        T.backward(total)
    norms = {name: np.linalg.norm(t.grad) if t.grad is not None else 0.0
             for name, t in store.params()}
    top = max(norms.values())
    dead = [f"{name} ({g / top:.1e})" for name, g in norms.items() if g <= 1e-9 * top]
    assert not dead, f"gradient norm at most 1e-9 of the largest: {dead}"


# ---------------------------------------------------------------------------
# refinement head


def test_refine_output_shapes():
    store = init(TINY)
    rng = np.random.default_rng(5)
    x = T.Tensor(rng.normal(size=(2, 3, 32, 32)).astype(np.float32))
    out = network.network_forward(x, store, TINY, training=False)
    assert out.coarse_logits.shape == (2, 3, 32, 32)
    assert out.refined_logits.shape == (2, 3, 32, 32)


@pytest.mark.parametrize("hw", [(128, 128), (64, 128), (128, 64)])
def test_logits_match_an_input_size_other_than_the_config(hw):
    store = init(DESK)
    x = T.Tensor(np.random.default_rng(9).normal(size=(1, 3, *hw)).astype(np.float32))
    out = network.network_forward(x, store, DESK, training=False)
    assert out.coarse_logits.shape == (1, DESK.num_classes, *hw)
    assert out.refined_logits.shape == (1, DESK.num_classes, *hw)


def test_refine_rejects_an_image_size_no_integer_scale_reaches():
    store = init(TINY)
    x = T.Tensor(np.random.default_rng(10).normal(size=(1, 3, 32, 32)).astype(np.float32))
    feats = network.funnel_forward(x, store, TINY.channels[0], TINY.blocks[0], False)
    branches = network.multi_branch_forward(feats, store, TINY, False)
    with pytest.raises(T.ShapeError):
        network.refine(branches, store, TINY, False, image_hw=(32, 64))


def test_refine_affinity_rows_sum_to_one():
    rng = np.random.default_rng(6)
    store = init(TINY)
    x = T.Tensor(rng.normal(size=(1, 3, 32, 32)).astype(np.float32))
    feats = network.funnel_forward(x, store, TINY.channels[0], TINY.blocks[0], training=False)
    branches = network.multi_branch_forward(feats, store, TINY, training=False)

    captured = {}
    orig_softmax = T.softmax

    def capture(a, axis):
        out = orig_softmax(a, axis)
        if a.ndim == 3 and axis == 2 and a.shape[2] == TINY.num_classes:
            captured["affinity"] = out.data
        return out

    T.softmax = capture
    try:
        network.refine(branches, store, TINY, training=False, image_hw=TINY.input_hw)
    finally:
        T.softmax = orig_softmax
    np.testing.assert_allclose(captured["affinity"].sum(axis=2), 1.0, atol=1e-6)


def test_uniform_coarse_logits_give_mean_region_feature():
    # uniform spatial softmax turns every region feature into the global mean
    rng = np.random.default_rng(7)
    store = init(TINY)
    store["refine.coarse.weight"].data[...] = 0.0
    store["refine.coarse.bias"].data[...] = 0.0
    x = T.Tensor(rng.normal(size=(1, 3, 32, 32)).astype(np.float32))
    feats = network.funnel_forward(x, store, TINY.channels[0], TINY.blocks[0], training=False)
    branches = network.multi_branch_forward(feats, store, TINY, training=False)

    aligned = [branches[0]] + [T.bilinear_upsample(b, 2 ** i)
                               for i, b in enumerate(branches[1:], start=1)]
    feat = T.concat(aligned, axis=1).data
    mean_feat = feat.mean(axis=(2, 3))  # [N, Cs]

    n, cs = feat.shape[0], feat.shape[1]
    p = feat.shape[2] * feat.shape[3]
    coarse = np.zeros((n, TINY.num_classes, p), dtype=np.float64)
    weights = np.exp(coarse) / np.exp(coarse).sum(axis=2, keepdims=True)
    regions = weights @ feat.reshape(n, cs, p).transpose(0, 2, 1)
    for cls in range(TINY.num_classes):
        np.testing.assert_allclose(regions[0, cls], mean_feat[0], rtol=1e-5)


def test_inference_fusion_of_identical_maps_is_identity():
    rng = np.random.default_rng(8)
    logits = T.Tensor(rng.normal(size=(1, 3, 8, 8)).astype(np.float32))
    out = network.SegOutput(coarse_logits=logits, refined_logits=logits)
    fused = network.fused_probabilities(out)
    single = T.softmax(logits, axis=1).data
    np.testing.assert_allclose(fused, single, atol=1e-7)


def test_inference_fusion_averages_two_different_maps():
    # pixel 0: coarse softmax (3/4, 1/4), refined (1/2, 1/2) -> (5/8, 3/8);
    # pixel 1: coarse (1/4, 3/4), refined (4/5, 1/5) -> (21/40, 19/40)
    coarse = np.log(np.array([[3.0, 1.0], [1.0, 3.0]])).T.reshape(1, 2, 1, 2)
    refined = np.log(np.array([[1.0, 1.0], [4.0, 1.0]])).T.reshape(1, 2, 1, 2)
    out = network.SegOutput(coarse_logits=T.Tensor(coarse), refined_logits=T.Tensor(refined))
    fused = network.fused_probabilities(out)
    np.testing.assert_allclose(fused[0, :, 0], [[5 / 8, 21 / 40], [3 / 8, 19 / 40]],
                               rtol=1e-12)
    np.testing.assert_array_equal(network.predict_labels(out), [[[0, 0]]])


def test_forward_deterministic():
    def run():
        store = init(TINY, seed=11)
        x = T.Tensor(np.random.default_rng(12).normal(size=(1, 3, 32, 32)).astype(np.float32))
        out = network.network_forward(x, store, TINY, training=False)
        return out.coarse_logits.data.copy(), out.refined_logits.data.copy()

    c1, r1 = run()
    c2, r2 = run()
    np.testing.assert_array_equal(c1, c2)
    np.testing.assert_array_equal(r1, r2)


def test_outputs_finite():
    store = init(DESK, seed=13)
    x = T.Tensor(np.random.default_rng(14).normal(size=(1, 3, 64, 64)).astype(np.float32))
    out = network.network_forward(x, store, DESK, training=True)
    assert np.all(np.isfinite(out.coarse_logits.data))
    assert np.all(np.isfinite(out.refined_logits.data))


# ---------------------------------------------------------------------------
# parameter accounting


def test_param_count_linear_layer_example():
    store = make_store(lambda s: apply_linear(T.Tensor(np.zeros((0, 4))), s, "fc", 2),
                       np.random.default_rng(0))
    assert store.count_learnable() == 10


def test_param_count_invariant_to_input_size():
    a = network.param_count(NetworkConfig(input_hw=(64, 64)))
    b = network.param_count(NetworkConfig(input_hw=(128, 128)))
    assert a == b


def test_ia_network_smaller_than_basic_network():
    ia = network.param_count(DESK)
    basic = network.param_count(NetworkConfig(block_kind="basic"))
    assert ia < basic


def test_param_count_excludes_running_stats():
    store = init(DESK)
    total_with_buffers = sum(t.size for _, t in store.params()) + \
        sum(t.size for _, t in store.buffers())
    assert network.param_count(DESK) < total_with_buffers
