"""Acceptance suite: the ten verification criteria, one test per criterion.

Each test prints a PASS line with its measured numbers (visible under
`pytest -s` or in the captured output); tolerances are pinned here, not
deferred. Run with `pytest tests/test_acceptance.py -v`.
"""

import time

import numpy as np
import pytest

import hiresnet.tensor as T
from hiresnet import blocks, losses, moco, network
from hiresnet.blocks import WindowSpec
from hiresnet.distance import cascaded_conv_dt, exact_dt
from hiresnet.gradcheck import check_gradients, check_store_gradients
from hiresnet.harness import checkpoint as ckpt
from hiresnet.harness.cli import main as cli_main
from hiresnet.harness.data import SynthSpec, synth_dataset
from hiresnet.harness.loop import evaluate_store, train
from hiresnet.losses import LossConfig
from hiresnet.network import NetworkConfig
from hiresnet.params import build, record
from hiresnet.tensor import ConvSpec, Tensor

MICRO = NetworkConfig(channels=(2, 4, 8), blocks=(1, 1, 1), modules=(1, 1),
                      window=2, heads=2, head_dim=2, num_classes=2,
                      input_hw=(32, 32), se_ratio=2, dw_kernel=3)
DESK = NetworkConfig()


def make_store(forward, rng, dtype=np.float64):
    """The parameters `forward(store)` creates, drawn from `rng`."""
    return build(record(forward, dtype), rng, dtype)


def empty(c, h=4, w=4):
    """An N = 0 batch: it carries the shapes a record pass needs."""
    return Tensor(np.zeros((0, c, h, w)))


def cea_term(probs, labels, c, cfg):
    """One output's CEA term for class c, under its own weight map."""
    return losses.cea_loss(probs, labels, c, losses.cea_weights([probs], labels, c, cfg)[0])


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradient suite, < 2 min


def test_criterion_01_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(101)

    # elementwise ops at 1e-6 via vectorized central differences
    elementwise = {"relu": T.relu, "gelu": T.gelu, "silu": T.silu,
                   "sigmoid": T.sigmoid, "exp": T.exp}
    worst_elem = 0.0
    for name, op in elementwise.items():
        for _ in range(10):
            x = rng.normal(size=50) * 2.0
            x[np.abs(x) < 1e-3] += 0.01
            leaf = Tensor(x.copy(), requires_grad=True)
            with T.Tape():
                T.backward(T.tsum(op(leaf)))
            eps = 1e-6
            num = (op(Tensor(x + eps)).data - op(Tensor(x - eps)).data) / (2 * eps)
            err = np.max(np.abs(leaf.grad - num)) / max(np.max(np.abs(num)), 1e-6)
            worst_elem = max(worst_elem, err)
    assert worst_elem < 1e-6, f"elementwise rel err {worst_elem}"

    # structural ops at 1e-4
    def conv_case(ts):
        spec = ConvSpec(4, (3, 3), (2, 2), (1, 1))
        return T.tsum(T.conv2d(ts[0], ts[1], ts[2], spec) ** 2.0)

    def dwconv_case(ts):
        spec = ConvSpec(3, (3, 3), (1, 1), (1, 1), groups=3)
        return T.tsum(T.conv2d(ts[0], ts[1], ts[2], spec) ** 2.0)

    def bn_case(ts):
        out = T.batchnorm2d(ts[0], ts[1], ts[2], np.zeros(3), np.ones(3), True)
        return T.tsum(out * Tensor(bn_tgt))

    structural = [
        ("matmul", lambda ts: T.tsum(T.matmul(ts[0], ts[1]) ** 2.0),
         [(3, 4), (4, 2)]),
        ("softmax", lambda ts: T.tsum(T.softmax(ts[0], axis=1) ** 2.0), [(3, 5)]),
        ("log_softmax", lambda ts: T.tsum(T.log_softmax(ts[0], axis=1) ** 2.0), [(3, 5)]),
        ("upsample", lambda ts: T.tsum(T.bilinear_upsample(ts[0], 2) ** 2.0),
         [(1, 2, 3, 3)]),
        ("gap", lambda ts: T.tsum(T.global_avg_pool(ts[0]) ** 2.0), [(2, 3, 4, 4)]),
        ("conv", conv_case, [(1, 2, 6, 6), (4, 2, 3, 3), (4,)]),
        ("dwconv", dwconv_case, [(1, 3, 5, 5), (3, 1, 3, 3), (3,)]),
        ("bn", bn_case, [(2, 3, 4, 4), (3,), (3,)]),
    ]
    worst_struct = 0.0
    for name, build, shapes in structural:
        for _ in range(10):
            arrays = [rng.normal(size=s) for s in shapes]
            bn_tgt = rng.normal(size=(2, 3, 4, 4))
            err = check_gradients(build, arrays, rng, max_coords=4)
            worst_struct = max(worst_struct, err)
            assert err < 1e-4, f"{name}: rel err {err}"

    # blocks at 1e-3 (IB, SE, WMHSA, IA, fusion, refine head)
    worst_block = 0.0
    for _ in range(10):
        store = make_store(lambda s: blocks.ib_block(empty(3), s, "b", False), rng)
        tgt = Tensor(rng.normal(size=(1, 3, 4, 4)))
        err = check_store_gradients(
            lambda ts: T.tsum(blocks.ib_block(ts[0], store, "b", True) * tgt),
            store, [rng.normal(size=(1, 3, 4, 4))], rng, max_coords=2)
        worst_block = max(worst_block, err)

        store = make_store(lambda s: blocks.se_attention(empty(4), s, "s", 2), rng)
        err = max(err, check_store_gradients(
            lambda ts: T.tsum(blocks.se_attention(ts[0], store, "s", 2) ** 2.0),
            store, [rng.normal(size=(1, 4, 2, 2))], rng, max_coords=2))

        store = make_store(lambda s: blocks.wmhsa(empty(2), s, "w", WindowSpec(2, 2, 2)), rng)
        err = max(err, check_store_gradients(
            lambda ts: T.tsum(blocks.wmhsa(ts[0], store, "w", WindowSpec(2, 2, 2)) ** 2.0),
            store, [rng.normal(size=(1, 2, 4, 4))], rng, max_coords=2))

        store = make_store(
            lambda s: blocks.ia_block(empty(4), s, "a", WindowSpec(2, 2, 2), 3, 2), rng)
        err = max(err, check_store_gradients(
            lambda ts: T.tsum(blocks.ia_block(ts[0], store, "a", WindowSpec(2, 2, 2), 3, 2) ** 2.0),
            store, [rng.normal(size=(1, 4, 4, 4))], rng, max_coords=2))

        store = make_store(
            lambda s: network.fuse([empty(2), empty(4, 2, 2)], s, "f", (2, 4), False), rng)
        err = max(err, check_store_gradients(
            lambda ts: T.tsum(network.fuse(list(ts), store, "f", (2, 4), True)[0] ** 2.0)
            + T.tsum(network.fuse(list(ts), store, "f", (2, 4), True)[1] ** 2.0),
            store, [rng.normal(size=(1, 2, 4, 4)), rng.normal(size=(1, 4, 2, 2))],
            rng, max_coords=2))
        worst_block = max(worst_block, err)
    assert worst_block < 1e-3, f"block rel err {worst_block}"

    # refine head and the three losses
    worst_head = 0.0
    for _ in range(10):
        shapes = [(1, 2, 8, 8), (1, 4, 4, 4), (1, 8, 2, 2)]
        empties = [Tensor(np.zeros((0,) + sh[1:])) for sh in shapes]
        store = make_store(lambda s: network.refine(empties, s, MICRO, False, MICRO.input_hw), rng)

        def refine_loss(ts):
            out = network.refine(list(ts), store, MICRO, training=True,
                                 image_hw=MICRO.input_hw)
            return T.tsum(out.coarse_logits ** 2.0) + T.tsum(out.refined_logits ** 2.0)

        err = check_store_gradients(refine_loss, store,
                                    [rng.normal(size=s) for s in shapes],
                                    rng, max_coords=2)
        worst_head = max(worst_head, err)
    assert worst_head < 1e-3, f"refine rel err {worst_head}"

    labels = rng.integers(0, 3, size=(1, 4, 4))
    worst_loss = 0.0
    cfg = LossConfig()
    for _ in range(10):
        logits = rng.normal(size=(1, 3, 4, 4))
        probs_ref = 1.0 / (1.0 + np.exp(-logits))  # keep off the 0.5 threshold
        worst_loss = max(worst_loss, check_gradients(
            lambda ts: losses.gd_loss(T.softmax(ts[0], axis=1), labels),
            [logits], rng, max_coords=4))
        worst_loss = max(worst_loss, check_gradients(
            lambda ts: losses.lsce_loss(ts[0], labels, 0.1), [logits], rng, max_coords=4))
        worst_loss = max(worst_loss, check_gradients(
            lambda ts: cea_term(T.softmax(ts[0], axis=1), labels, 1, cfg),
            [logits * 1.5], rng, max_coords=4))
    assert worst_loss < 1e-4, f"loss rel err {worst_loss}"

    # end-to-end: whole-network scalar loss at a reduced desk config (f64)
    store = network.init_network(MICRO, rng, dtype=np.float64)
    e2e_labels = rng.integers(0, 2, size=(1, 32, 32))

    def network_loss(ts):
        out = network.network_forward(ts[0], store, MICRO, training=True)
        total, _ = losses.combined_loss(out, e2e_labels, cfg, np.random.default_rng(0))
        return total

    err_e2e = check_store_gradients(network_loss, store,
                                    [rng.normal(size=(1, 3, 32, 32))], rng,
                                    max_coords=1)
    assert err_e2e < 1e-3, f"end-to-end rel err {err_e2e}"

    elapsed = time.time() - start
    assert elapsed < 120, f"gradient suite took {elapsed:.0f}s"
    report(1, f"elem {worst_elem:.1e}, ops {worst_struct:.1e}, blocks {worst_block:.1e}, "
              f"losses {worst_loss:.1e}, end-to-end {err_e2e:.1e} in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 2: loss oracles


def test_criterion_02_loss_oracles():
    # GD uniform-prediction hand value
    labels = np.array([[[0, 0], [0, 1]]])
    gd = float(losses.gd_loss(Tensor(np.full((1, 2, 2, 2), 0.5)), labels).data)
    assert abs(gd - 4.0 / 7.0) < 1e-6

    # LSCE(eps=0) equals plain cross-entropy to 1e-9
    rng = np.random.default_rng(102)
    lab = rng.integers(0, 4, size=(2, 3, 3))
    logits = rng.normal(size=(2, 4, 3, 3))
    lsce0 = float(losses.lsce_loss(Tensor(logits), lab, 0.0).data)
    m = logits.max(axis=1, keepdims=True)
    logp = logits - m - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    ce = -np.mean([logp[n, lab[n, i, j], i, j]
                   for n in range(2) for i in range(3) for j in range(3)])
    assert abs(lsce0 - ce) < 1e-9

    # smoothed-target formula is exact
    np.testing.assert_array_equal(losses.smoothed_targets(0, 3, 0.1), [0.9, 0.05, 0.05])

    # perfect predictions: GD and CEA at exactly 0, LSCE at its analytic floor
    labels = rng.integers(0, 3, size=(1, 6, 6))
    perfect = np.zeros((1, 3, 6, 6))
    for c in range(3):
        perfect[0, c][labels[0] == c] = 1.0
    assert float(losses.gd_loss(Tensor(perfect), labels).data) == pytest.approx(0.0, abs=1e-12)
    c = losses.sample_cea_class(labels, LossConfig(), np.random.default_rng(0))
    cea = cea_term(Tensor(perfect), labels, c, LossConfig())
    assert float(cea.data) == pytest.approx(0.0, abs=1e-12)
    eps = 0.1
    floor_logits = np.stack([[np.log(losses.smoothed_targets(labels[0, i, j], 3, eps))
                              for j in range(6)] for i in range(6)])
    floor_logits = floor_logits.transpose(2, 0, 1)[None]
    lsce = float(losses.lsce_loss(Tensor(floor_logits), labels, eps).data)
    assert abs(lsce - losses.lsce_floor(3, eps)) < 1e-9
    report(2, f"GD 4/7 err {abs(gd - 4/7):.1e}, LSCE==CE err {abs(lsce0 - ce):.1e}, "
              f"floor err {abs(lsce - losses.lsce_floor(3, eps)):.1e}")


# ---------------------------------------------------------------------------
# criterion 3: loss-weight softmax reproduction


def test_criterion_03_weight_reproduction():
    w = T.softmax(Tensor(np.array([1.0, 1.0, 0.4])), axis=0).data
    target = np.array([0.3923, 0.3923, 0.2153])
    err = np.max(np.abs(w - target))
    assert err < 5e-5
    cfg = LossConfig()
    assert (cfg.alpha, cfg.beta_w, cfg.gamma) == (0.3923, 0.3923, 0.2153)
    report(3, f"softmax(1, 1, 0.4) within {err:.1e} of (0.3923, 0.3923, 0.2153)")


# ---------------------------------------------------------------------------
# criterion 4: distance-transform equivalence, < 30 s


def test_criterion_04_distance_transform_equivalence():
    start = time.time()
    rng = np.random.default_rng(104)
    checked = 0
    for size in (8, 16, 32):
        for _ in range(200):
            m = (rng.random((size, size)) < rng.uniform(0.2, 0.95)).astype(np.uint8)
            np.testing.assert_array_equal(cascaded_conv_dt(m, 20), exact_dt(m, 20))
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 30, f"distance suite took {elapsed:.1f}s"
    report(4, f"{checked} masks bit-exact across routes in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: resolution ladder at published and desk configs


def test_criterion_05_shape_ladder():
    full = NetworkConfig.full_scale()
    store = network.init_network(full, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).normal(size=(1, 3, 224, 224)).astype(np.float32))
    feats = network.funnel_forward(x, store, full.channels[0], full.blocks[0], training=False)
    branches = network.multi_branch_forward(feats, store, full, training=False)
    got = [tuple(b.shape) for b in branches]
    assert got == [(1, 48, 56, 56), (1, 96, 28, 28), (1, 192, 14, 14)]

    store = network.init_network(DESK, np.random.default_rng(2))
    x = Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32))
    feats = network.funnel_forward(x, store, DESK.channels[0], DESK.blocks[0], training=False)
    desk_branches = network.multi_branch_forward(feats, store, DESK, training=False)
    desk_got = [tuple(b.shape) for b in desk_branches]
    assert desk_got == [(1, 8, 16, 16), (1, 16, 8, 8), (1, 32, 4, 4)]
    report(5, f"full-scale {got}, desk {desk_got}")


# ---------------------------------------------------------------------------
# criterion 6: parameter-count direction


def test_criterion_06_parameter_direction():
    ia = network.param_count(DESK)
    basic = network.param_count(NetworkConfig(block_kind="basic"))
    assert ia < basic
    # and per block at matched widths
    for c in (32, 48, 64):
        rng = np.random.default_rng(0)
        s_ia = make_store(lambda s: blocks.ia_block(empty(c), s, "b", WindowSpec(4, 2, 8), 5, 4),
                          rng, np.float32)
        s_basic = make_store(lambda s: blocks.basic_block(empty(c), s, "b", False), rng,
                             np.float32)
        assert s_ia.count_learnable() < s_basic.count_learnable()
    report(6, f"IA network {ia} params < basic network {basic} params")


# ---------------------------------------------------------------------------
# criterion 7: overfit run, < 10 min single core


def test_criterion_07_overfit():
    start = time.time()
    summary = train(DESK, data_seed=7, init_seed=0, epochs=100, batch_size=4,
                    train_count=8, val_count=4, base_lr=2e-2, use_augment=False,
                    quiet=True)
    train_set = synth_dataset(SynthSpec(seed=7, count=8, hw=DESK.input_hw,
                                        num_classes=DESK.num_classes))
    result, _ = evaluate_store(summary["store"], DESK, train_set, LossConfig())
    ratio = summary["epoch_losses"][-1] / summary["epoch_losses"][0]
    elapsed = time.time() - start
    assert result["miou"] >= 0.90, f"train mIoU {result['miou']:.4f}"
    assert ratio < 0.25, f"final/initial loss ratio {ratio:.3f}"
    assert elapsed < 600, f"overfit run took {elapsed:.0f}s"
    report(7, f"train mIoU {result['miou']:.4f}, loss ratio {ratio:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 8: coarse:refined ratio ablation direction


def test_criterion_08_loss_ratio_ablation():
    diffs = []
    for init_seed in (0, 1, 2):
        vals = {}
        for tag, refined_ratio in (("1:1", 1.0), ("1:0.4", 0.4)):
            lc = LossConfig(coarse_ratio=1.0, refined_ratio=refined_ratio)
            summary = train(DESK, loss_config=lc, data_seed=7, init_seed=init_seed,
                            epochs=100, batch_size=4, train_count=8, val_count=4,
                            base_lr=2e-2, use_augment=False, quiet=True)
            vals[tag] = summary["val_metrics"]["miou"]
        diffs.append(vals["1:1"] - vals["1:0.4"])
        assert vals["1:1"] >= vals["1:0.4"] - 0.02, \
            f"seed {init_seed}: 1:1 {vals['1:1']:.4f} vs 1:0.4 {vals['1:0.4']:.4f}"
    report(8, "1:1 minus 1:0.4 val mIoU per seed: "
              + ", ".join(f"{d:+.4f}" for d in diffs))


# ---------------------------------------------------------------------------
# criterion 9: contrastive-pretraining mechanics


def test_criterion_09_moco_mechanics():
    cfg = moco.PretrainConfig(width=4, ib_blocks=1, proj_dim=8, queue_size=64,
                              momentum=0.99, tau=0.2, lr=0.03, jitter=0.05)
    rng = np.random.default_rng(109)

    # momentum-update identities
    pq = moco.init_encoder(cfg, rng)
    pk = pq.copy()
    for _, t in pq.params():
        t.data += 0.25
    moco.momentum_update(pk, pq, 0.0)
    for (_, tk), (_, tq) in zip(pk.params(), pq.params()):
        np.testing.assert_array_equal(tk.data, tq.data)
    name0 = next(iter(dict(pk.params())))
    for _, t in pk.params():
        t.data += 1.0
    gaps = []
    for _ in range(4):
        gaps.append(np.abs(pk[name0].data - pq[name0].data).max())
        moco.momentum_update(pk, pq, 0.5)
    for a, b in zip(gaps, gaps[1:]):
        assert abs(b - 0.5 * a) < 1e-6

    # FIFO ring reconstruction
    state = moco.MoCoState(params_q=None, params_k=None,
                           queue=np.zeros((3, 8), dtype=np.float32), ptr=0)
    history = []
    for _ in range(7):
        keys = rng.normal(size=(2, 3)).astype(np.float32)
        history.extend(keys)
        moco.queue_push(state, keys)
    for offset, vec in enumerate(history[-8:]):
        np.testing.assert_array_equal(state.queue[:, (state.ptr + offset) % 8], vec)

    # InfoNCE closed form
    nce = float(moco.infonce(Tensor(np.array([[1.0, 0.0]])), np.array([[1.0, 0.0]]),
                             np.array([[0.0], [1.0]]), tau=1.0).data)
    assert abs(nce - 0.3133) < 1e-4

    # toy two-cluster separation after 300 seeded steps
    rng = np.random.default_rng(7)
    state = moco.init_moco(cfg, rng)
    images = []
    cluster = []
    for i in range(16):
        base = np.array([0.75, 0.2, 0.2]) if i % 2 == 0 else np.array([0.2, 0.2, 0.75])
        img = np.ones((3, 32, 32)) * base[:, None, None]
        img += rng.normal(0, 0.08, size=(3, 32, 32))
        img += rng.uniform(-0.1, 0.1, size=(3, 1, 1))
        images.append(np.clip(img, 0, 1).astype(np.float32))
        cluster.append(i % 2)
    images = np.stack(images)
    cluster = np.array(cluster)
    velocity = {}
    for _ in range(300):
        idx = rng.choice(16, size=8, replace=False)
        moco.moco_step(state, images[idx], rng, velocity)
    feats = moco.encode(images, state.params_q, cfg, training=False).data
    sims = feats @ feats.T
    same = (cluster[:, None] == cluster[None, :]) & ~np.eye(16, dtype=bool)
    margin = sims[same].mean() - sims[cluster[:, None] != cluster[None, :]].mean()
    assert margin >= 0.2, f"separation margin {margin:.3f}"
    report(9, f"InfoNCE err {abs(nce - 0.3133):.1e}, separation margin {margin:.3f}")


# ---------------------------------------------------------------------------
# criterion 10: determinism and persistence


def test_criterion_10_determinism_and_persistence(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(
        "channels = 4,8,16\nblocks = 1,1,1\nmodules = 1,1\nwindow = 2\n"
        "heads = 2\nhead_dim = 2\nnum_classes = 3\ninput_hw = 32,32\n",
        encoding="utf-8")

    tables = []
    logs = []
    for run in range(2):
        log_path = tmp_path / f"log{run}.tsv"
        ckpt_path = tmp_path / f"model{run}.ckpt"
        rc = cli_main(["train", "--config", str(cfg_path), "--epochs", "3",
                       "--batch-size", "2", "--train-count", "4", "--val-count", "2",
                       "--data-seed", "11", "--out", str(ckpt_path),
                       "--log", str(log_path)])
        assert rc == 0
        tables.append(capsys.readouterr().out)
        logs.append(log_path.read_text(encoding="utf-8"))
    assert logs[0] == logs[1], "repeated runs produced different TSV logs"
    assert tables[0] == tables[1]

    # checkpoint round trip is bit-exact, meta text included
    params, buffers, _, meta = ckpt.load_checkpoint(tmp_path / "model0.ckpt")
    ckpt.write_entries(tmp_path / "copy.ckpt",
                       {f"param.{k}": v for k, v in params.items()}
                       | {f"buffer.{k}": v for k, v in buffers.items()}, meta)
    params2, buffers2, _, meta2 = ckpt.load_checkpoint(tmp_path / "copy.ckpt")
    assert meta2 == meta and meta["data_seed"] == "11"
    for k in params:
        np.testing.assert_array_equal(params[k], params2[k])
    for k in buffers:
        np.testing.assert_array_equal(buffers[k], buffers2[k])

    # eval reproduces the in-run validation metrics to the last digit
    rc = cli_main(["eval", "--ckpt", str(tmp_path / "model0.ckpt"),
                   "--data-seed", "11", "--batch-size", "2", "--val-count", "2"])
    assert rc == 0
    eval_table = capsys.readouterr().out
    assert eval_table == tables[0]
    report(10, "identical TSV logs, bit-exact checkpoint round trip, "
               "eval == in-run metrics")
