"""Harness components: optimizer, LR schedule, synthetic data, augmentation,
metrics, and the checkpoint container."""

import dataclasses
import math
import re
import struct

import numpy as np
import pytest

from hiresnet.harness import checkpoint as ckpt
from hiresnet.harness import data as D
from hiresnet.harness import metrics as M
from hiresnet.harness.loop import config_from_meta, config_to_meta
from hiresnet.harness.optim import (EPS, NumericalError, OptimState, Schedule,
                                    adamw_step, lr_at)
from hiresnet.network import NetworkConfig, init_network
from hiresnet.params import ParamStore


# ---------------------------------------------------------------------------
# AdamW


def one_param_store(value, name="w"):
    store = ParamStore(dtype=np.float64)
    store.add_param(name, np.asarray(value, dtype=np.float64))
    return store


def test_adamw_zero_grad_no_decay_keeps_params():
    store = one_param_store([1.0, -2.0])
    store["w"].grad = np.zeros(2)
    opt = OptimState(weight_decay=0.0)
    adamw_step(store, opt, lr=0.1)
    np.testing.assert_array_equal(store["w"].data, [1.0, -2.0])


def test_adamw_descends_quadratic():
    store = one_param_store([1.0])
    opt = OptimState(weight_decay=0.0)
    store["w"].grad = 2.0 * store["w"].data  # d/dx x^2
    adamw_step(store, opt, lr=0.1)
    assert store["w"].data[0] ** 2 < 1.0


def test_adamw_converges_on_quadratic_bowl():
    store = one_param_store(np.ones(5))
    opt = OptimState(weight_decay=0.0)
    for _ in range(2000):
        store["w"].grad = 2.0 * store["w"].data
        adamw_step(store, opt, lr=1e-2)
        if np.max(np.abs(store["w"].data)) < 1e-3:
            break
    assert np.max(np.abs(store["w"].data)) < 1e-3


def test_adamw_decoupled_decay_shrinks_params():
    store = one_param_store([4.0])
    opt = OptimState(weight_decay=0.5)
    store["w"].grad = np.zeros(1)
    adamw_step(store, opt, lr=0.1)
    np.testing.assert_allclose(store["w"].data, [4.0 * (1 - 0.1 * 0.5)])


def test_adamw_first_step_is_bias_corrected():
    # step 1 from zero moments: m/(1 - b1) = g and v/(1 - b2) = g², so each
    # parameter moves by lr·g/(|g| + eps) + lr·wd·θ; without the correction
    # the gradient term would be 0.1/√0.001 ≈ 3.2 times larger
    theta = np.array([1.0, -2.0, 0.5, 4.0])
    g = np.array([0.5, -2.0, 1e-3, 3.0])
    store = one_param_store(theta.copy())
    store["w"].grad = g
    opt = OptimState(weight_decay=0.01)
    adamw_step(store, opt, lr=0.1)
    expect = theta - 0.1 * g / (np.abs(g) + EPS) - 0.1 * 0.01 * theta
    np.testing.assert_allclose(store["w"].data, expect, rtol=1e-12)


def test_adamw_aborts_on_nan_gradient():
    store = one_param_store([1.0])
    store["w"].grad = np.array([np.nan])
    with pytest.raises(NumericalError):
        adamw_step(store, OptimState(), lr=0.1)


def test_adamw_deterministic():
    def run():
        store = one_param_store(np.arange(4.0))
        opt = OptimState()
        for i in range(10):
            store["w"].grad = np.sin(store["w"].data + i)
            adamw_step(store, opt, lr=1e-3)
        return store["w"].data.copy()

    np.testing.assert_array_equal(run(), run())


# ---------------------------------------------------------------------------
# LR schedule


SCHED = Schedule(base_lr=0.1, warmup_epochs=3, total_epochs=10, steps_per_epoch=5)


def test_lr_step_zero_is_zero():
    assert lr_at(SCHED, 0) == 0.0


def test_lr_end_of_warmup_is_base():
    assert lr_at(SCHED, 3 * 5) == pytest.approx(0.1, abs=1e-12)


def test_lr_cosine_midpoint_is_half_base():
    warm, total = 15, 50
    mid = warm + (total - warm) / 2
    assert abs(lr_at(SCHED, mid) - 0.05) < 1e-9


def test_lr_clamps_beyond_schedule():
    assert lr_at(SCHED, 50) == 0.0
    assert lr_at(SCHED, 5000) == 0.0


def test_lr_never_negative_and_monotone_warmup():
    vals = [lr_at(SCHED, s) for s in range(60)]
    assert all(v >= 0 for v in vals)
    assert all(a <= b for a, b in zip(vals[:15], vals[1:16]))


def test_schedule_rejects_long_warmup():
    with pytest.raises(ValueError):
        Schedule(base_lr=0.1, warmup_epochs=10, total_epochs=10, steps_per_epoch=5)


# ---------------------------------------------------------------------------
# synthetic data


def test_synth_deterministic():
    spec = D.SynthSpec(seed=3, count=4, hw=(32, 32), num_classes=4)
    a = D.synth_dataset(spec)
    b = D.synth_dataset(spec)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.images, y.images)
        np.testing.assert_array_equal(x.labels, y.labels)


def test_synth_every_class_appears():
    spec = D.SynthSpec(seed=0, count=6, hw=(32, 32), num_classes=4)
    data = D.synth_dataset(spec)
    seen = set()
    for batch in data:
        seen.update(np.unique(batch.labels).tolist())
    assert seen == {0, 1, 2, 3}


def test_synth_shapes_and_range():
    spec = D.SynthSpec(seed=1, count=2, hw=(48, 64), num_classes=3)
    for batch in D.synth_dataset(spec):
        assert batch.images.shape == (1, 3, 48, 64)
        assert batch.labels.shape == (1, 48, 64)
        assert batch.images.min() >= 0.0 and batch.images.max() <= 1.0


def test_synth_rejects_too_many_classes():
    with pytest.raises(ValueError):
        D.synth_dataset(D.SynthSpec(num_classes=5))


def test_synth_imbalanced_frequencies():
    spec = D.SynthSpec(seed=2, count=8, hw=(64, 64), num_classes=4)
    freq = D.class_frequencies(D.synth_dataset(spec), 4)
    assert freq[0] > freq[3]  # background dwarfs the thin polylines


# ---------------------------------------------------------------------------
# augmentation


def test_flip_is_involution():
    rng = np.random.default_rng(4)
    img = rng.normal(size=(3, 8, 8)).astype(np.float32)
    for axis in (0, 1):
        np.testing.assert_array_equal(D.flip_image(D.flip_image(img, axis), axis), img)


def test_scale_ratio_one_is_identity():
    rng = np.random.default_rng(5)
    img = rng.normal(size=(3, 16, 16)).astype(np.float32)
    lab = rng.integers(0, 3, size=(16, 16))
    img2, lab2 = D.scale_crop(img, lab, 1.0, rng)
    np.testing.assert_array_equal(img2, img)
    np.testing.assert_array_equal(lab2, lab)


def test_augment_preserves_shapes_and_flip_keeps_classes():
    rng = np.random.default_rng(6)
    spec = D.SynthSpec(seed=3, count=4, hw=(32, 32), num_classes=4)
    batch = D.stack_batches(D.synth_dataset(spec))
    out = D.augment(batch, rng, ratios=(1.0,))  # flips only
    assert out.images.shape == batch.images.shape
    assert out.labels.shape == batch.labels.shape
    for before, after in zip(batch.labels, out.labels):
        assert set(np.unique(before)) == set(np.unique(after))


def test_augment_deterministic_given_seed():
    spec = D.SynthSpec(seed=3, count=4, hw=(32, 32), num_classes=4)
    batch = D.stack_batches(D.synth_dataset(spec))
    a = D.augment(batch, np.random.default_rng(42))
    b = D.augment(batch, np.random.default_rng(42))
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)


# ---------------------------------------------------------------------------
# metrics


def test_confusion_perfect_prediction_is_diagonal():
    cm = M.new_confusion(3)
    labels = np.array([0, 1, 2, 1, 0])
    M.update_confusion(cm, labels, labels)
    assert np.all(cm == np.diag(np.diag(cm)))
    result = M.metrics(cm)
    assert result["miou"] == 1.0 and result["mean_f1"] == 1.0 and result["oa"] == 1.0


def test_confusion_counts_sum_to_pixels():
    rng = np.random.default_rng(7)
    cm = M.new_confusion(4)
    pred = rng.integers(0, 4, size=100)
    gt = rng.integers(0, 4, size=100)
    M.update_confusion(cm, pred, gt)
    assert cm.sum() == 100


def test_symmetric_two_class_oa():
    cm = np.array([[2, 2], [2, 2]], dtype=np.int64)
    assert M.metrics(cm)["oa"] == 0.5


def test_predict_all_zero_on_half_split():
    # 50/50 ground truth, everything predicted class 0
    cm = M.new_confusion(2)
    gt = np.array([0] * 50 + [1] * 50)
    M.update_confusion(cm, np.zeros(100, dtype=int), gt)
    result = M.metrics(cm)
    np.testing.assert_allclose(result["iou"], [0.5, 0.0])
    assert result["miou"] == 0.25
    assert result["oa"] == 0.5


def test_f1_iou_identity():
    rng = np.random.default_rng(8)
    cm = M.new_confusion(4)
    M.update_confusion(cm, rng.integers(0, 4, 500), rng.integers(0, 4, 500))
    result = M.metrics(cm)
    for iou, f1 in zip(result["iou"], result["f1"]):
        if not math.isnan(iou):
            assert abs(f1 - 2 * iou / (1 + iou)) < 1e-12


def test_unseen_class_excluded_from_means():
    cm = M.new_confusion(3)
    M.update_confusion(cm, np.array([0, 1, 0, 1]), np.array([0, 1, 1, 1]))  # class 2 absent
    result = M.metrics(cm)
    assert math.isnan(result["iou"][2])
    assert result["miou"] == pytest.approx(np.mean([result["iou"][0], result["iou"][1]]))


def test_update_confusion_rejects_out_of_range():
    cm = M.new_confusion(2)
    with pytest.raises(ValueError):
        M.update_confusion(cm, np.array([2]), np.array([0]))


def test_metrics_rejects_empty():
    with pytest.raises(ValueError):
        M.metrics(M.new_confusion(2))


# ---------------------------------------------------------------------------
# checkpoints


def small_store():
    store = ParamStore()
    rng = np.random.default_rng(9)
    store.add_param("layer.weight", rng.normal(size=(3, 2)).astype(np.float32))
    store.add_param("layer.bias", rng.normal(size=3).astype(np.float32))
    store.add_buffer("layer.running_mean", rng.normal(size=3).astype(np.float32))
    return store


def test_checkpoint_round_trip_bit_exact(tmp_path):
    store = small_store()
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(store, None, {"epochs": 3.0}, path)
    params, buffers, _, meta = ckpt.load_checkpoint(path)
    np.testing.assert_array_equal(params["layer.weight"], store["layer.weight"].data)
    np.testing.assert_array_equal(params["layer.bias"], store["layer.bias"].data)
    np.testing.assert_array_equal(buffers["layer.running_mean"],
                                  store["layer.running_mean"].data)
    assert meta == {"epochs": "3.0"}


def test_checkpoint_meta_round_trips_exactly(tmp_path):
    path = tmp_path / "model.ckpt"
    meta = {"seed": 2 ** 53 + 1, "big": 16777217, "lr": 0.1 + 0.2, "tiny": 5e-324,
            "f32": np.float32(0.1), "name": "gelu silu", "hw": (32, 64), "empty": ""}
    ckpt.save_checkpoint(small_store(), None, meta, path)
    _, _, _, got = ckpt.load_checkpoint(path)
    assert got == {"seed": "9007199254740993", "big": "16777217",
                   "lr": "0.30000000000000004", "tiny": "5e-324",
                   "f32": "0.1", "name": "gelu silu", "hw": "32,64", "empty": ""}
    assert int(got["seed"]) == 2 ** 53 + 1 and float(got["lr"]) == 0.1 + 0.2
    assert np.float32(got["f32"]) == np.float32(0.1)


@pytest.mark.parametrize("meta", [{"a": "x\ny"}, {"a\nb": 1}, {"a=b": 1}, {" a": 1},
                                  {"a": "x "}, {"#a": 1}])
def test_checkpoint_meta_that_would_not_read_back_is_refused(tmp_path, meta):
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError):
        ckpt.save_checkpoint(small_store(), None, meta, path)
    assert not list(tmp_path.iterdir())


def meta_block(text):
    """The bytes after the magic of a checkpoint whose meta block is `text`."""
    return struct.pack("<I", len(text)) + text


@pytest.mark.parametrize("after_magic, message", [
    (meta_block(b"a = 1\n\xff = 2\n"), "meta ending at byte 22 is not UTF-8"),
    (meta_block(b"a = 1\nno equals sign\n"), "meta:2: expected key=value"),
    (meta_block(b"a = 1\nb = 2\na = 3\n"), "meta:3: duplicate key 'a'"),
    (meta_block(b"a = 1\n")[:-1], "truncated meta"),
], ids=["not-utf8", "no-equals", "duplicate-key", "truncated"])
def test_checkpoint_bad_meta_raises_checkpoint_error(tmp_path, after_magic, message):
    path = tmp_path / "model.ckpt"
    path.write_bytes(ckpt.MAGIC + after_magic)
    with pytest.raises(ckpt.CheckpointError, match=message):
        ckpt.load_checkpoint(path)


def test_hires1_checkpoint_is_refused_by_name(tmp_path):
    # the retired layout: magic, then entries, meta as "meta." f32 entries
    path = tmp_path / "old.ckpt"
    name = b"meta.epochs"
    path.write_bytes(b"HIRES1" + struct.pack("<I", len(name)) + name
                     + struct.pack("<I", 0) + struct.pack("<f", 3.0))
    with pytest.raises(ckpt.CheckpointError, match="HIRES1.*re-save"):
        ckpt.load_checkpoint(path)


def test_config_with_every_field_changed_round_trips_through_a_checkpoint(tmp_path):
    config = NetworkConfig(channels=(4, 8, 12), blocks=(1, 3, 1), modules=(2, 1), window=2,
                           heads=3, head_dim=5, dw_kernel=3, se_ratio=2, num_classes=5,
                           input_hw=(32, 64), block_kind="basic",
                           ia_activations=("relu", "sigmoid"), ocr_dim=6)
    default = NetworkConfig()
    for field in dataclasses.fields(NetworkConfig):
        assert getattr(config, field.name) != getattr(default, field.name), field.name
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(small_store(), None, config_to_meta(config), path)
    _, _, _, meta = ckpt.load_checkpoint(path)
    assert meta["cfg_ia_activations"] == "relu,sigmoid" and meta["cfg_block_kind"] == "basic"
    assert config_from_meta(meta) == config


def test_checkpoint_failed_save_keeps_the_previous_file(tmp_path):
    class Unconvertible:
        def __array__(self, dtype=None, copy=None):
            raise RuntimeError("conversion failed")

    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(small_store(), None, {"epochs": 3.0}, path)
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="conversion failed"):
        ckpt.write_entries(path, {"param.layer.bias": np.ones(3), "param.bad": Unconvertible()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    store = small_store()
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(store, None, {}, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_checkpoint(path)


def single_entry_checkpoint(path, name="w"):
    """A checkpoint with empty meta holding one [3, 2] entry; returns its
    bytes and the offsets of the entry's name and of its dims."""
    ckpt.write_entries(path, {name: np.arange(6.0).reshape(3, 2)})
    raw = bytearray(path.read_bytes())
    at = len(ckpt.MAGIC) + 4 + 4  # magic, meta length (0), name length
    assert raw[at - 8:at] == struct.pack("<2I", 0, len(name.encode()))
    assert raw[at:at + len(name.encode())] == name.encode()
    dims = at + len(name.encode()) + 4
    assert raw[dims - 4:dims + 8] == struct.pack("<3I", 2, 3, 2)
    return raw, at, dims


def test_checkpoint_huge_declared_dims_raise_checkpoint_error(tmp_path):
    path = tmp_path / "model.ckpt"
    raw, _, dims = single_entry_checkpoint(path)
    raw[dims:dims + 8] = struct.pack("<2I", 60000, 60000)  # 14.4 GB of payload
    path.write_bytes(raw)
    with pytest.raises(ckpt.CheckpointError, match="payload for w"):
        ckpt.read_entries(path)


def test_checkpoint_undecodable_name_raises_checkpoint_error(tmp_path):
    path = tmp_path / "model.ckpt"
    raw, name_at, _ = single_entry_checkpoint(path, name="layer.w")
    raw[name_at] = 0xFF  # never valid in UTF-8
    path.write_bytes(raw)
    with pytest.raises(ckpt.CheckpointError, match="entry name ending at byte .* not UTF-8"):
        ckpt.read_entries(path)


def test_corrupt_checkpoints_read_or_raise_checkpoint_error(tmp_path):
    # every truncation and seeded single-byte flips of a small checkpoint
    # whose meta block holds an int, a float, a string and a tuple
    path = tmp_path / "model.ckpt"
    meta = {"epochs": 3, "lr": 0.003, "cfg_block_kind": "basic", "cfg_input_hw": (32, 64)}
    ckpt.save_checkpoint(small_store(), OptimState(step=2), meta, path)
    good = path.read_bytes()
    rng = np.random.default_rng(41)
    corrupt = [good[:n] for n in range(len(good))]
    for _ in range(400):
        raw = bytearray(good)
        raw[rng.integers(len(raw))] ^= int(rng.integers(1, 256))
        corrupt.append(bytes(raw))
    outcomes = {"read": 0, "error": 0}
    for raw in corrupt:
        path.write_bytes(raw)
        try:
            entries, meta = ckpt.read_entries(path)
        except ckpt.CheckpointError:
            outcomes["error"] += 1
        else:
            assert all(isinstance(a, np.ndarray) for a in entries.values())
            assert all(isinstance(v, str) for v in meta.values())
            outcomes["read"] += 1
    assert outcomes["read"] and outcomes["error"]


def test_checkpoint_shape_mismatch_names_offender(tmp_path):
    store = small_store()
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(store, None, {}, path)
    params, buffers, _, _ = ckpt.load_checkpoint(path)

    other = ParamStore()
    other.add_param("layer.weight", np.zeros((4, 2), dtype=np.float32))
    other.add_param("layer.bias", np.zeros(3, dtype=np.float32))
    other.add_buffer("layer.running_mean", np.zeros(3, dtype=np.float32))
    with pytest.raises(ckpt.CheckpointError, match="layer.weight"):
        ckpt.restore_store(other, params, buffers, path=str(path))


def test_checkpoint_restore_names_missing_and_misshaped_buffers(tmp_path):
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(small_store(), None, {}, path)
    params, buffers, _, _ = ckpt.load_checkpoint(path)

    extra = small_store()
    extra.add_buffer("layer.running_var", np.ones(3, dtype=np.float32))
    with pytest.raises(ckpt.CheckpointError, match="missing buffer layer.running_var"):
        ckpt.restore_store(extra, params, buffers, path=str(path))

    other = ParamStore()
    other.add_param("layer.weight", np.zeros((3, 2), dtype=np.float32))
    other.add_param("layer.bias", np.zeros(3, dtype=np.float32))
    other.add_buffer("layer.running_mean", np.zeros(4, dtype=np.float32))
    with pytest.raises(ckpt.CheckpointError,
                       match=r"shape mismatch for layer.running_mean: checkpoint \(3,\) vs config \(4,\)"):
        ckpt.restore_store(other, params, buffers, path=str(path))


@pytest.mark.parametrize("weights, count", [
    (r".*\.attn\.k\.weight", 22),  # the key bias cancels in the softmax
    # these convs feed a training-mode BN, whose batch mean cancels the bias
    (r"refine\.(pixel_key|region_key|region_value)\.conv\.weight"
     r"|layer2\.mod\d\.fuse\.0to2\.step0\.conv\.weight", 5),
], ids=["attn_key_bias", "conv_bias_before_bn"])
def test_checkpoint_with_key_bias_entries_restores(tmp_path, weights, count):
    # checkpoints written before a dead bias was dropped carry its entry;
    # restore_store ignores names the store lacks
    config = NetworkConfig()
    store = init_network(config, np.random.default_rng(3))
    entries = {f"param.{name}": t.data for name, t in store.params()}
    entries.update({f"buffer.{name}": t.data for name, t in store.buffers()})
    stale = {name.replace(".weight", ".bias"): t.data.shape[0] for name, t in store.params()
             if re.fullmatch(weights, name)}
    assert len(stale) == count
    for name, size in stale.items():
        entries[f"param.{name}"] = np.full(size, 0.25, np.float32)
    path = tmp_path / "old.ckpt"
    ckpt.write_entries(path, entries)

    params, buffers, _, _ = ckpt.load_checkpoint(path)
    assert all(name in params for name in stale)
    fresh = init_network(config, np.random.default_rng(4))
    ckpt.restore_store(fresh, params, buffers, path=str(path))
    for name, t in store.params():
        np.testing.assert_array_equal(fresh[name].data, t.data)
    for name, t in store.buffers():
        np.testing.assert_array_equal(fresh[name].data, t.data)
    assert not any(name in fresh for name in stale)


def test_training_loss_decreases_over_epochs():
    # median combined loss over the last three epochs must undercut the first three
    from hiresnet.harness.loop import train
    from hiresnet.network import NetworkConfig

    summary = train(NetworkConfig(), data_seed=0, init_seed=0, epochs=10,
                    batch_size=4, train_count=16, val_count=4, base_lr=3e-3,
                    quiet=True)
    losses = summary["epoch_losses"]
    assert np.median(losses[7:10]) < np.median(losses[0:3])


def test_checkpoint_optimizer_state_round_trip(tmp_path):
    store = small_store()
    opt = OptimState(step=7)
    opt.m["layer.weight"] = np.full((3, 2), 0.25, dtype=np.float32)
    opt.v["layer.weight"] = np.full((3, 2), 0.5, dtype=np.float32)
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(store, opt, {}, path)
    _, _, opt_entries, _ = ckpt.load_checkpoint(path)
    assert float(opt_entries["step"]) == 7.0
    np.testing.assert_array_equal(opt_entries["m.layer.weight"], 0.25)


def test_checkpoint_optimizer_step_round_trips_exactly(tmp_path):
    # 2^24 + 1 is the first step a float32 cannot hold
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(small_store(), OptimState(step=16777217), {"epochs": 3}, path)
    _, _, opt_entries, meta = ckpt.load_checkpoint(path)
    assert type(opt_entries["step"]) is int
    assert opt_entries["step"] == 16777217
    assert meta == {"epochs": "3"}


def test_checkpoint_meta_may_not_hold_the_optimizer_step(tmp_path):
    path = tmp_path / "model.ckpt"
    for opt in (OptimState(step=3), None):
        with pytest.raises(ValueError, match="opt_step"):
            ckpt.save_checkpoint(small_store(), opt, {"opt_step": 5}, path)
    assert not path.exists()
    ckpt.write_entries(path, {}, {"opt_step": 1.5})
    with pytest.raises(ckpt.CheckpointError, match="opt_step '1.5' is not an integer"):
        ckpt.load_checkpoint(path)
