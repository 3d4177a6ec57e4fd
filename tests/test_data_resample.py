"""The synthetic data's bilinear resampler: the matrix form against the
four-gather formula it replaced, and the scenes it produces pinned bit for
bit."""

import hashlib

import numpy as np
import pytest

from hiresnet.harness import data as D


def gather_resize(img, out_hw):
    """Oracle: the per-channel four-gather formula, low-border clamp included."""
    h, w = img.shape
    oh, ow = out_hw
    sy = (np.arange(oh) + 0.5) * h / oh - 0.5
    sx = (np.arange(ow) + 0.5) * w / ow - 0.5
    y0 = np.clip(np.floor(sy).astype(int), 0, h - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x0 = np.clip(np.floor(sx).astype(int), 0, w - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    fy = np.clip(sy - np.floor(sy), 0.0, 1.0).reshape(-1, 1)
    fx = np.clip(sx - np.floor(sx), 0.0, 1.0).reshape(1, -1)
    return ((1 - fy) * (1 - fx) * img[y0[:, None], x0[None, :]]
            + (1 - fy) * fx * img[y0[:, None], x1[None, :]]
            + fy * (1 - fx) * img[y1[:, None], x0[None, :]]
            + fy * fx * img[y1[:, None], x1[None, :]])


def random_cases(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        h, w = (int(v) for v in rng.integers(1, 24, size=2))
        oh, ow = (int(v) for v in rng.integers(1, 49, size=2))
        yield rng, (h, w), (oh, ow)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("channels", [None, 3])
def test_resize_matches_the_gather_formula(channels, dtype):
    cases = list(random_cases(11 if channels is None else 12, 150))
    cases += [(np.random.default_rng(13), (1, 1), (5, 7)),
              (np.random.default_rng(14), (1, 6), (4, 3)),
              (np.random.default_rng(15), (9, 1), (2, 8))]
    sizes = set()
    for rng, (h, w), (oh, ow) in cases:
        lead = () if channels is None else (channels,)
        img = rng.uniform(size=lead + (h, w)).astype(dtype)
        got = D.resize_bilinear(img, (oh, ow))
        want = (gather_resize(img, (oh, ow)) if channels is None
                else np.stack([gather_resize(c, (oh, ow)) for c in img]))
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15, ((h, w), (oh, ow))
        sizes.add((oh > h, ow < w))
    assert len(sizes) == 4  # up- and downscale on each axis


@pytest.mark.parametrize("n_in,n_out", [(1, 4), (4, 1), (5, 8), (13, 64), (48, 32), (9, 9)])
def test_resize_matrix_rows_sum_to_one_and_are_read_only(n_in, n_out):
    a = D._resize_matrix(n_in, n_out)
    assert a.shape == (n_out, n_in) and a.dtype == np.float64
    np.testing.assert_allclose(a.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    assert a is D._resize_matrix(n_in, n_out)  # cached, so every caller shares it
    with pytest.raises(ValueError):
        a[0, 0] = 2.0


def scenes_digest(hw):
    h = hashlib.sha256()
    for batch in D.synth_dataset(D.SynthSpec(seed=0, count=4, hw=hw)):
        h.update(batch.images.tobytes())
        h.update(batch.labels.tobytes())
    return h.hexdigest()


# Computed with the per-channel four-gather resize the matrix form replaced.
# perfbench/baseline.json records loss_last per seed from scenes made by
# this generator (and from the pinned initial weights), so a change to the
# backgrounds, the shapes or their draws shows here first.
SCENE_DIGESTS = {
    (32, 32): "d1e1aec3c87b31fe5535af21461f4f7eef71d405218f8101a4c4a7cfe306f7fb",
    (64, 64): "12f11f40110636ee8642ebd2054a1e0500219054f160d5dd23625b6f3cef2dd8",
}


@pytest.mark.parametrize("hw", sorted(SCENE_DIGESTS))
def test_synthetic_scenes_are_pinned(hw):
    assert scenes_digest(hw) == SCENE_DIGESTS[hw], (
        f"synthetic scenes at {hw} changed: perfbench/baseline.json's loss_last "
        "was recorded from this data and must be re-recorded with this change")
