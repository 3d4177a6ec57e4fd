"""Seeded synthetic segmentation data and geometric augmentation.

Scenes are textured backgrounds with three shape families painted over
them: axis-aligned rectangles, discs, and 2-pixel-wide polylines. The class
pixel budgets are deliberately imbalanced (lines are thin, rectangles are
large) so the inverse-volume weighting of the dice term actually matters.

Images resample through two cached interpolation matrices, `A_h · X · A_wᵀ`,
shared by every channel (`resize_bilinear`). Their weights keep this
module's historical low-border clamp, because the benchmark's recorded
losses were computed from data resampled with it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# class id -> painted base color (background texture is class 0)
_SHAPE_COLORS = {
    1: (0.78, 0.28, 0.24),   # rectangles
    2: (0.15, 0.32, 0.85),   # discs
    3: (0.92, 0.90, 0.82),   # polylines
}


@dataclass(frozen=True)
class SynthSpec:
    seed: int = 0
    count: int = 8
    hw: tuple = (64, 64)
    num_classes: int = 4
    density: float = 1.3     # expected shapes per family per image
    noise: float = 0.02


@dataclass
class SegBatch:
    images: np.ndarray   # [N, 3, H, W] float32 in [0, 1]
    labels: np.ndarray   # [N, H, W] int64


def _background(rng, h, w):
    coarse = rng.uniform(0.12, 0.38, size=(3, h // 8 + 1, w // 8 + 1))
    img = resize_bilinear(coarse, (h, w))
    img[1] += 0.14  # greenish tint
    return img


def _paint_rect(rng, img, lab, cls):
    h, w = lab.shape
    rh = int(rng.integers(h // 8, h // 3))
    rw = int(rng.integers(w // 8, w // 3))
    r0 = int(rng.integers(0, h - rh))
    c0 = int(rng.integers(0, w - rw))
    color = np.asarray(_SHAPE_COLORS[1]) + rng.uniform(-0.06, 0.06, 3)
    img[:, r0:r0 + rh, c0:c0 + rw] = color[:, None, None]
    lab[r0:r0 + rh, c0:c0 + rw] = cls


def _paint_disc(rng, img, lab, cls):
    h, w = lab.shape
    rad = int(rng.integers(max(3, h // 9), max(4, h // 5)))
    cy = int(rng.integers(rad, h - rad))
    cx = int(rng.integers(rad, w - rad))
    yy, xx = np.ogrid[:h, :w]
    mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= rad ** 2
    color = np.asarray(_SHAPE_COLORS[2]) + rng.uniform(-0.06, 0.06, 3)
    img[:, mask] = color[:, None]
    lab[mask] = cls


def _paint_line(rng, img, lab, cls):
    # Manhattan polyline: a horizontal run then a vertical run, 2 px wide.
    # Roads sit on a 4 px city-block lattice; that keeps their 2 px width
    # representable by quarter-resolution logit maps under 4x upsampling.
    h, w = lab.shape
    r0, r1 = np.sort(rng.integers(0, (h - 3) // 4, size=2)) * 4 + 1
    c0, c1 = np.sort(rng.integers(0, (w - 3) // 4, size=2)) * 4 + 1
    mask = np.zeros((h, w), dtype=bool)
    if rng.random() < 0.5:
        mask[r0:r0 + 2, c0:c1 + 2] = True   # horizontal leg at the start row
        mask[r0:r1 + 2, c1:c1 + 2] = True   # vertical leg at the far column
    else:
        mask[r0:r1 + 2, c0:c0 + 2] = True
        mask[r1:r1 + 2, c0:c1 + 2] = True
    color = np.asarray(_SHAPE_COLORS[3]) + rng.uniform(-0.05, 0.05, 3)
    img[:, mask] = color[:, None]
    lab[mask] = cls


_PAINTERS = {1: _paint_rect, 2: _paint_disc, 3: _paint_line}


def synth_dataset(spec):
    """Deterministic list of single-image batches; every class id appears."""
    if not 2 <= spec.num_classes <= 1 + len(_PAINTERS):
        raise ValueError(
            f"num_classes must lie in [2, {1 + len(_PAINTERS)}] "
            "(background plus available shape families)")
    rng = np.random.default_rng(spec.seed)
    h, w = spec.hw
    out = []
    for _ in range(spec.count):
        img = _background(rng, h, w)
        lab = np.zeros((h, w), dtype=np.int64)
        for cls in range(1, spec.num_classes):
            n_shapes = min(3, max(1, int(rng.poisson(spec.density))))
            for _ in range(n_shapes):
                _PAINTERS[cls](rng, img, lab, cls)
        img += rng.normal(0.0, spec.noise, size=img.shape)
        np.clip(img, 0.0, 1.0, out=img)
        out.append(SegBatch(images=img[None].astype(np.float32), labels=lab[None]))
    return out


def class_frequencies(dataset, num_classes):
    counts = np.zeros(num_classes, dtype=np.int64)
    for batch in dataset:
        counts += np.bincount(batch.labels.reshape(-1), minlength=num_classes)
    return counts / counts.sum()


def stack_batches(items):
    return SegBatch(images=np.concatenate([b.images for b in items]),
                    labels=np.concatenate([b.labels for b in items]))


# ---------------------------------------------------------------------------
# geometry helpers shared with the contrastive-pretraining augmentations


@functools.cache
def _resize_matrix(n_in, n_out):
    """Read-only [n_out, n_in] float64 half-pixel interpolation weights.

    Output o samples s = (o + 0.5) n_in / n_out - 0.5 and blends i0 with
    weight 1 - f and i1 with weight f. The low border is clamped wrongly:
    i1 = clip(clip(floor(s)) + 1) and f = clip(s - floor(s), 0, 1), so for
    s < 0 the first row mixes samples 0 and 1 instead of repeating sample 0.
    `tensor.bilinear_matrix` clamps correctly. These weights are kept
    because perfbench's `baseline.json` losses were recorded from scenes
    and crops resampled with them; fixing the border re-records that file.
    Cached and shared by every caller, so the array is not writable.
    """
    rows = np.arange(n_out)
    s = (rows + 0.5) * n_in / n_out - 0.5
    i0 = np.clip(np.floor(s).astype(int), 0, n_in - 1)
    i1 = np.clip(i0 + 1, 0, n_in - 1)
    f = np.clip(s - np.floor(s), 0.0, 1.0)
    a = np.zeros((n_out, n_in))
    a[rows, i0] = 1.0 - f
    a[rows, i1] += f
    a.setflags(write=False)
    return a


def resize_bilinear(img, out_hw):
    """Half-pixel bilinear resize of [..., H, W] to [..., oh, ow] as float64
    (plain numpy, no autodiff): `A_h · img · A_wᵀ`, one matmul pair for
    every leading channel, with `_resize_matrix`'s weights."""
    h, w = img.shape[-2:]
    oh, ow = out_hw
    return _resize_matrix(h, oh) @ img @ _resize_matrix(w, ow).T


def resize_nearest(arr, out_hw):
    h, w = arr.shape
    oh, ow = out_hw
    yi = np.clip(((np.arange(oh) + 0.5) * h / oh).astype(int), 0, h - 1)
    xi = np.clip(((np.arange(ow) + 0.5) * w / ow).astype(int), 0, w - 1)
    return arr[yi[:, None], xi[None, :]]


def flip_image(img, axis):
    """Flip [C, H, W] (axis 0 = vertical, 1 = horizontal); an involution."""
    return np.flip(img, axis=axis + 1).copy()


SCALE_RATIOS = (0.5, 0.75, 1.0, 1.25, 1.5)


def scale_crop(img, lab, ratio, rng):
    """Rescale by `ratio`, then random-crop or zero-pad back to the original
    size. Images resample bilinearly, labels by nearest neighbor."""
    if ratio == 1.0:
        return img, lab
    c, h, w = img.shape
    nh, nw = max(2, round(h * ratio)), max(2, round(w * ratio))
    scaled = resize_bilinear(img, (nh, nw))
    slab = resize_nearest(lab, (nh, nw)) if lab is not None else None
    out_img = np.zeros((c, h, w), dtype=img.dtype)
    out_lab = np.zeros((h, w), dtype=lab.dtype) if lab is not None else None
    if nh >= h:
        r0 = int(rng.integers(0, nh - h + 1))
        c0 = int(rng.integers(0, nw - w + 1))
        out_img[...] = scaled[:, r0:r0 + h, c0:c0 + w]
        if lab is not None:
            out_lab[...] = slab[r0:r0 + h, c0:c0 + w]
    else:
        r0 = int(rng.integers(0, h - nh + 1))
        c0 = int(rng.integers(0, w - nw + 1))
        out_img[:, r0:r0 + nh, c0:c0 + nw] = scaled
        if lab is not None:
            out_lab[r0:r0 + nh, c0:c0 + nw] = slab
    return out_img, out_lab


def augment(batch, rng, ratios=SCALE_RATIOS):
    """Random flips plus one scale draw per image, labels moved identically."""
    images = []
    labels = []
    for img, lab in zip(batch.images, batch.labels):
        if rng.random() < 0.5:
            img, lab = flip_image(img, 0), np.flip(lab, axis=0).copy()
        if rng.random() < 0.5:
            img, lab = flip_image(img, 1), np.flip(lab, axis=1).copy()
        ratio = ratios[rng.integers(len(ratios))]
        img, lab = scale_crop(img, lab, ratio, rng)
        images.append(img)
        labels.append(lab)
    return SegBatch(images=np.stack(images).astype(np.float32),
                    labels=np.stack(labels))
