"""Truncated Manhattan distance transform of binary masks.

Two independent routes to the same map: a multi-source BFS (the oracle) and
the cascaded-erosion form used inside the edge-aware loss. Both treat the
exterior of the grid as background, matching the zero padding of the
convolutional erosion, and both clip at the truncation radius. For this
metric the erosion cascade is exact, not an approximation.
"""

from __future__ import annotations

from collections import deque

import numpy as np


def _as_binary(mask):
    m = np.asarray(mask)
    if m.ndim < 2:
        raise ValueError(f"mask must be [..., H, W], got shape {m.shape}")
    if not np.isin(m, (0, 1)).all():
        raise ValueError("mask values must be strictly 0/1")
    return m.astype(np.uint8)


def exact_dt(mask, cap):
    """Multi-source BFS distance to the nearest background cell (4-adjacency).

    Background cells have distance 0; the border outside the grid counts as
    background; distances are clipped at `cap`.
    """
    m = _as_binary(mask)
    if m.ndim != 2:
        raise ValueError(f"mask must be 2-d, got shape {m.shape}")
    h, w = m.shape
    if cap < 0:
        raise ValueError("cap must be non-negative")
    dist = np.full((h + 2, w + 2), -1, dtype=np.int64)
    grid = np.zeros((h + 2, w + 2), dtype=np.uint8)
    grid[1:-1, 1:-1] = m
    queue = deque()
    bg_r, bg_c = np.nonzero(grid == 0)
    dist[bg_r, bg_c] = 0
    queue.extend(zip(bg_r.tolist(), bg_c.tolist()))
    while queue:
        r, c = queue.popleft()
        d = dist[r, c] + 1
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= rr < h + 2 and 0 <= cc < w + 2 and dist[rr, cc] < 0:
                dist[rr, cc] = d
                queue.append((rr, cc))
    out = dist[1:-1, 1:-1]
    return np.minimum(out, cap)


def cascaded_conv_dt(mask, cap):
    """Erosion-cascade distance transform: DT = sum of the first `cap`
    erosions of the mask (counting the mask itself), i.e. min(d, cap).

    `mask` is one [H, W] mask or a stack [..., H, W], eroded together; a
    mask that empties early adds only zeros while the others go on.
    """
    m = _as_binary(mask)
    if cap < 0:
        raise ValueError("cap must be non-negative")
    out = np.zeros(m.shape, dtype=np.int64)
    cur = m
    pad = [(0, 0)] * (m.ndim - 2) + [(1, 1), (1, 1)]
    for _ in range(cap):
        if not cur.any():
            break
        out += cur
        p = np.pad(cur, pad)  # exterior is background
        cur = (p[..., 1:-1, 1:-1] & p[..., :-2, 1:-1] & p[..., 2:, 1:-1]
               & p[..., 1:-1, :-2] & p[..., 1:-1, 2:])
    return out


def onehot(labels, num_classes):
    """Integer label map -> stack of binary planes along a leading class axis."""
    lab = np.asarray(labels)
    if lab.size and (lab.min() < 0 or lab.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes}), got "
                         f"[{lab.min()}, {lab.max()}]")
    planes = (lab[None, ...] == np.arange(num_classes).reshape(
        (num_classes,) + (1,) * lab.ndim))
    return planes.astype(np.uint8)
