"""Distance transform: BFS oracle vs erosion cascade, boundary conditions,
truncation, and monotonicity."""

import numpy as np
import pytest

from hiresnet.distance import cascaded_conv_dt, exact_dt, onehot


def test_all_background_is_zero():
    m = np.zeros((5, 7), dtype=np.uint8)
    np.testing.assert_array_equal(exact_dt(m, 10), 0)
    np.testing.assert_array_equal(cascaded_conv_dt(m, 10), 0)


def test_all_foreground_3x3_hand_bfs():
    m = np.ones((3, 3), dtype=np.uint8)
    expect = np.array([[1, 1, 1], [1, 2, 1], [1, 1, 1]])
    np.testing.assert_array_equal(exact_dt(m, 10), expect)


def test_single_interior_cell():
    m = np.array([[0, 1, 0]], dtype=np.uint8)
    np.testing.assert_array_equal(exact_dt(m, 10), [[0, 1, 0]])


def test_one_pixel_strip_touches_exterior_everywhere():
    # exterior counts as background on all sides, so a 1xN strip is all ones
    m = np.ones((1, 9), dtype=np.uint8)
    np.testing.assert_array_equal(cascaded_conv_dt(m, 20), 1)
    np.testing.assert_array_equal(exact_dt(m, 20), 1)


def test_strip_profile_matches_1d_hand_solution():
    # middle row of a tall all-ones block: vertical exits never bind, so the
    # profile is the 1-d solution min(i+1, N-i, cap)
    n, h = 9, 13
    m = np.ones((h, n), dtype=np.uint8)
    for cap in (3, 20):
        expect = np.minimum(np.minimum(np.arange(n) + 1, n - np.arange(n)), cap)
        np.testing.assert_array_equal(cascaded_conv_dt(m, cap)[h // 2], expect)
        np.testing.assert_array_equal(exact_dt(m, cap)[h // 2], expect)


def test_cap_zero_gives_zeros():
    m = np.ones((4, 4), dtype=np.uint8)
    np.testing.assert_array_equal(cascaded_conv_dt(m, 0), 0)
    np.testing.assert_array_equal(exact_dt(m, 0), 0)


def test_routes_agree_on_random_masks():
    rng = np.random.default_rng(0)
    for size in (8, 16, 32):
        for _ in range(50):
            m = (rng.random((size, size)) < rng.uniform(0.3, 0.9)).astype(np.uint8)
            np.testing.assert_array_equal(cascaded_conv_dt(m, 20), exact_dt(m, 20))


def test_four_adjacent_cells_differ_by_at_most_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = (rng.random((16, 16)) < 0.8).astype(np.uint8)
        d = exact_dt(m, 50)
        assert np.all(np.abs(np.diff(d, axis=0)) <= 1)
        assert np.all(np.abs(np.diff(d, axis=1)) <= 1)


def test_shrinking_foreground_never_increases_distance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = (rng.random((12, 12)) < 0.85).astype(np.uint8)
        removed = m.copy()
        fg = np.argwhere(removed == 1)
        if len(fg) == 0:
            continue
        r, c = fg[rng.integers(len(fg))]
        removed[r, c] = 0
        assert np.all(exact_dt(removed, 20) <= exact_dt(m, 20))


def test_cap_saturates_beyond_diameter():
    rng = np.random.default_rng(3)
    m = (rng.random((10, 10)) < 0.9).astype(np.uint8)
    d1 = cascaded_conv_dt(m, 25)   # > diameter of a 10x10 grid
    d2 = cascaded_conv_dt(m, 500)
    np.testing.assert_array_equal(d1, d2)


def test_rejects_non_binary():
    with pytest.raises(ValueError):
        exact_dt(np.array([[0, 2]]), 5)


@pytest.mark.parametrize("cap", [0, 3, 20])
def test_stacked_masks_match_the_oracle_per_mask(cap):
    # one cascade over a stack: masks that empty early keep eroding zeros
    rng = np.random.default_rng(4)
    stack = (rng.random((6, 12, 16)) < rng.uniform(0.3, 0.95, size=(6, 1, 1))).astype(np.uint8)
    stack[0] = 0
    stack[1] = 1
    out = cascaded_conv_dt(stack, cap)
    assert out.shape == stack.shape
    for m, d in zip(stack, out):
        np.testing.assert_array_equal(d, exact_dt(m, cap))


def test_rejects_wrong_rank():
    with pytest.raises(ValueError):
        cascaded_conv_dt(np.ones(5, dtype=np.uint8), 3)
    with pytest.raises(ValueError):
        exact_dt(np.ones((2, 4, 4), dtype=np.uint8), 3)


# ---------------------------------------------------------------------------
# onehot


def test_onehot_single_pixel():
    planes = onehot(np.array([[2]]), 3)
    np.testing.assert_array_equal(planes[:, 0, 0], [0, 0, 1])


def test_onehot_partition_of_unity():
    rng = np.random.default_rng(4)
    lab = rng.integers(0, 4, size=(6, 6))
    planes = onehot(lab, 4)
    np.testing.assert_array_equal(planes.sum(axis=0), 1)


def test_onehot_round_trip():
    rng = np.random.default_rng(5)
    lab = rng.integers(0, 5, size=(8, 8))
    np.testing.assert_array_equal(np.argmax(onehot(lab, 5), axis=0), lab)


def test_onehot_rejects_out_of_range():
    with pytest.raises(ValueError):
        onehot(np.array([[3]]), 3)
