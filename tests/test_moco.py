"""Contrastive pretraining mechanics: InfoNCE closed forms, momentum-update
identities, FIFO ring semantics, augmentation determinism, and the toy
two-cluster separation run."""

import math

import numpy as np
import pytest

import hiresnet.tensor as T
from hiresnet import moco
from hiresnet.moco import MoCoState, PretrainConfig
from hiresnet.tensor import Tensor


CFG = PretrainConfig(width=4, ib_blocks=1, proj_dim=8, queue_size=16)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# InfoNCE


def test_infonce_unit_orthogonal_closed_form():
    q = Tensor(np.array([[1.0, 0.0]]))
    k = np.array([[1.0, 0.0]])
    queue = np.array([[0.0], [1.0]])  # one orthogonal negative column
    loss = moco.infonce(q, k, queue, tau=1.0)
    assert abs(float(loss.data) - (-math.log(math.e / (math.e + 1)))) < 1e-9
    assert abs(float(loss.data) - 0.3133) < 1e-4


def test_infonce_empty_queue_perfect_match_is_zero():
    q = Tensor(np.array([[0.6, 0.8]]))
    k = np.array([[0.6, 0.8]])
    loss = moco.infonce(q, k, np.zeros((2, 0)), tau=0.5)
    assert float(loss.data) == 0.0


def test_infonce_monotone_in_positive_similarity():
    rng = np.random.default_rng(0)
    queue = np.stack([unit(rng.normal(size=4)) for _ in range(8)], axis=1)
    k = unit(np.array([1.0, 0.0, 0.0, 0.0]))
    prev = None
    for cos in (-0.5, 0.0, 0.5, 0.9, 1.0):
        q = unit(np.array([cos, math.sqrt(1 - cos ** 2), 0.0, 0.0]))
        loss = float(moco.infonce(Tensor(q[None]), k[None], queue, tau=0.3).data)
        if prev is not None:
            assert loss < prev
        prev = loss


def test_infonce_rejects_bad_temperature():
    with pytest.raises(ValueError):
        moco.infonce(Tensor(np.ones((1, 2))), np.ones((1, 2)), None, tau=0.0)


def test_infonce_large_tau_approaches_uniform_bound():
    rng = np.random.default_rng(1)
    n_neg = 32
    queue = np.stack([unit(rng.normal(size=8)) for _ in range(n_neg)], axis=1)
    q = unit(rng.normal(size=8))
    loss = float(moco.infonce(Tensor(q[None]), q[None], queue, tau=100.0).data)
    assert abs(loss - math.log(n_neg + 1)) < 0.05


def test_infonce_gradient_only_through_query():
    rng = np.random.default_rng(2)
    q = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    queue = rng.normal(size=(4, 6))
    with T.Tape():
        loss = moco.infonce(q, rng.normal(size=(2, 4)), queue, tau=0.2)
        T.backward(loss)
    assert q.grad is not None and np.max(np.abs(q.grad)) > 0


# ---------------------------------------------------------------------------
# momentum update


def make_pair(seed=0):
    rng = np.random.default_rng(seed)
    pq = moco.init_encoder(CFG, rng)
    pk = pq.copy()
    for _, t in pq.params():
        t.data += 0.1  # separate the sets
    return pq, pk


def test_momentum_zero_copies_query():
    pq, pk = make_pair()
    moco.momentum_update(pk, pq, 0.0)
    for (_, tk), (_, tq) in zip(pk.params(), pq.params()):
        np.testing.assert_array_equal(tk.data, tq.data)


def test_momentum_arithmetic():
    pq, pk = make_pair()
    for _, t in pk.params():
        t.data[...] = 1.0
    for _, t in pq.params():
        t.data[...] = 0.0
    moco.momentum_update(pk, pq, 0.999)
    for _, t in pk.params():
        np.testing.assert_allclose(t.data, 0.999, rtol=1e-6)


def test_momentum_geometric_convergence():
    pq, pk = make_pair()
    name0, t0 = next(iter(pk.params()))
    gaps = []
    for _ in range(5):
        gaps.append(np.abs(t0.data - pq[name0].data).max())
        moco.momentum_update(pk, pq, 0.5)
    for a, b in zip(gaps, gaps[1:]):
        assert abs(b - 0.5 * a) < 1e-6 * max(1.0, a)


def test_key_params_never_require_grad():
    rng = np.random.default_rng(3)
    state = moco.init_moco(CFG, rng)
    for _, t in state.params_k.params():
        assert not t.requires_grad
    images = rng.uniform(0, 1, size=(4, 3, 32, 32)).astype(np.float32)
    moco.moco_step(state, images, rng, velocity={})
    for _, t in state.params_k.params():
        assert t.grad is None


# ---------------------------------------------------------------------------
# queue


def test_queue_ring_overwrites_fifo():
    state = MoCoState(params_q=None, params_k=None,
                      queue=np.zeros((3, 4), dtype=np.float32), ptr=0)
    def keys(tag, n=2):
        return np.full((n, 3), tag, dtype=np.float32)
    moco.queue_push(state, keys(1.0))
    moco.queue_push(state, keys(2.0))
    moco.queue_push(state, keys(3.0))  # wraps, overwriting the first push
    np.testing.assert_array_equal(state.queue[0], [3.0, 3.0, 2.0, 2.0])
    assert state.ptr == 2


def test_queue_ptr_wraps_to_zero():
    state = MoCoState(params_q=None, params_k=None,
                      queue=np.zeros((2, 6), dtype=np.float32), ptr=0)
    for _ in range(3):
        moco.queue_push(state, np.ones((2, 2), dtype=np.float32))
    assert state.ptr == 0


def test_queue_reconstruction_after_many_pushes():
    # queue must equal exactly the last Q keys in insertion order (mod ring)
    rng = np.random.default_rng(4)
    q_size, dim, batch = 8, 3, 2
    state = MoCoState(params_q=None, params_k=None,
                      queue=np.zeros((dim, q_size), dtype=np.float32), ptr=0)
    history = []
    for _ in range(7):
        keys = rng.normal(size=(batch, dim)).astype(np.float32)
        history.extend(keys)
        moco.queue_push(state, keys)
    last = history[-q_size:]
    for offset, vec in enumerate(last):
        col = (state.ptr + offset) % q_size
        np.testing.assert_array_equal(state.queue[:, col], vec)


def test_queue_rejects_dim_mismatch():
    state = MoCoState(params_q=None, params_k=None,
                      queue=np.zeros((3, 4), dtype=np.float32), ptr=0)
    with pytest.raises(ValueError):
        moco.queue_push(state, np.ones((2, 5), dtype=np.float32))


def test_queue_norm_invariant_after_push():
    rng = np.random.default_rng(5)
    state = moco.init_moco(CFG, rng)
    np.testing.assert_allclose(np.linalg.norm(state.queue, axis=0), 1.0, atol=1e-5)
    keys = np.stack([unit(rng.normal(size=CFG.proj_dim)) for _ in range(4)])
    moco.queue_push(state, keys.astype(np.float32))
    np.testing.assert_allclose(np.linalg.norm(state.queue, axis=0), 1.0, atol=1e-5)


# ---------------------------------------------------------------------------
# augmentation


def test_augment_pair_disabled_path_is_identity():
    rng = np.random.default_rng(6)
    cfg = PretrainConfig(flip_prob=0.0, ratios=(1.0,), jitter=0.0)
    img = rng.uniform(0, 1, size=(3, 16, 16)).astype(np.float32)
    a, b = moco.augment_pair(img, rng, cfg)
    np.testing.assert_array_equal(a, img)
    np.testing.assert_array_equal(b, img)


def test_augment_pair_preserves_shape():
    rng = np.random.default_rng(7)
    img = rng.uniform(0, 1, size=(3, 32, 32)).astype(np.float32)
    for seed in range(5):
        a, b = moco.augment_pair(img, np.random.default_rng(seed))
        assert a.shape == img.shape and b.shape == img.shape


def test_augment_pair_same_seed_identical():
    rng = np.random.default_rng(8)
    img = rng.uniform(0, 1, size=(3, 32, 32)).astype(np.float32)
    pair1 = moco.augment_pair(img, np.random.default_rng(99))
    pair2 = moco.augment_pair(img, np.random.default_rng(99))
    np.testing.assert_array_equal(pair1[0], pair2[0])
    np.testing.assert_array_equal(pair1[1], pair2[1])


# ---------------------------------------------------------------------------
# full steps


def two_cluster_images(rng, count=16, hw=32):
    """Half the images lean red, half lean blue; texture varies per image."""
    images, cluster = [], []
    for i in range(count):
        base = np.array([0.75, 0.2, 0.2]) if i % 2 == 0 else np.array([0.2, 0.2, 0.75])
        img = np.ones((3, hw, hw)) * base[:, None, None]
        img += rng.normal(0, 0.08, size=(3, hw, hw))
        img += rng.uniform(-0.1, 0.1, size=(3, 1, 1))
        images.append(np.clip(img, 0, 1).astype(np.float32))
        cluster.append(i % 2)
    return np.stack(images), np.array(cluster)


def cluster_margin(feats, cluster):
    sims = feats @ feats.T
    same = (cluster[:, None] == cluster[None, :]) & ~np.eye(len(cluster), dtype=bool)
    diff = cluster[:, None] != cluster[None, :]
    return sims[same].mean() - sims[diff].mean()


def test_first_step_loss_near_chance_level():
    rng = np.random.default_rng(9)
    state = moco.init_moco(CFG, rng)
    images, _ = two_cluster_images(rng, count=4)
    loss = moco.moco_step(state, images, rng, velocity={})
    assert loss > 0
    assert loss < 3.0 * math.log(CFG.queue_size + 1)


def test_key_encoder_moves_after_step():
    rng = np.random.default_rng(10)
    state = moco.init_moco(CFG, rng)
    before = {n: t.data.copy() for n, t in state.params_k.params()}
    images, _ = two_cluster_images(rng, count=4)
    moco.moco_step(state, images, rng, velocity={})
    moved = any(np.max(np.abs(before[n] - t.data)) > 0
                for n, t in state.params_k.params())
    assert moved  # m < 1 and theta_q moved


def test_two_cluster_separation_after_training():
    rng = np.random.default_rng(7)
    cfg = PretrainConfig(width=4, ib_blocks=1, proj_dim=8, queue_size=64,
                         momentum=0.99, tau=0.2, lr=0.03, jitter=0.05)
    state = moco.init_moco(cfg, rng)
    images, cluster = two_cluster_images(rng, count=16)
    velocity = {}
    for step in range(300):
        idx = rng.choice(len(images), size=8, replace=False)
        moco.moco_step(state, images[idx], rng, velocity)
    feats = moco.encode(images, state.params_q, cfg, training=False).data
    margin = cluster_margin(feats, cluster)
    assert margin >= 0.2, f"separation margin {margin:.3f}"
