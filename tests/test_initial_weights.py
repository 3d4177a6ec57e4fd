"""Initial weights are pinned bit for bit: names, order, dtypes, shapes and
values of a seeded network and MoCo state."""

import hashlib

import numpy as np

from hiresnet import moco, network
from hiresnet.moco import PretrainConfig
from hiresnet.network import NetworkConfig


def digest(named_arrays):
    h = hashlib.sha256()
    for name, arr in named_arrays:
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def store_arrays(store, tag=""):
    return [(tag + name, t.data) for name, t in list(store.params()) + list(store.buffers())]


# Computed with the explicit per-layer init functions the forward-recorded
# parameters replaced. perfbench/baseline.json records loss_last per seed
# from these exact initial weights (and the synthetic data), so a change to
# any name, order, shape, dtype, initializer or draw shows here first.
NETWORK_DIGEST = "09ee21412c6d099c9df19d1918a61b34d90135d3fb790a17aa6c46433284bc79"
MOCO_DIGEST = "2621308f98d111e679d4ffc4e5f8bc4340c4861809ed7a7bb1b5310f8ee0032f"


def test_initial_network_weights_are_pinned():
    store = network.init_network(NetworkConfig(), np.random.default_rng(0))
    assert digest(store_arrays(store)) == NETWORK_DIGEST, (
        "initial DESK weights changed: perfbench/baseline.json's desk_train "
        "loss_last was recorded from them and must be re-recorded with this change")


def test_initial_moco_state_is_pinned():
    state = moco.init_moco(PretrainConfig(), np.random.default_rng(0))
    arrays = (store_arrays(state.params_q, "q.") + store_arrays(state.params_k, "k.")
              + [("queue", state.queue)])
    assert digest(arrays) == MOCO_DIGEST, (
        "initial MoCo encoders or queue changed: perfbench/baseline.json's "
        "moco_pretrain loss_last was recorded from them and must be re-recorded "
        "with this change")
