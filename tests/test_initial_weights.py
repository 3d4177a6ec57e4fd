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
# parameters replaced; NETWORK_DIGEST is their digest without the five conv
# biases that a batch norm cancels, so dropping those moved no other initial
# value. perfbench/baseline.json records loss_last per seed
# from these exact initial weights (and the synthetic data), so a change to
# any name, order, shape, dtype, initializer or draw shows here first.
NETWORK_DIGEST = "861f08dbfe9b6ea4d121854d75d3f6baccbcd7e354aa2a268493a472dfb4e678"
MOCO_DIGEST = "2621308f98d111e679d4ffc4e5f8bc4340c4861809ed7a7bb1b5310f8ee0032f"


def test_initial_network_weights_are_pinned():
    store = network.init_network(NetworkConfig(), np.random.default_rng(0))
    assert digest(store_arrays(store)) == NETWORK_DIGEST, (
        "initial DESK weights changed: perfbench/baseline.json's desk_train "
        "loss_last was recorded from them; re-record it if it now moves beyond "
        "perfbench/run.py's LOSS_RTOL")


def test_initial_moco_state_is_pinned():
    state = moco.init_moco(PretrainConfig(), np.random.default_rng(0))
    arrays = (store_arrays(state.params_q, "q.") + store_arrays(state.params_k, "k.")
              + [("queue", state.queue)])
    assert digest(arrays) == MOCO_DIGEST, (
        "initial MoCo encoders or queue changed: perfbench/baseline.json's "
        "moco_pretrain loss_last was recorded from them and must be re-recorded "
        "with this change")
