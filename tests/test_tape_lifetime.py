"""Tape lifetime: a consumed tape is freed by refcounting when its step's
tensors go out of scope, never by the cycle collector. This holds because
backward closures capture arrays, shapes and flags, never a Tensor."""

import types
import weakref

import numpy as np
import pytest

import hiresnet.tensor as T
from hiresnet import moco, network
from hiresnet.harness import loop
from hiresnet.harness.data import SynthSpec, stack_batches, synth_dataset
from hiresnet.harness.optim import OptimState
from hiresnet.losses import LossConfig
from hiresnet.network import NetworkConfig

DESK = NetworkConfig()
MOCO = moco.PretrainConfig(width=4, ib_blocks=1, proj_dim=8, queue_size=16)


def desk_step():
    """One DESK training step as `hiresnet train` runs it: forward,
    combined loss, backward and AdamW on a batch of 4."""
    rng = np.random.default_rng(0)
    store = network.init_network(DESK, rng)
    data = synth_dataset(SynthSpec(seed=0, count=4, hw=DESK.input_hw,
                                   num_classes=DESK.num_classes))
    loop._train_step(store, OptimState(), DESK, stack_batches(data), LossConfig(), rng, 1e-3)


def moco_step():
    rng = np.random.default_rng(1)
    state = moco.init_moco(MOCO, rng)
    images = rng.uniform(0, 1, size=(4, 3, 32, 32)).astype(np.float32)
    moco.moco_step(state, images, rng, velocity={})


def every_op_step():
    """One tape through every differentiable op in `hiresnet.tensor`."""
    rng = np.random.default_rng(2)

    def leaf(*shape):
        return T.Tensor(rng.uniform(0.5, 1.5, size=shape), requires_grad=True)

    x, w, b, g, be = leaf(2, 4, 4, 4), leaf(4, 4, 3, 3), leaf(4), leaf(4), leaf(4)
    with T.Tape():
        y = T.conv2d(x, w, b, T.ConvSpec(4, (3, 3), padding=(1, 1)))
        y = T.batchnorm2d(y, g, be, np.zeros(4), np.ones(4), training=True)
        y = T.bilinear_upsample(T.gelu(y), 2)
        y = T.relu(y) + T.silu(y) - T.sigmoid(y) * T.exp(y) / T.sqrt(x.mean() + 1.0)
        p = T.global_avg_pool(y)                                      # [2, 4]
        p = T.log(T.softmax(p, axis=1)) + T.log_softmax(p ** 2.0, axis=1)
        p = T.matmul(T.transpose(p, (1, 0)), p)                       # [4, 4]
        p = T.concat([T.slice_axis(p, 1, 0, 2), T.slice_axis(p, 1, 2, 4)], axis=1)
        p = T.reshape(p, (1, 2, 2, 4))
        p = T.window_attention(p, *(leaf(4) for _ in range(6)), leaf(1), window=2, heads=2)
        T.backward(T.tsum(p) + T.tmean(p))


STEPS = {"desk_train": desk_step, "moco_pretrain": moco_step}
GUARDED = {**STEPS, "every_op": every_op_step}


def record_tapes(monkeypatch, keep):
    """A list that collects every Tape created from now on: the tapes
    themselves when `keep`, else weak references that do not keep them alive."""
    made = []

    class RecordedTape(T.Tape):
        def __init__(self):
            super().__init__()
            made.append(self if keep else weakref.ref(self))

    monkeypatch.setattr(T, "Tape", RecordedTape)
    return made


def held_by(fn, kind):
    """Objects of type `kind` in `fn`'s closure cells, also inside lists,
    tuples and the closures of nested functions."""
    found = []
    for cell in fn.__closure__ or ():
        found += _held_in(cell.cell_contents, kind)
    return found


def _held_in(value, kind):
    if isinstance(value, kind):
        return [value]
    if isinstance(value, (list, tuple)):
        return [t for v in value for t in _held_in(v, kind)]
    if isinstance(value, types.FunctionType):
        return held_by(value, kind)
    return []


@pytest.mark.parametrize("name", sorted(STEPS))
def test_training_step_frees_its_tape_without_the_cycle_collector(
        name, monkeypatch, no_cycle_collector):
    refs = record_tapes(monkeypatch, keep=False)
    STEPS[name]()
    assert len(refs) == 1
    assert refs[0]() is None


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_no_backward_closure_holds_a_tensor(name, monkeypatch):
    tapes = record_tapes(monkeypatch, keep=True)
    GUARDED[name]()
    (tape,) = tapes
    held = {}
    for i, node in enumerate(tape.nodes):
        if node.backward is not None and held_by(node.backward, T.Tensor):
            held[i] = node.backward.__qualname__
    assert len(tape.nodes) > 10
    assert not held, f"backward closures holding a Tensor: {held}"


def test_train_keeps_no_consumed_tape_alive(monkeypatch, no_cycle_collector):
    # 3 training steps and 1 validation batch; only the step in flight holds a tape
    refs = record_tapes(monkeypatch, keep=False)
    live_at_forward = []
    forward = network.network_forward

    def counting_forward(image, *args, **kwargs):
        if image.shape[0]:  # not the cached layout's empty record pass
            live_at_forward.append(sum(r() is not None for r in refs))
        return forward(image, *args, **kwargs)

    monkeypatch.setattr(network, "network_forward", counting_forward)
    loop.train(DESK, epochs=1, train_count=12, val_count=4, quiet=True)
    assert len(refs) == 3
    assert live_at_forward == [1, 1, 1, 0]


def test_attention_backward_keeps_no_window_sized_array(monkeypatch):
    # 256 windows of 49 tokens and 2 heads span several attention blocks
    tapes = record_tapes(monkeypatch, keep=True)
    rng = np.random.default_rng(3)
    b, t, heads = 256, 49, 2

    def leaf(*shape):
        return T.Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

    x = leaf(2, 8, 28, 28)  # 2·8·4·4 windows of 7x7 tokens
    with T.Tape():
        T.window_attention(x, *(leaf(heads * 4) for _ in range(6)), leaf(1), window=7,
                           heads=heads)
    (tape,) = tapes
    (node,) = [n for n in tape.nodes if n.backward is not None]
    sizes = [a.size for a in held_by(node.backward, np.ndarray)]
    assert sizes
    assert max(sizes) < b * heads * t * t
    assert not held_by(node.backward, T.Tensor)


@pytest.mark.parametrize("shape, spec", [
    ((4, 8, 16, 16), T.ConvSpec(8, (5, 5), (1, 1), (2, 2), groups=8)),
    ((4, 3, 64, 64), T.ConvSpec(8, (3, 3), (2, 2), (1, 1))),
    ((2, 4, 9, 7), T.ConvSpec(6, (3, 2), (1, 2), (0, 1), groups=2)),
], ids=["depthwise", "strided", "mixed-stride"])
def test_conv_backward_keeps_no_patch_matrix(shape, spec, monkeypatch):
    # the backward rebuilds the patch matrix; it never keeps one on the tape
    tapes = record_tapes(monkeypatch, keep=True)
    rng = np.random.default_rng(4)
    x = T.Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
    w = T.Tensor(rng.normal(size=(spec.out_channels, shape[1] // spec.groups, *spec.kernel))
                 .astype(np.float32), requires_grad=True)
    b = T.Tensor(np.zeros(spec.out_channels, dtype=np.float32), requires_grad=True)
    with T.Tape():
        y = T.conv2d(x, w, b, spec)
    patch_size = shape[0] * shape[1] * spec.kernel[0] * spec.kernel[1] * y.shape[2] * y.shape[3]
    (tape,) = tapes
    (node,) = [n for n in tape.nodes if n.backward is not None]
    sizes = [a.size for a in held_by(node.backward, np.ndarray)]
    assert sizes
    assert max(sizes) < patch_size
    assert not held_by(node.backward, T.Tensor)
