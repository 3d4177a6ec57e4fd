"""Named parameter storage, created by the forward pass.

Every learnable tensor and every buffer (BN running statistics) lives in one
flat store keyed by a hierarchical dotted name. There is no init tree beside
the forward functions: each layer asks for its tensors with
`store.get(name, shape, init)` at the point of use, so the forward pass is
the one place that writes down every name, shape and initializer.

`record(forward, dtype)` runs `forward(store)` on a store that logs each
name it has not seen as a (name, shape, init, buffer) entry, in call order,
and allocates it as zeros. `build(layout, rng, dtype)` then draws every
entry from `rng` in that order. Outside a record pass a missing name raises
KeyError. Shapes are fully determined by the configuration, so a record pass
on an empty batch (N = 0) finds them all without computing on any data.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import DEFAULT_DTYPE, Tensor


class ParamStore:
    def __init__(self, dtype=DEFAULT_DTYPE):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Tensor] = {}
        self._buffers: dict[str, Tensor] = {}
        self._layout = None  # the entries logged so far, during a record pass

    def add_param(self, name, array):
        if name in self._params or name in self._buffers:
            raise KeyError(f"duplicate parameter name: {name}")
        self._params[name] = Tensor(np.asarray(array, dtype=self.dtype), requires_grad=True)

    def add_buffer(self, name, array):
        if name in self._params or name in self._buffers:
            raise KeyError(f"duplicate buffer name: {name}")
        self._buffers[name] = Tensor(np.asarray(array, dtype=self.dtype), requires_grad=False)

    def get(self, name, shape, init, buffer=False) -> Tensor:
        """The tensor stored under `name`. During a record pass a missing
        name is logged with its shape and `init(rng, shape, dtype)`."""
        t = self._params.get(name)
        if t is None:
            t = self._buffers.get(name)
            if t is None:
                t = self._create(name, tuple(shape), init, buffer)
        return t

    def _create(self, name, shape, init, buffer):
        if self._layout is None:
            raise KeyError(f"unknown tensor: {name}")
        self._layout.append((name, shape, init, buffer))
        (self.add_buffer if buffer else self.add_param)(name, np.zeros(shape, self.dtype))
        return self[name]

    def __getitem__(self, name) -> Tensor:
        if name in self._params:
            return self._params[name]
        if name in self._buffers:
            return self._buffers[name]
        raise KeyError(f"unknown tensor: {name}")

    def __contains__(self, name):
        return name in self._params or name in self._buffers

    def params(self):
        return self._params.items()

    def buffers(self):
        return self._buffers.items()

    def is_buffer(self, name):
        return name in self._buffers

    def names(self):
        return list(self._params) + list(self._buffers)

    def count_learnable(self):
        return sum(t.size for t in self._params.values())

    def zero_grads(self):
        for t in self._params.values():
            t.grad = None

    def copy(self):
        """A frozen copy: every tensor's data copied, none requiring gradients."""
        out = ParamStore(self.dtype)
        out._params = {name: Tensor(t.data.copy()) for name, t in self._params.items()}
        out._buffers = {name: Tensor(t.data.copy()) for name, t in self._buffers.items()}
        return out


def record(forward, dtype=DEFAULT_DTYPE):
    """The (name, shape, init, buffer) entries `forward(store)` creates, in order."""
    store = ParamStore(dtype)
    store._layout = []
    forward(store)
    return tuple(store._layout)


def build(layout, rng, dtype=DEFAULT_DTYPE):
    """A store holding every layout entry, drawn from `rng` in layout order."""
    store = ParamStore(dtype)
    for name, shape, init, buffer in layout:
        (store.add_buffer if buffer else store.add_param)(name, init(rng, shape, store.dtype))
    return store


# ---------------------------------------------------------------------------
# initializers: init(rng, shape, dtype) -> array


def zeros(rng, shape, dtype):
    return np.zeros(shape, dtype)


def ones(rng, shape, dtype):
    return np.ones(shape, dtype)


def fan_in_uniform(rng, shape, fan_in, dtype):
    limit = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def conv_uniform(rng, shape, dtype):
    """U(±1/√fan_in) for a [out, in/groups, kh, kw] kernel."""
    return fan_in_uniform(rng, shape, math.prod(shape[1:]), dtype)


def linear_uniform(rng, shape, dtype):
    """U(±1/√fan_in) for an [in, out] weight."""
    return fan_in_uniform(rng, shape, shape[0], dtype)
