"""The benchmark's tracer still fits the package.

`perfbench/tracing.py` rebinds package functions by module and attribute
name, and its hooks read some of their positional arguments. A renamed or
deleted function, or a keyword call where a hook reads a position, would
first show up as a failed benchmark run, so this loads the tracer by path,
as it is, resolves every entry of its tables, and runs one traced DESK
training step.
"""

import importlib
import importlib.util
import os
import sys

import numpy as np

from hiresnet import network
from hiresnet.harness import data, loop, optim
from hiresnet.losses import LossConfig
from hiresnet.network import NetworkConfig

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def test_every_traced_name_resolves_to_a_function():
    from hiresnet import tensor

    missing = [f"{module}.{attr}" for module, attr, _ in tracing.LAYER_FUNCS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    missing += [f"hiresnet.tensor.{op}" for op in tracing.TENSOR_OPS + tracing.OTHER_OPS
                if not callable(getattr(tensor, op, None))]
    assert not missing, f"perfbench/tracing.py wraps names the package lacks: {missing}"


def _bindings():
    """Every callable the package's modules hold, by name or in a module-level dict."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "hiresnet" or name.startswith("hiresnet."):
            for key, value in vars(mod).items():
                if callable(value):
                    out[(name, key)] = value
                elif isinstance(value, dict):
                    out.update({(name, key, k): v for k, v in value.items() if callable(v)})
    return out


def test_a_traced_desk_train_step_is_bit_identical_and_unwrapped():
    config = NetworkConfig()
    batch = data.stack_batches(data.synth_dataset(data.SynthSpec(
        count=4, hw=config.input_hw, num_classes=config.num_classes)))

    def step(store):
        return loop._train_step(store, optim.OptimState(), config, batch, LossConfig(),
                                np.random.default_rng(3), 1e-3)

    stores = [network.init_network(config, np.random.default_rng(0)) for _ in range(2)]
    plain = step(stores[0])
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.step_span(0):
        traced = step(stores[1])
    assert _bindings() == before
    assert traced == plain  # bit-identical floats
    assert [s[0] for s in tracer.spans].count("distance.cascaded_conv_dt") == 1
