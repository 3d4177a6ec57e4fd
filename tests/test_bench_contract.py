"""The names the benchmark's tracer wraps still exist in the package.

`perfbench/tracing.py` rebinds package functions by module and attribute
name. A renamed or deleted one would first show up as a failed benchmark
run, so this reads the tracer's tables (loading the file by path, as it
is) and resolves every entry here.
"""

import importlib
import importlib.util
import os

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
