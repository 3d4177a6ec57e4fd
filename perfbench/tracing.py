"""Span tracing installed from outside the package.

`Tracer.installed()` wraps the package's public functions, records one span
(name, start, end, parent, step, prefix) per call, and restores every
original on exit. Each wrapped function is rebound wherever the package
holds a reference to it: module attributes (including names bound by
`from ... import`, e.g. `network.apply_conv`) and module-level dicts
(e.g. `blocks.ACTIVATIONS`). Tensor dunders such as `a * b` resolve
`tensor.mul` at call time, so they are traced too. Each tensor op also
wraps the backward callable it records on the tape, so backward time is
attributed per op.
"""

from __future__ import annotations

import gzip
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

SETUP_STEP = -1

# tensor ops reported individually; every other public op is "tensor.other"
TENSOR_OPS = ("conv2d", "matmul", "softmax", "mul", "add", "transpose", "reshape",
              "batchnorm2d", "bilinear_upsample", "gelu")
OTHER_OPS = ("sub", "div", "pow_scalar", "exp", "log", "sqrt", "relu", "sigmoid", "silu",
             "tsum", "tmean", "log_softmax", "concat", "slice_axis", "global_avg_pool")

# (module, function, span label); labels double as per-layer metric stems
LAYER_FUNCS = (
    ("hiresnet.tensor", "backward", "tensor.backward"),
    ("hiresnet.blocks", "wmhsa", "blocks.wmhsa"),
    ("hiresnet.blocks", "se_attention", "blocks.se_attention"),
    ("hiresnet.blocks", "ia_block", "blocks.ia_block"),
    ("hiresnet.blocks", "ib_block", "blocks.ib_block"),
    ("hiresnet.blocks", "basic_block", "blocks.basic_block"),
    ("hiresnet.blocks", "apply_conv", "blocks.apply_conv"),
    ("hiresnet.blocks", "apply_bn", "blocks.apply_bn"),
    ("hiresnet.network", "init_network", "network.init"),
    ("hiresnet.network", "network_forward", "network.forward"),
    ("hiresnet.network", "funnel_forward", "network.funnel"),
    ("hiresnet.network", "multi_branch_forward", "network.multi_branch"),
    ("hiresnet.network", "new_branch", "network.new_branch"),
    ("hiresnet.network", "fuse", "network.fuse"),
    ("hiresnet.network", "refine", "network.refine"),
    ("hiresnet.network", "predict_labels", "network.predict"),
    ("hiresnet.network", "fused_probabilities", "network.fused_probabilities"),
    ("hiresnet.losses", "combined_loss", "losses.combined_loss"),
    ("hiresnet.losses", "gd_loss", "losses.gd_loss"),
    ("hiresnet.losses", "lsce_loss", "losses.lsce_loss"),
    ("hiresnet.losses", "cea_loss", "losses.cea_loss"),
    ("hiresnet.distance", "cascaded_conv_dt", "distance.cascaded_conv_dt"),
    ("hiresnet.moco", "init_moco", "moco.init"),
    ("hiresnet.moco", "moco_step", "moco.step"),
    ("hiresnet.moco", "encode", None),  # named per call: encode_key / encode_query
    ("hiresnet.moco", "infonce", "moco.infonce"),
    ("hiresnet.moco", "momentum_update", "moco.momentum_update"),
    ("hiresnet.moco", "queue_push", "moco.queue_push"),
    ("hiresnet.moco", "sgd_step", "moco.sgd_step"),
    ("hiresnet.moco", "augment_pair", "moco.augment_pair"),
    ("hiresnet.harness.data", "synth_dataset", "data.synth_dataset"),
    ("hiresnet.harness.data", "augment", "data.augment"),
    ("hiresnet.harness.data", "stack_batches", "data.stack_batches"),
    ("hiresnet.harness.optim", "adamw_step", "optim.adamw"),
    ("hiresnet.harness.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("hiresnet.harness.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("hiresnet.harness.checkpoint", "restore_store", "checkpoint.restore"),
    ("hiresnet.harness.metrics", "update_confusion", "metrics.update_confusion"),
    ("hiresnet.harness.metrics", "metrics", "metrics.metrics"),
    ("hiresnet.harness.loop", "evaluate_store", "loop.evaluate_store"),
    ("hiresnet.harness.loop", "metrics_table", "loop.metrics_table"),
    ("hiresnet.harness.loop", "config_to_meta", "loop.config_to_meta"),
    ("hiresnet.harness.loop", "config_from_meta", "loop.config_from_meta"),
)

# ---------------------------------------------------------------------------
# per-layer metric catalogue: (name, unit); values are per timed step unless
# the name is in SETUP_METRICS, which are per set-up


def _catalogue():
    out = []
    for op in TENSOR_OPS + ("other",):
        out += [(f"tensor.{op}.fwd_ms", "ms"), (f"tensor.{op}.bwd_ms", "ms"),
                (f"tensor.{op}.calls", "count")]
    out += [("tensor.backward.self_ms", "ms"), ("tensor.tape_nodes", "count"),
            ("tensor.tape_bytes", "bytes")]
    for blk in ("wmhsa", "se_attention", "ia_block", "ib_block"):
        out += [(f"blocks.{blk}.ms", "ms"), (f"blocks.{blk}.calls", "count")]
    out += [(f"network.{part}.ms", "ms")
            for part in ("funnel", "layer1", "layer2", "fuse", "refine", "predict")]
    out += [("losses.combined_loss.ms", "ms"), ("losses.combined_loss.calls", "count"),
            ("losses.cea_loss.ms", "ms"), ("losses.cea_loss.calls", "count"),
            ("distance.cascaded_conv_dt.ms", "ms"), ("distance.cascaded_conv_dt.calls", "count"),
            ("distance.erosions_per_cap", "ratio"),
            ("optim.adamw.ms", "ms"), ("optim.adamw.tensors", "count")]
    out += [(f"moco.{part}.ms", "ms") for part in
            ("encode_key", "encode_query", "infonce", "momentum_update", "queue_push",
             "sgd_step", "augment_pair")]
    out += [(f"data.{part}.ms", "ms") for part in ("synth_dataset", "augment", "stack_batches")]
    out += [("checkpoint.save.ms", "ms"), ("checkpoint.load.ms", "ms"),
            ("checkpoint.bytes", "bytes"), ("metrics.update_confusion.ms", "ms"),
            ("trace.overhead_ratio", "ratio"), ("trace.step_ms", "ms"),
            ("trace.unattributed_share", "ratio")]
    return tuple(out)


PER_LAYER = _catalogue()
SETUP_METRICS = ("data.synth_dataset.ms", "checkpoint.save.ms", "checkpoint.load.ms",
                 "checkpoint.bytes")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter_ns
        self.spans = []          # [name, start, end, parent, step, prefix]
        self.counts = defaultdict(float)   # (step, key) -> value
        self.step = SETUP_STEP
        self._stack = []

    # -- span recording ----------------------------------------------------

    def begin(self, name, prefix=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0, parent, self.step, prefix])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def count(self, key, value):
        self.counts[(self.step, key)] += value

    @contextmanager
    def step_span(self, step):
        self.step = step
        idx = self.begin("step")
        try:
            yield
        finally:
            self.end(idx)
            self.step = SETUP_STEP

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, label, after=None, label_fn=None):
        prefix_at, prefix_name, prefix_default = _prefix_param(fn)
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            if prefix_at is None:
                prefix = None
            elif len(args) > prefix_at:
                prefix = args[prefix_at]
            else:
                prefix = kwargs.get(prefix_name, prefix_default)
            idx = begin(label_fn() if label_fn else label, prefix)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_op(self, fn, label):
        begin, end, count = self.begin, self.end, self.count
        bwd_label = label + ".bwd"

        def timed_backward(bwd):
            def run(g):
                idx = begin(bwd_label)
                try:
                    return bwd(g)
                finally:
                    end(idx)
            return run

        def wrapper(*args, **kwargs):
            idx = begin(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(idx)
            if out._node is not None:  # a node was recorded on the active tape
                node = out._tape.nodes[out._node]
                node.backward = timed_backward(node.backward)
                count("tensor.tape_bytes", out.data.nbytes)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _targets(self):
        from hiresnet import tensor

        for op in TENSOR_OPS:
            yield self._wrap_op(getattr(tensor, op), f"tensor.{op}")
        for op in OTHER_OPS:
            yield self._wrap_op(getattr(tensor, op), "tensor.other")
        hooks = {
            "tensor.backward": lambda args, _:
                self.count("tensor.tape_nodes", len(args[0]._tape.nodes)),
            "distance.cascaded_conv_dt": self._after_dt,
            "optim.adamw": lambda args, _:
                self.count("optim.adamw.tensors", sum(1 for _ in args[0].params())),
            "checkpoint.save": lambda args, _:
                self.count("checkpoint.bytes", os.path.getsize(args[3])),
        }
        for mod_name, attr, label in LAYER_FUNCS:
            fn = getattr(sys.modules[mod_name], attr)
            label_fn = None
            if label is None:  # moco.encode: the key encoder runs without a tape
                label_fn = (lambda: "moco.encode_query" if tensor.active_tape() is not None
                            else "moco.encode_key")
            yield self._wrap(fn, label, hooks.get(label), label_fn)

    def _after_dt(self, args, result):
        cap = args[1]
        self.count("distance.useful_erosions", int(result.max()) if result.size else 0)
        self.count("distance.erosion_cap", cap)

    @contextmanager
    def installed(self):
        """Rebind every traced function; restore the originals on exit."""
        import hiresnet  # noqa: F401  (loads every module named in LAYER_FUNCS)
        import hiresnet.harness.checkpoint  # noqa: F401
        import hiresnet.harness.loop  # noqa: F401
        import hiresnet.moco  # noqa: F401

        holders = [m for name, m in sorted(sys.modules.items())
                   if name == "hiresnet" or name.startswith("hiresnet.")]
        undo = []
        try:
            for wrapper in self._targets():
                original = wrapper.__wrapped__
                for holder in holders:
                    space = vars(holder)
                    for key, value in list(space.items()):
                        if value is original:
                            undo.append((space, key, value))
                            space[key] = wrapper
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is original:
                                    undo.append((value, k, v))
                                    value[k] = wrapper
            yield self
        finally:
            for space, key, value in reversed(undo):
                space[key] = value

    def write(self, path, selfs):
        """Spans as gzip TSV: step, id, parent, name, prefix, start_ns, end_ns, self_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("step\tid\tparent\tname\tprefix\tstart_ns\tend_ns\tself_ns\n")
            for i, (name, start, end, parent, step, prefix) in enumerate(self.spans):
                fh.write(f"{step}\t{i}\t{parent}\t{name}\t{prefix or ''}\t"
                         f"{start}\t{end}\t{selfs[i]}\n")


def _prefix_param(fn):
    """Position, name and default of a function's layer-prefix parameter."""
    params = list(inspect.signature(fn).parameters.values())
    for want in ("prefix", "name"):
        for pos, p in enumerate(params):
            if p.name == want:
                default = None if p.default is inspect.Parameter.empty else p.default
                return pos, want, default
    return None, None, None


def self_times(spans):
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and merged, so children
    that overlap each other or stick out past the parent's edges are not
    double counted.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


_LAYER_PARTS = ("blocks.ia_block", "blocks.basic_block", "network.new_branch")


def layer_metrics(tracer, selfs, timed_steps, overhead_ratio):
    """Per-layer metrics over the traced timed steps (see PER_LAYER)."""
    spans = tracer.spans
    steps = set(timed_steps)
    n = len(steps)
    ms = defaultdict(float)      # inclusive ns, summed
    calls = defaultdict(int)
    setup_ms = defaultdict(float)
    self_ns = defaultdict(float)
    step_wall = []
    step_self = 0.0              # ns of traced steps spent in no wrapped function
    for i, (name, start, end, parent, step, prefix) in enumerate(spans):
        dur = end - start
        if step == SETUP_STEP:
            setup_ms[name] += dur
            continue
        if step not in steps:
            continue
        if name == "step":
            step_wall.append(dur / 1e6)
            step_self += selfs[i]
            continue
        ms[name] += dur
        calls[name] += 1
        self_ns[name] += selfs[i]
        if name in _LAYER_PARTS and prefix:
            part = prefix.split(".")[0]
            if part in ("layer1", "layer2"):
                ms[f"network.{part}"] += dur
    counts = defaultdict(float)   # per timed step, except checkpoint.bytes (per set-up)
    for (step, key), value in tracer.counts.items():
        if step == SETUP_STEP:
            if key == "checkpoint.bytes":
                counts[key] += value
        elif step in steps:
            counts[key] += value
    for key in counts:
        if key != "checkpoint.bytes":
            counts[key] /= n

    def per_step(ns):
        return ns / 1e6 / n

    out = {}
    for op in TENSOR_OPS + ("other",):
        out[f"tensor.{op}.fwd_ms"] = per_step(ms[f"tensor.{op}"])
        out[f"tensor.{op}.bwd_ms"] = per_step(ms[f"tensor.{op}.bwd"])
        out[f"tensor.{op}.calls"] = calls[f"tensor.{op}"] / n
    out["tensor.backward.self_ms"] = per_step(self_ns["tensor.backward"])
    out["tensor.tape_nodes"] = counts["tensor.tape_nodes"]
    out["tensor.tape_bytes"] = counts["tensor.tape_bytes"]
    for blk in ("wmhsa", "se_attention", "ia_block", "ib_block"):
        out[f"blocks.{blk}.ms"] = per_step(ms[f"blocks.{blk}"])
        out[f"blocks.{blk}.calls"] = calls[f"blocks.{blk}"] / n
    for part in ("funnel", "layer1", "layer2", "fuse", "refine", "predict"):
        out[f"network.{part}.ms"] = per_step(ms[f"network.{part}"])
    for name in ("losses.combined_loss", "losses.cea_loss", "distance.cascaded_conv_dt"):
        out[f"{name}.ms"] = per_step(ms[name])
        out[f"{name}.calls"] = calls[name] / n
    cap = counts["distance.erosion_cap"]
    out["distance.erosions_per_cap"] = counts["distance.useful_erosions"] / cap if cap else 0.0
    out["optim.adamw.ms"] = per_step(ms["optim.adamw"])
    out["optim.adamw.tensors"] = counts["optim.adamw.tensors"]
    for part in ("encode_key", "encode_query", "infonce", "momentum_update", "queue_push",
                 "sgd_step", "augment_pair"):
        out[f"moco.{part}.ms"] = per_step(ms[f"moco.{part}"])
    out["data.synth_dataset.ms"] = setup_ms["data.synth_dataset"] / 1e6
    out["data.augment.ms"] = per_step(ms["data.augment"])
    out["data.stack_batches.ms"] = per_step(ms["data.stack_batches"])
    out["checkpoint.save.ms"] = setup_ms["checkpoint.save"] / 1e6
    out["checkpoint.load.ms"] = setup_ms["checkpoint.load"] / 1e6
    out["checkpoint.bytes"] = counts["checkpoint.bytes"]
    out["metrics.update_confusion.ms"] = per_step(ms["metrics.update_confusion"])
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.step_ms"] = statistics.median(step_wall)
    out["trace.unattributed_share"] = step_self / 1e6 / sum(step_wall)
    if set(out) != {name for name, _ in PER_LAYER}:
        raise RuntimeError("per-layer metrics disagree with the PER_LAYER catalogue")
    return out

