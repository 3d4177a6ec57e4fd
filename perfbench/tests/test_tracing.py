"""Span arithmetic and the wrapper installation of the traced run."""

import json
import os
import sys

import measure
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def span(name, start, end, parent, step=0):
    return [name, start, end, parent, step, None]


def test_self_time_clips_children_to_the_parent_and_merges_overlaps():
    spans = [
        span("parent", 0, 100, -1),
        span("a", -5, 30, 0),     # starts before the parent
        span("b", 20, 50, 0),     # overlaps a
        span("c", 90, 120, 0),    # ends after the parent
        span("d", 60, 70, 0),
    ]
    selfs = tracing.self_times(spans)
    # covered: [0, 50] + [60, 70] + [90, 100] = 70
    assert selfs[0] == 30
    assert selfs[1:] == [35, 30, 30, 10]


def test_self_time_of_an_empty_or_outside_child_is_ignored():
    spans = [span("parent", 10, 20, -1), span("before", 0, 5, 0), span("empty", 15, 15, 0)]
    assert tracing.self_times(spans)[0] == 10


def step_self_gaps(spans, selfs):
    """Per traced step: its wall time minus the self times of its spans."""
    gaps = {}
    for i, (name, start, end, parent, step, _) in enumerate(spans):
        if step != tracing.SETUP_STEP:
            gaps[step] = gaps.get(step, 0) - selfs[i]
            if name == "step" and parent < 0:
                gaps[step] += end - start
    return gaps


def test_nested_self_times_sum_to_the_step_wall_time():
    spans = [
        span("step", 0, 100, -1, step=3),
        span("x", 10, 60, 0, step=3),
        span("y", 20, 30, 1, step=3),
        span("z", 35, 59, 1, step=3),
        span("w", 70, 95, 0, step=3),
        span("setup", -50, -10, -1, step=tracing.SETUP_STEP),
    ]
    selfs = tracing.self_times(spans)
    assert step_self_gaps(spans, selfs) == {3: 0}


def _originals():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "hiresnet" or name.startswith("hiresnet."):
            for key, value in vars(mod).items():
                if callable(value):
                    out[(name, key)] = value
    out[("blocks.ACTIVATIONS", "gelu")] = sys.modules["hiresnet.blocks"].ACTIVATIONS["gelu"]
    return out


def test_wrappers_keep_a_desk_train_step_bit_identical_and_are_removed():
    plain = workloads.DeskTrain(5)
    plain.step(0)
    plain.step(1)

    before = _originals()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = workloads.DeskTrain(5)
        for i in (0, 1):
            with tracer.step_span(i):
                traced.step(i)
    assert _originals() == before

    assert traced.losses == plain.losses  # bit-identical floats
    names = {(s[0], s[5]) for s in tracer.spans if s[4] == 1}
    labels = {n for n, _ in names}
    # a from-import binding, a dict-held activation, a dunder and a recorded backward
    assert ("blocks.apply_conv", "funnel.conv1") in names
    assert {"tensor.gelu", "tensor.mul", "tensor.mul.bwd", "tensor.backward"} <= labels
    assert ("blocks.ia_block", "layer2.mod1.b2.blk2") in names

    selfs = tracing.self_times(tracer.spans)
    values = tracing.layer_metrics(tracer, selfs, [0, 1], overhead_ratio=1.0)
    assert values["tensor.tape_nodes"] == 1655
    assert values["optim.adamw.tensors"] == sum(1 for _ in traced.store.params())
    assert values["blocks.wmhsa.calls"] == 22
    assert 0 < values["distance.erosions_per_cap"] <= 1
    assert values["network.layer1.ms"] > 0 and values["network.layer2.ms"] > 0
    assert step_self_gaps(tracer.spans, selfs) == {0: 0, 1: 0}
    assert 0 < values["trace.unattributed_share"] < 1


def test_benchmark_json_names_match_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    loop = measure.LoopResult(durations=[0.1], failures=[], window_s=0.1)
    metrics, _ = measure.end_to_end(loop, 1, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, (_, unit) in metrics.items()]


def test_layer_map_covers_every_per_layer_metric_once():
    with open(os.path.join(ROOT, "perfbench", "layer_map.json")) as fh:
        entries = json.load(fh)["map"]
    mapped = [name for entry in entries for name in entry["metrics"]]
    assert sorted(mapped) == sorted(name for name, _ in tracing.PER_LAYER)
    known = set(workloads.WORKLOADS)
    assert all(set(entry["workloads"]) <= known for entry in entries)
