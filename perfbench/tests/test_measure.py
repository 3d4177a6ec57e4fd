"""Arithmetic of the end-to-end metrics: tail percentile, failure counting and
the loss_last check."""

import json
import math
import os

import pytest

import measure


def test_tail_is_the_maximum_until_a_tail_above_the_median_exists():
    for n in range(1, 21):
        samples = list(range(n, 0, -1))  # unsorted on purpose
        assert measure.tail_latency(samples) == (n, 100.0, 0)


def test_tail_leaves_exactly_ten_samples_beyond():
    for n in (21, 22, 46, 100, 1000):
        samples = [float(v) for v in range(n)]
        value, pct, beyond = measure.tail_latency(samples)
        assert beyond == 10
        assert sum(s > value for s in samples) == 10
        assert pct == pytest.approx(100.0 * (n - 10) / n)
    assert measure.tail_latency(list(range(21)))[0] == 10  # n = 21: the median itself
    assert measure.tail_latency(list(range(1000)))[1] == pytest.approx(99.0)


def test_tail_rejects_empty_samples():
    with pytest.raises(ValueError):
        measure.tail_latency([])


class FakeClock:
    """Advances one second per reading, so loops end deterministically."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_failed_steps_are_counted_and_the_loop_continues():
    seen = []

    def step(i):
        seen.append(i)
        if i in (1, 4):
            raise RuntimeError("boom")
        if i == 2:
            measure.require_finite("loss", math.nan)

    loop = measure.run_closed_loop(step, seconds=0.0, min_steps=6, hard_limit_s=1e9,
                                   clock=FakeClock())
    assert seen == list(range(6))
    assert loop.attempted == 6 and loop.failed == 3
    assert [i for i, _ in loop.failures] == [1, 2, 4]
    assert "non-finite loss" in loop.failures[1][1]
    assert measure.failed_ratio(loop.attempted, loop.failed) == 0.5


def test_failed_steps_count_against_throughput_and_ok_ratio():
    loop = measure.LoopResult(durations=[0.1] * 10, failures=[(3, "x")], window_s=1.0)
    metrics, notes = measure.end_to_end(loop, items_per_step=4, setup_s=2.0)
    assert metrics["items_per_s"] == (36.0, "items/s")
    assert metrics["ok_ratio"][0] == pytest.approx(0.9)
    assert metrics["setup_s"] == (2.0, "s")
    assert "failed_ratio=0.1 (1/10)" in notes["ok_ratio"]


def test_loop_stops_at_the_hard_limit_before_min_steps():
    loop = measure.run_closed_loop(lambda i: None, seconds=0.0, min_steps=10**6,
                                   hard_limit_s=20.0, clock=FakeClock())
    assert 0 < loop.attempted < 20


def test_failed_ratio_needs_an_attempt():
    with pytest.raises(ValueError):
        measure.failed_ratio(0, 0)


def test_loss_last_is_checked_against_the_value_recorded_for_the_seed():
    import run

    with open(os.path.join(run.HERE, "baseline.json")) as fh:
        ref = json.load(fh)["loss_last"]["moco_pretrain"]["3"]

    class Fake:
        min_steps = 2
        losses = [0.0, 0.0]
        value = ref

        def loss_last(self):
            return self.value

    wl = Fake()
    assert run.loss_checks(wl, "moco_pretrain", 3) == (ref, [(
        "loss_last matches the value recorded for seed 3", True,
        f"{ref!r} vs {ref!r}, relative difference 0.00e+00 (tolerance 0.0001)")])
    wl.value = ref * (1 + 2 * run.LOSS_RTOL)
    assert run.loss_checks(wl, "moco_pretrain", 3)[1][0][1] is False
    assert run.loss_checks(wl, "moco_pretrain", 10**6) == (wl.value, [])  # no recorded value
    wl.losses = [0.0]  # the loss window did not complete
    assert run.loss_checks(wl, "moco_pretrain", 3) == (None, [])
