"""Closed-loop timing and the arithmetic behind the end-to-end metrics.

One client runs steps back to back: each step starts after the previous
one returns. A step that raises is counted as failed and the loop goes on.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# Samples that must lie above the value reported as the latency tail.
TAIL_BEYOND = 10


class StepFailed(RuntimeError):
    """A step produced a non-finite loss or output."""


def require_finite(what, value):
    """Raise StepFailed unless every element of `value` is finite."""
    if not np.all(np.isfinite(value)):
        raise StepFailed(f"non-finite {what}")


@dataclass
class LoopResult:
    durations: list = field(default_factory=list)   # seconds, one per attempted step
    failures: list = field(default_factory=list)    # (step index, repr of the exception)
    window_s: float = 0.0

    @property
    def attempted(self):
        return len(self.durations)

    @property
    def failed(self):
        return len(self.failures)


def time_step(step, i, result, clock=time.perf_counter):
    """Run step(i) once and record its duration (and failure) in `result`."""
    t0 = clock()
    try:
        step(i)
    except Exception as exc:  # a failed step is counted, never fatal
        result.failures.append((i, repr(exc)))
    result.durations.append(clock() - t0)


def run_closed_loop(step, seconds, min_steps, hard_limit_s, clock=time.perf_counter):
    """Call step(i) for i = 0, 1, ... until `seconds` have passed and at
    least `min_steps` steps were attempted, or until `hard_limit_s`."""
    result = LoopResult()
    start = clock()
    i = 0
    while True:
        elapsed = clock() - start
        if (i >= min_steps and elapsed >= seconds) or elapsed >= hard_limit_s:
            break
        time_step(step, i, result, clock)
        i += 1
    result.window_s = clock() - start
    return result


def failed_ratio(attempted, failed):
    if attempted < 1:
        raise ValueError("no step was attempted")
    return failed / attempted


def tail_latency(samples, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, samples_beyond). The candidate is the sample
    with exactly `beyond` larger ranks; it is used only when it sits at or
    above the median (n > 2 * beyond). With fewer samples no such tail
    exists and the maximum is reported as percentile 100.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(samples)
    if n > 2 * beyond:
        k = n - beyond - 1
        return ordered[k], 100.0 * (k + 1) / n, beyond
    return ordered[-1], 100.0, 0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(loop, items_per_step, setup_s):
    """The end-to-end metrics of one untraced run, keyed by metric name."""
    ms = [d * 1000.0 for d in loop.durations]
    tail, pct, beyond = tail_latency(ms)
    ok = loop.attempted - loop.failed
    metrics = {
        "items_per_s": (items_per_step * ok / loop.window_s, "items/s"),
        "step_ms.p50": (statistics.median(ms), "ms"),
        "step_ms.tail": (tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_ratio": (1.0 - failed_ratio(loop.attempted, loop.failed), "ratio"),
    }
    notes = {
        "step_ms.tail": f"p{pct:.1f} of n={len(ms)} steps, {beyond} samples beyond"
                        + ("" if beyond else f" (n <= {2 * TAIL_BEYOND}: maximum)"),
        "step_ms.p50": f"n={len(ms)} steps",
        "setup_s": "the process's one set-up, warm-up included",
        "ok_ratio": f"failed_ratio={failed_ratio(loop.attempted, loop.failed):.4g} "
                    f"({loop.failed}/{loop.attempted})",
    }
    return metrics, notes
