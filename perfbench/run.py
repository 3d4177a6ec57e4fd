"""Benchmark of the hiresnet package: four closed-loop workloads.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from the repository root; the package is imported from `src/`.
Each run drives one workload with a single closed-loop client (each step
starts after the previous one returns) and pins BLAS to one thread.

--trace 0 measures the end-to-end metrics with no tracing installed.
--trace 1 interleaves untraced and traced steps (the span tracer is in
tracing.py) and reports per-layer metrics, including the tracing overhead.
Spans are written to .bench_out/trace_<workload>_seed<seed>.tsv.gz.

Human-readable lines (environment, metrics with units and notes, checks) come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. `--workload all` runs every workload
in its own process, one after another.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere: one thread gave the narrowest
# run-to-run spread on a 2-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("desk_train", "desk_eval", "wide_infer", "moco_pretrain")
HARD_LIMIT_S = 120.0     # the timed loop never runs longer, whatever min_steps says
CHILD_TIMEOUT_S = 180.0
TRACE_MIN_STEPS = 8      # two ABBA rounds of untraced and traced steps
# loss_last repeats exactly for a seed on one machine; the tolerance admits
# changes in rounding (nudging the input images by one float32 ulp moved it
# by at most 3e-6 relative on the seeds tried) but not changes to the math
LOSS_RTOL = 1e-4
LOSS_NOTE = ("not a gated metric, because it spreads 15-25% across seeds with the "
             "data; checked against the value recorded for the seed in baseline.json")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def blas_threads_runtime(np):
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np, args):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # numpy without a dict-mode config report
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": blas_threads_runtime(np),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "load": "closed loop, 1 client",
    }


def run_checks(wl):
    try:
        return [(name, bool(ok), detail) for name, ok, detail in wl.checks()]
    except Exception as exc:
        return [("checks ran", False, repr(exc))]


def loss_checks(wl, workload, seed):
    """loss_last (None for a workload without one) and its check against the
    value recorded for this seed in baseline.json, when there is one."""
    if not hasattr(wl, "loss_last") or len(wl.losses) < wl.min_steps:
        return None, []
    try:
        loss_last = wl.loss_last()
        with open(os.path.join(HERE, "baseline.json")) as fh:
            ref = json.load(fh)["loss_last"][workload].get(str(seed))
    except Exception as exc:
        return None, [("loss_last computed", False, repr(exc))]
    if ref is None:
        return loss_last, []
    rel = abs(loss_last - ref) / abs(ref)
    return loss_last, [(f"loss_last matches the value recorded for seed {seed}",
                        rel <= LOSS_RTOL, f"{loss_last!r} vs {ref!r}, relative difference "
                                          f"{rel:.2e} (tolerance {LOSS_RTOL:g})")]


def measure_untraced(args, measure, started, make):
    wl = make(args.seed, OUT_DIR)
    setup_s = time.perf_counter() - started
    loop = measure.run_closed_loop(wl.step, args.seconds, wl.min_steps, HARD_LIMIT_S)
    checks = run_checks(wl)
    if loop.attempted < wl.min_steps:
        checks.append((f"at least {wl.min_steps} steps ran", False,
                       f"{loop.attempted} before the {HARD_LIMIT_S:.0f} s limit"))
    loss_last, more = loss_checks(wl, args.workload, args.seed)
    checks += more
    metrics, notes = measure.end_to_end(loop, wl.items_per_step, setup_s)
    extra = {"step_ms": [d * 1e3 for d in loop.durations]}
    if loss_last is not None:
        # printed and checked, not gated: see LOSS_NOTE
        extra["reported"] = {"loss_last": {"value": loss_last, "unit": "loss",
                                           "note": f"{wl.loss_note}; {LOSS_NOTE}"}}
    return loop, metrics, notes, checks, extra


def measure_traced(args, measure, tracing, make):
    """Traced set-up, then untraced and traced steps interleaved in ABBA
    order (untraced, traced, traced, untraced, ...), so neither side always
    runs first and drift in machine speed hits both alike."""
    tracer = tracing.Tracer()
    with tracer.installed():
        wl = make(args.seed, OUT_DIR)

    def traced_step(i):
        with tracer.step_span(i):
            wl.step(i)

    plain, traced = measure.LoopResult(), measure.LoopResult()
    steps = []  # ids of the traced steps
    min_steps = max(TRACE_MIN_STEPS, wl.min_steps)
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if (i >= min_steps and elapsed >= args.seconds) or elapsed >= HARD_LIMIT_S:
            break
        if i % 4 in (1, 2):
            steps.append(i)
            with tracer.installed():
                measure.time_step(traced_step, i, traced)
        else:
            measure.time_step(wl.step, i, plain)
        i += 1
    checks = run_checks(wl) + loss_checks(wl, args.workload, args.seed)[1]
    plain_ms = statistics.median(plain.durations) * 1e3
    traced_ms = statistics.median(traced.durations) * 1e3

    selfs = tracing.self_times(tracer.spans)
    values = tracing.layer_metrics(tracer, selfs, steps, plain_ms / traced_ms)
    units = dict(tracing.PER_LAYER)
    metrics = {name: (values[name], units[name]) for name, _ in tracing.PER_LAYER}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace_{args.workload}_seed{args.seed}.tsv.gz")
    tracer.write(path, selfs)
    notes = {"trace.overhead_ratio": f"median step untraced {plain_ms:.4g} ms / traced "
                                     f"{traced_ms:.4g} ms ({plain.attempted} / "
                                     f"{traced.attempted} steps, ABBA order)",
             "trace.unattributed_share": "share of a traced step spent in no wrapped function"}
    for name in tracing.SETUP_METRICS:
        notes[name] = "per set-up"
    loop = measure.LoopResult(plain.durations + traced.durations,
                              sorted(plain.failures + traced.failures))
    return loop, metrics, notes, checks, {"spans_file": os.path.relpath(path, ROOT)}


def run_one(args):
    sys.path.insert(0, SRC)
    import numpy as np

    import measure
    import tracing

    env = environment(np, args)
    os.makedirs(OUT_DIR, exist_ok=True)
    started = time.perf_counter()  # set-up starts with importing the package
    import workloads

    make = workloads.WORKLOADS[args.workload]
    if args.trace:
        loop, metrics, notes, checks, extra = measure_traced(args, measure, tracing, make)
    else:
        loop, metrics, notes, checks, extra = measure_untraced(args, measure, started, make)
    correct = (all(ok for _, ok, _ in checks)
               and all(math.isfinite(v) for v, _ in metrics.values()))

    print(f"# hiresnet benchmark: {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:34s} {value:14.6g} {unit:8s} {note}")
    for name, entry in extra.get("reported", {}).items():
        print(f"{name:34s} {entry['value']:14.6g} {entry['unit']:8s} {entry['note']}")
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())
    for i, err in loop.failures[:5]:
        print(f"step {i} failed: {err}")

    report = {"env": env, "correct": correct, "attempted": loop.attempted,
              "failed": loop.failed, "failed_ratio": loop.failed / max(loop.attempted, 1),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "notes": notes, "checks": checks, **extra}
    with open(os.path.join(OUT_DIR, f"report_{args.workload}_seed{args.seed}"
                                    f"_trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": report["metrics"]}))
    return 0


def run_all(args):
    """Every workload in its own process; a combined result on the last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.rstrip("\n").split("\n")
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.stderr.write(f"error: workload {name} exited with {proc.returncode}\n")
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hiresnet", "__init__.py")):
        sys.stderr.write(f"error: package sources not found under {SRC}; "
                         "run from a repository checkout\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
