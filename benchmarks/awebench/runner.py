"""Run one workload, check it, and report its metrics.

An untraced run (``--trace 0``) sets the workload up several times, then
repeats rounds of its timed stages until the next round would overrun
``--seconds`` (at least one round), and reports the end-to-end metrics. A
traced run (``--trace 1``) sets up the same way plus once traced, runs
one untraced round and one traced round, and reports the per-layer
metrics of the traced round and set-up plus the tracing overhead.

The last line on standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it is the full report: environment, every stage metric
with its unit and sample count, quality values, artifact digests and
failures.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict

import numpy as np

import awekit
from awekit import autodiff

from . import tracing
from .workloads import FULL, WORKLOADS, Sizes

# Set-up runs at least SETUP_REPEATS times and, while it is cheap, until
# the repeats add up to SETUP_MIN_S (at most SETUP_MAX_REPEATS times);
# setup_s is the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 15

M_ARENA_MAX = -8  # glibc mallopt parameter

# name -> (unit, better)
STAGE_METRICS = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "embed_epoch_s": ("s", "lower"),
    "eval_ap_s": ("s", "lower"),
    "dtw_ap_s": ("s", "lower"),
    "index_s": ("s", "lower"),
    "query_s": ("s", "lower"),
    "ctc_epoch_s": ("s", "lower"),
    "seg_epoch_s": ("s", "lower"),
    "decode_s": ("s", "lower"),
    "acoustic_ap": ("AP", "higher"),
    "cross_view_ap": ("AP", "higher"),
    "qbe_fom": ("FOM", "higher"),
    "ctc_wer": ("frac", "lower"),
    "seg_wer": ("frac", "lower"),
}

# The metrics every workload reports on the result line of an untraced run.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_s": ("s", "lower"),
}


class Run:
    """Samples, quality values, digests and failures of one run."""

    def __init__(self):
        self.samples: dict = defaultdict(list)
        self.qualities: dict = {}
        self.digests: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.invalid: list[str] = []
        self.tracer: tracing.Tracer | None = None

    def stage(self, name: str, call, check):
        """Time one stage call; return (result, wall) or (None, None) if it
        raised or failed ``check`` (a list of problems)."""
        self.attempted += 1
        span = self.tracer.span(f"stage.{name}") if self.tracer else contextlib.nullcontext()
        # collect earlier stages' garbage now, so that neither this stage's
        # time nor the peak memory depends on when the collector last ran
        gc.collect()
        try:
            with span:
                t0 = time.perf_counter()
                result = call()
                wall = time.perf_counter() - t0
            problems = check(result)
        except Exception:
            self.failures.append(f"{name}: {traceback.format_exc().strip()}")
            return None, None
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))
            return None, None
        return result, wall

    def sample(self, metric: str, value: float):
        self.samples[metric].append(value)

    def _same(self, table: dict, key: str, value, what: str):
        if key in table and table[key] != value:
            self.invalid.append(f"{what} {key} changed between repeats: {table[key]!r} then {value!r}")
        table[key] = value

    def quality(self, metric: str, value: float):
        self._same(self.qualities, metric, value, "quality")

    def digest(self, key: str, value: str):
        self._same(self.digests, key, value, "digest")


def openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def pin_malloc_arenas() -> bool:
    """Make every thread allocate from glibc's main arena, so that peak
    memory does not depend on how worker threads were scheduled. Must run
    before the first worker thread starts."""
    try:
        libc = ctypes.CDLL(None)
        return bool(libc.mallopt(M_ARENA_MAX, 1))
    except (OSError, AttributeError):
        return False


def environment(workload) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": openblas_threads(),
        "run_threads": workload.threads,
        "awekit": awekit.__file__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setups(workload, run, seed, root, tracer=None):
    """Repeated setups into fresh directories, plus one traced setup when
    ``tracer`` is given; returns (ctx, untraced setup times)."""
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
        ctx, wall = _setup(workload, run, seed, os.path.join(root, f"setup{len(times)}"))
        times.append(wall)
    if tracer is not None:
        with tracing.instrument(tracer, awekit), tracer.span("setup"):
            ctx, _ = _setup(workload, run, seed, os.path.join(root, "setup-traced"))
    return ctx, times


def _setup(workload, run, seed, out):
    gc.collect()
    t0 = time.perf_counter()
    ctx = workload.setup(run, seed, out)
    return ctx, time.perf_counter() - t0


def _round(workload, run, ctx, root, i) -> float:
    out = os.path.join(root, f"round{i}")
    os.makedirs(out)
    t0 = time.perf_counter()
    workload.round(run, ctx, out)
    return time.perf_counter() - t0


def _timed_rounds(workload, run, ctx, root, seconds) -> list[float]:
    """Rounds until the next one would end after ``seconds`` (at least one)."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(_round(workload, run, ctx, root, len(rounds)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


def _traced_rounds(workload, run, ctx, root, tracer):
    """One untraced and one traced round; returns (round times, per-layer
    metrics of the traced round and the traced set-up)."""
    untraced = _round(workload, run, ctx, root, 0)
    zero_norm = autodiff.zero_norm_events.count
    run.tracer = tracer
    with tracing.instrument(tracer, awekit):
        traced = _round(workload, run, ctx, root, 1)
    run.tracer = None
    layers = tracing.layer_metrics(tracer.spans)
    layers["autodiff.zero_norm_events"] = float(autodiff.zero_norm_events.count - zero_norm)
    layers["trace.overhead_frac"] = traced / untraced - 1.0
    run.invalid += tracing.self_time_overruns(tracer.spans)
    return [untraced, traced], {m: {"value": layers[m], "unit": unit} for m, unit in tracing.PER_LAYER.items()}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def stage_report(workload, run: Run, setup_times) -> dict:
    """Every stage metric of the workload with unit, better and samples."""
    rows = {"setup_s": (_median(setup_times), len(setup_times)), "peak_rss_mb": (peak_rss_mb(), 1)}
    for m in workload.timings:
        rows[m] = (_median(run.samples[m]), len(run.samples[m]))
    for m in workload.qualities:
        rows[m] = (run.qualities.get(m, 0.0), 1)
    return {m: {"value": v, "unit": STAGE_METRICS[m][0], "better": STAGE_METRICS[m][1], "samples": n}
            for m, (v, n) in rows.items()}


def end_to_end(workload, stages: dict) -> dict:
    values = {
        "setup_s": stages["setup_s"]["value"],
        "peak_rss_mb": stages["peak_rss_mb"]["value"],
        "pass_s": sum(stages[m]["value"] for m in workload.timings),
    }
    return {m: {"value": v, "unit": END_TO_END[m][0]} for m, v in values.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_root: str,
                 sizes: Sizes = FULL) -> tuple[dict, dict]:
    """Run one workload; returns (result, report)."""
    workload = WORKLOADS[name](sizes)
    run = Run()
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment(workload), "load_before": os.getloadavg()}
    report["env"]["loaded"] = report["load_before"][0] > 1.0
    root = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=work_root)
    try:
        tracer = tracing.Tracer() if trace else None
        ctx, setup_times = _setups(workload, run, seed, root, tracer)
        if trace:
            rounds, metrics = _traced_rounds(workload, run, ctx, root, tracer)
        else:
            rounds = _timed_rounds(workload, run, ctx, root, seconds)
        stages = stage_report(workload, run, setup_times)
        if not trace:
            metrics = end_to_end(workload, stages)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    failed = len(run.failures)
    report.update({
        "rounds": len(rounds), "round_s": rounds, "setup_samples": setup_times,
        "stages": stages, "digests": dict(sorted(run.digests.items())),
        "failures": run.failures, "invalid": run.invalid,
        "load_after": os.getloadavg(),
    })
    result = {"correct": failed == 0 and not run.invalid, "attempted": run.attempted,
              "failed": failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="benchmarks/run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    arenas_pinned = pin_malloc_arenas()
    work_root = os.path.join(os.getcwd(), ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work_root)
    report["env"]["malloc_arena_max"] = 1 if arenas_pinned else None
    with contextlib.suppress(OSError):
        os.rmdir(work_root)
    for line in report["failures"] + report["invalid"]:
        print(line, file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0
