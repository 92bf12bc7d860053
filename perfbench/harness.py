"""The benchmark loop: warm-up, timed passes, gates, set-up samples, summary.

One run executes one workload's passes back to back in this process until
the time budget is spent.  A pass's time is the sum of its jobs' times; the
gates run between jobs, outside the timed region.  A job fails if it raises
or if a gate fails, and the run goes on.

Untraced runs report the end-to-end metrics.  A traced run alternates
untraced and traced passes and reports the per-layer metrics, each the
median over its traced passes.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBE = os.path.join(HERE, "setup_probe.py")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class Tally:
    """Jobs attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, job: workloads.Job, message: str):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{job.label} lam={job.cfg.lam}: {message}")


def run_pass(jobs, workdir: str, refs: dict, tally: Tally, tracer: spans.Tracer | None):
    """Run one pass; return its time and, when traced, its layer metrics."""
    elapsed = 0.0
    written = 0
    if tracer is not None:
        tracer.reset()
    for job in jobs:
        tally.attempted += 1
        try:
            with tracer.installed() if tracer is not None else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    out = workloads.run_job(job, workdir)
                finally:
                    elapsed += time.perf_counter() - t0
            failures = workloads.check_job(job, out, refs)
            if tracer is not None:
                written += workloads.bytes_written(out)
        except Exception:  # a failing job is counted and the run goes on
            failures = [traceback.format_exc(limit=3)]
        for message in failures:
            tally.fail(job, message)
    layers = None
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.bytes_written"] = written
    return elapsed, layers


def probe_setup(workload: str, seed: int, size: str) -> float:
    """Seconds to import hexgauge and generate the inputs, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, PROBE, "--workload", workload, "--seed", str(seed), "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def environment() -> dict:
    """Host, versions, commit and src/ size, recorded next to the numbers."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src = os.path.join(ROOT, "src", "hexgauge")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                lines += sum(1 for _ in f)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "hexgauge_threads": os.environ.get("HEXGAUGE_THREADS"),
        "thp_disabled": _thp_disabled(),
        "commit": commit,
        "src_lines": lines,
    }


def _thp_disabled() -> bool | None:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("THP_enabled:"):
                    return line.split()[1] == "0"
    except OSError:
        pass
    return None


def _loadavg() -> str:
    try:
        with open("/proc/loadavg") as f:
            return f.read().strip()
    except OSError:
        return "unavailable"


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        refs: dict | None = None, log=sys.stdout) -> dict:
    """Run one workload and return the result object that run.py prints last."""
    refs = workloads.load_references() if refs is None else refs
    passes = workloads.plan(workload, seed, size)
    env = environment()
    env["loadavg_start"] = _loadavg()
    tally = Tally()
    tracer = spans.Tracer() if trace else None
    times = {False: [], True: []}  # traced? -> pass times
    layer_samples = []
    setup = []
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, "_work"))
    try:
        run_pass(workloads.warmup_jobs(workload, seed), workdir, refs, tally, None)
        if not trace:
            probe_setup(workload, seed, size)  # warm-up sample, discarded
        start = time.perf_counter()
        for i, jobs in enumerate(passes):
            cycle_start = time.perf_counter()
            traced = trace and i % 2 == 1
            gc.collect()
            elapsed, layers = run_pass(jobs, workdir, refs, tally, tracer if traced else None)
            times[traced].append(elapsed)
            if layers is not None:
                layer_samples.append(layers)
            if not trace:
                setup.append(probe_setup(workload, seed, size))  # one per pass, not one burst
            # stop when another cycle would overshoot the budget by half a cycle or more
            now = time.perf_counter()
            if (i >= 1 or not trace) and now - start + (now - cycle_start) / 2 >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = _loadavg()

    if trace:
        metrics = {name: statistics.median(s[name] for s in layer_samples)
                   for name in layer_samples[0]}
        metrics["trace.overhead_frac"] = (statistics.median(times[True])
                                          / statistics.median(times[False]) - 1.0)
        metrics = {name: {"value": float(metrics[name]), "unit": unit}
                   for name, unit in spans.PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(times[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": float(v), "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
    summary = {
        "workload": workload, "seed": seed, "trace": trace, "size": size,
        "passes_untraced": len(times[False]), "passes_traced": len(times[True]),
        "pass_s": [round(t, 4) for t in times[False]],
        "setup_samples_s": [round(t, 4) for t in setup],
        "env": env,
    }
    print("# " + json.dumps(summary, sort_keys=True), file=log)
    for message in tally.messages:
        print("# FAILED " + message, file=log)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}

