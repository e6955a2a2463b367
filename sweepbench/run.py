#!/usr/bin/env python3
"""Sweep benchmark: one workload per invocation against this checkout's ``src``.

Usage, from the root of a checkout::

    python3 sweepbench/run.py --workload fixed-grid --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``fixed-grid``,
``precision-grid`` and ``pool-grid``.  With ``--trace 0``
the last line of standard output is a JSON object with every end-to-end
metric; with ``--trace 1`` it holds the per-layer table of the traced
pass instead.  Every unit's output is checked; a unit that fails a check
counts in ``failed`` and makes ``correct`` false.  The run exits with
code 2, printing no result, when ``repro`` cannot be imported from this
checkout's ``src``.
"""

from __future__ import annotations

import argparse
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
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Every cache and temporary file of a run lives here, in the checkout.
WORK_ROOT = os.path.join(ROOT, ".sweepbench_work")
#: Fresh-interpreter set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0
#: Share of ``--seconds`` the traced pass spends on untraced units, the
#: base its tracing overhead is measured against.
UNTRACED_SHARE = 1 / 3

Metrics = Dict[str, Tuple[float, str]]


def isolate_environment() -> None:
    """Drop every ``REPRO_*`` variable: trace files, fault plans, caches."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]


def refuse(message: str) -> None:
    print(f"sweepbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_checkout_repro() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        refuse(f"no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    origin = os.path.realpath(repro.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        refuse(f"repro imported from {origin}, not {SRC}")


def host_context(calibration: List[float]) -> Dict[str, object]:
    import numpy
    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    median = statistics.median(calibration)
    return {
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "calibration_ms_median": round(median, 3),
        "calibration_spread": round(
            (max(calibration) - min(calibration)) / median, 4
        ),
        "calibration_samples": len(calibration),
    }


def setup_probes(backend: str, workers: int) -> Dict[str, object]:
    """Median of fresh-interpreter probes: total, import and executor time.

    Also returns the calibration samples the probes took after set-up.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    totals, imports, executors, calibration = [], [], [], []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, probe, SRC, backend, str(workers)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            totals.append(time.perf_counter() - started)
            tail = child.stdout.read()
            if child.wait(timeout=PROBE_TIMEOUT_S) != 0 or not line:
                raise RuntimeError(f"set-up probe exited {child.returncode}")
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        report = json.loads(line)
        imports.append(report["import_s"])
        executors.append(report["executor_s"])
        calibration += json.loads(tail)["calibration_ms"]
    return {
        "setup_s": statistics.median(totals),
        "import_s": statistics.median(imports),
        "executor_s": statistics.median(executors),
        "calibration_ms": calibration,
    }


def peak_rss_mib(with_workers: bool) -> float:
    """This process's peak RSS, plus the largest waited-for child's peak."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_workers:
        peak_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kib / 1024.0


def stop_resource_tracker() -> None:
    """Stop and reap the helper process a pool's shared memory starts."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def end_to_end(tally, setup: Dict[str, float], rss_mib: float) -> Metrics:
    import numpy as np

    rates = [unit.trials / unit.wall for unit in tally.units]
    rerun_p90_s = float(np.percentile(tally.rerun_walls, 90))
    return {
        "trials_per_s": (statistics.median(rates), "1/s"),
        "time_to_precision_s": (statistics.median(tally.walls), "s"),
        "rerun_ms_p90": (rerun_p90_s * 1e3, "ms"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }


def run(args) -> Tuple[Dict[str, object], List[str]]:
    """Run one workload; returns the result object and the report lines."""
    import tracer as layer_tracer
    import workloads

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    prep, base, traced = (workloads.Tally() for _ in range(3))
    tracer = None
    try:
        workload.open_executor()
        try:
            workloads.warm_up(workload, prep)
            if args.trace:
                workloads.measure(
                    workload, args.seconds * UNTRACED_SHARE, base,
                    min_units=2,
                )
                tracer = layer_tracer.Tracer()
                tracer.install(workload.executor)
                workload.sweep = tracer.root(workload.sweep)
                try:
                    workloads.measure(
                        workload, args.seconds * (1 - UNTRACED_SHARE),
                        traced, min_units=2,
                    )
                finally:
                    tracer.uninstall()
            else:
                workloads.measure(workload, args.seconds, base)
        finally:
            workload.close()
        rss_mib = peak_rss_mib(workload.workers > 1)
        stop_resource_tracker()
        setup = setup_probes(workload.backend, workload.workers)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run's directory is still there

    tallies = (prep, base, traced)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems = [p for t in tallies for p in t.problems]
    lines = [
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(base.units) + len(traced.units)} measured units, "
        f"{len(base.rerun_walls) + len(traced.rerun_walls)} rerun samples, "
        f"{attempted} checked, {failed} failed",
    ]
    if tracer is None:
        metrics = end_to_end(base, setup, rss_mib)
    else:
        untraced_s = statistics.median(base.walls)
        traced_s = statistics.median(traced.walls)
        metrics = layer_tracer.layer_metrics(
            tracer, len(traced.units), setup, untraced_s, traced_s
        )
        children, wall = layer_tracer.children_within_wall(tracer)
        if children > wall * (1 + 1e-9):
            problems.append(
                f"child layers sum to {children:.6f}s, more than the "
                f"sweep wall {wall:.6f}s"
            )
        lines += layer_tracer.layer_table(tracer, len(traced.units))
        lines.append(
            f"tracing overhead: {traced_s - untraced_s:+.6f}s per unit "
            f"(traced {traced_s:.6f}s over an untraced base of "
            f"{untraced_s:.6f}s; {len(traced.units)} traced and "
            f"{len(base.units)} untraced units)"
        )
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<40} {value:>16.6f} {unit}")
    for problem in problems[:10]:
        lines.append(f"  FAILED: {problem}")
    lines.append(
        "host: "
        + json.dumps(host_context(setup["calibration_ms"]), sort_keys=True)
    )
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    isolate_environment()
    import_checkout_repro()
    import workloads  # needs repro on the path

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; known: "
            f"{', '.join(workloads.WORKLOADS)}"
        )
    result, lines = run(args)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
