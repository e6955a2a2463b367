"""One set-up probe: a fresh interpreter imports ``repro`` and readies an executor.

Run as ``python3 sweepbench/setup_probe.py SRC BACKEND WORKERS``.  It
prints one JSON line as soon as the executor is ready, with the import
and executor times it measured itself, and only then closes the
executor.  The parent times the whole probe from the moment it starts
the interpreter until that line arrives.  A process pool counts as
ready once it has answered its first task.

After the executor is closed the probe times a fixed pure-NumPy loop and
prints the samples on a second line.  The loop reuses its buffers, so
allocator state cannot slow it, and every probe starts from the same
fresh state: the spread of the samples shows the host's drift and
nothing of the benchmark's own process.
"""

from __future__ import annotations

import json
import os
import sys
import time

CALIBRATION_SAMPLES = 2


def calibration_ms() -> float:
    """One pass of a fixed pure-NumPy loop, in milliseconds."""
    import numpy as np

    data = np.arange(200_000, dtype=np.float64) % 977.0
    work = np.empty_like(data)
    started = time.perf_counter()
    for _ in range(20):
        work[:] = data
        work.sort()
        np.cumsum(data, out=work)
        data @ data
    return (time.perf_counter() - started) * 1e3


def main() -> int:
    started = time.perf_counter()
    src, backend, workers = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    import repro
    from repro.sweep import make_executor

    imported = time.perf_counter()
    if not os.path.realpath(repro.__file__).startswith(
        os.path.realpath(src) + os.sep
    ):
        print(f"repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    executor = make_executor(workers, backend=backend)
    try:
        if backend == "process":
            executor.submit(abs, -1.0)
            executor.next_completed()
        ready = time.perf_counter()
        print(json.dumps({
            "import_s": imported - started,
            "executor_s": ready - imported,
        }), flush=True)
    finally:
        executor.close()
    samples = [calibration_ms() for _ in range(CALIBRATION_SAMPLES)]
    print(json.dumps({"calibration_ms": samples}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
