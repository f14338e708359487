"""One benchmark pass in a fresh interpreter.

Usage: child.py INPUTS_JSON (run|trace|setup)

Set-up is importing quivergauge and loading the workload's job files; the
child prints ``READY`` when it is done, so the parent can time set-up from
process start.  Then it runs the workload once and prints one JSON record:
wall time, peak RSS, op counts and, when traced, the summed span durations
and the layer counts.  A traced pass also writes every span (name, start,
end, parent index) to the trace file named in the inputs.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    with open(sys.argv[1]) as fh:
        inputs = json.load(fh)
    mode = sys.argv[2]
    sys.path.insert(0, inputs["src"])

    from tracing import PassContext
    import workloads

    ctx = PassContext(traced=mode == "trace")
    jobs = workloads.load_jobs(ctx, inputs["jobs"])
    print("READY", flush=True)
    if mode == "setup":
        return 0

    start = time.perf_counter()
    workloads.WORKLOADS[inputs["workload"]](ctx, jobs, inputs)
    wall = time.perf_counter() - start

    if ctx.traced:
        with open(inputs["trace_file"], "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": ctx.spans}, fh)
    record = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ctx.ops,
        "failed": ctx.failed,
        "spans": ctx.span_totals(),
        "counts": dict(ctx.counts),
        "env": environment(),
    }
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
