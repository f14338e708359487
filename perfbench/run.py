#!/usr/bin/env python3
"""quivergauge benchmark: end-to-end and per-layer metrics for one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``triangle_pipeline`` - the calls and sizes of scripts/run_triangle_pipeline.py
* ``wide_mc``           - two-site N=16 Monte Carlo and a Metropolis chain
* ``exact_band``        - moment recursion, scans, exact curves, expansions,
                          loop equations; no sampling

Every pass runs in a fresh interpreter (``child.py``) with BLAS pinned to
one thread, so imports and module-level memos start cold, as they do for
a CLI user.  The run repeats passes until ``--seconds`` have elapsed and
reports medians; it starts another pass only while one more pass of the
same length would end within ``--seconds``.  BENCHMARK.json sets a run of
about one pass: on a shared host the machine's speed drifts over minutes,
so ten short runs agree better than ten long ones.

Set-up (interpreter start, import, job loading and network validation) is
timed from process start in set-up-only processes before each pass as
well as in every pass.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes that time every layer through public
calls and replays, and prints the per-layer metrics; the difference of the
two wall times is the tracing overhead.  The spans of the last traced pass
are written to ``.perfbench/trace-<workload>.json``.

Inputs (job files, Monte Carlo seeds) are generated here from ``--seed``;
the program sees only those.  Every op's output is checked against an
independent oracle; a failed op makes the run print ``"correct": false``
and exit 1.  The last line of standard output is the JSON result; the line
before it records the seed, the pass timings and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # set-up-only processes before each pass
PASS_TIMEOUT_S = 150.0

TWO_SITE = {
    "quiver": {
        "vertices": ["v", "w"],
        "edges": [
            {"id": "ov", "src": "v", "dst": "v"},
            {"id": "e", "src": "v", "dst": "w"},
            {"id": "ow", "src": "w", "dst": "w"},
        ],
    },
    "network": {
        "l": {"v": 2, "w": 1},
        "n": {"v": [3, 2], "w": [8]},
        "r": {"v": [4, 2], "w": [2]},
        "C": {"ov": [[1, 0], [0, 1]], "e": [[2], [1]], "ow": [[1]]},
    },
    "loops": ["ov+ ov+ e+ ow+ ow+ e-"],
}


def single_block_network(vertices: list[str], edges: list[str], dim: int) -> dict:
    return {
        "l": {v: 1 for v in vertices},
        "n": {v: [dim] for v in vertices},
        "r": {v: [1] for v in vertices},
        "C": {e: [[1]] for e in edges},
    }


def triangle(dim: int) -> dict:
    edges = [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v1")]
    vertices = ["v1", "v2", "v3"]
    return {
        "quiver": {
            "vertices": vertices,
            "edges": [{"id": e, "src": s, "dst": d} for e, s, d in edges],
        },
        "network": single_block_network(vertices, [e for e, _, _ in edges], dim),
        "action": {"f": [0, 0, 0, "1/15"]},  # plaquette coupling x = 3 f3 = 0.2
        "loops": ["e1+ e2+ e3+"],
    }


def two_site(f: list) -> dict:
    return dict(TWO_SITE, action={"f": f})


def torus(size: int, f: list) -> dict:
    """Periodic size x size square lattice: h{i}{j} steps in i, u{i}{j} in j."""
    vertices = [f"v{i}{j}" for i in range(size) for j in range(size)]
    edges = []
    for i in range(size):
        for j in range(size):
            edges.append({"id": f"h{i}{j}", "src": f"v{i}{j}", "dst": f"v{(i + 1) % size}{j}"})
            edges.append({"id": f"u{i}{j}", "src": f"v{i}{j}", "dst": f"v{i}{(j + 1) % size}"})
    return {
        "quiver": {"vertices": vertices, "edges": edges},
        "network": single_block_network(vertices, [e["id"] for e in edges], 2),
        "action": {"f": f},
    }


def workload_jobs(name: str) -> dict[str, dict]:
    if name == "triangle_pipeline":
        return {"triangle": triangle(4)}
    if name == "wide_mc":
        return {"two_site": two_site([0, 0, 0, 0, "1/2000"]), "triangle": triangle(3)}
    if name == "exact_band":
        return {
            "two_site": two_site([0] * 10 + [1]),
            "torus": torus(3, [0] * 6 + [1]),
            "triangle": triangle(4),
        }
    raise ValueError(name)


def derived_seed(seed: int, workload: str, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}/{workload}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def write_inputs(workdir: Path, workload: str, mc_seeds: dict[str, int]) -> Path:
    jobs = {}
    for name, data in workload_jobs(workload).items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(data, indent=1))
        jobs[name] = {"path": str(path), "network": data["network"]}
    inputs = {
        "workload": workload,
        "src": str(ROOT / "src"),
        "workdir": str(workdir),
        "trace_file": str(ROOT / ".perfbench" / f"trace-{workload}.json"),
        "jobs": jobs,
        "mc_seeds": mc_seeds,
    }
    path = workdir / "inputs.json"
    path.write_text(json.dumps(inputs, indent=1))
    return path


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class PassError(RuntimeError):
    pass


def run_pass(inputs: Path, mode: str, env: dict) -> tuple[float, dict | None]:
    """Spawn one child; return (set-up seconds from spawn, its record)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(inputs), mode],
        stdout=subprocess.PIPE,
        cwd=inputs.parent,
        env=env,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise PassError(f"{mode} pass exited with code {proc.returncode}")
    if mode == "setup":
        return setup, None
    return setup, json.loads(out.strip().splitlines()[-1])


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(rec: dict, names: list[str]) -> dict[str, float]:
    spans, counts = rec["spans"], rec["counts"]

    def s(name: str) -> float:
        return spans.get(name, 0.0)

    special = {
        "ops": rec["ops"],
        "failed_ops": rec["failed"],
        "scan_s": s("bootstrap.scan_region") + s("bootstrap.moment"),
        "curve_s": s("gww.first_moment_curve"),
        "expand_s": s("action.expand_action"),
        "loopeq_s": s("loop_equations.generate") + s("loop_equations.factorize"),
        "reweight_samples_per_s": rate(counts.get("monte_carlo.reweight_samples", 0), s("monte_carlo.estimate")),
        "residual_samples_per_s": rate(counts.get("monte_carlo.residual_samples", 0), s("monte_carlo.check")),
        "metropolis_sweeps_per_s": rate(counts.get("monte_carlo.metropolis_sweeps", 0), s("monte_carlo.metropolis")),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith("_s"):
            out[name] = s(name[:-2])
        else:
            out[name] = counts.get(name, 0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "quivergauge" / "__init__.py").is_file():
        print(f"error: no quivergauge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    mc_seeds = {t: derived_seed(args.seed, args.workload, t) for t in ("reweight", "residual", "metropolis")}
    env = child_env()
    start = time.perf_counter()
    try:
        inputs = write_inputs(workdir, args.workload, mc_seeds)
        baseline = run_pass(inputs, "run", env)[1] if args.trace else None
        mode = "trace" if args.trace else "run"
        setups, records = [], []
        while True:
            t0 = time.perf_counter()
            if not args.trace:
                setups += [run_pass(inputs, "setup", env)[0] for _ in range(SETUP_PROBES)]
            setup, rec = run_pass(inputs, mode, env)
            setups.append(setup)
            records.append(rec)
            now = time.perf_counter()
            # start another pass only if one more like the last ends in time
            if now - start + (now - t0) > args.seconds:
                break
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = records + ([baseline] if baseline else [])
    attempted = sum(r["ops"] for r in checked)
    failed = sum(r["failed"] for r in checked)

    walls = [r["wall_s"] for r in records]
    if args.trace:
        per_pass = [layer_metrics(r, [m["name"] for m in metrics]) for r in records]
        values = {m["name"]: statistics.median(p[m["name"]] for p in per_pass) for m in metrics}
        values["trace_overhead_s"] = statistics.median(walls) - baseline["wall_s"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "mc_seeds": mc_seeds,
        "passes": len(records),
        "pass_wall_s": walls,
        "setup_s": setups,
        "env": records[0]["env"],
    }
    print(json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
