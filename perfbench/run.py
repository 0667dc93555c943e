"""glslab benchmark: one seeded workload, end to end or traced per layer.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0

Workloads: verify_sweep, flow_pipeline, search_loop (see workloads.py).

--trace 0 measures set-up in fresh interpreters (four set-up-only
processes plus the workload process itself; the median is setup_s), then
runs the workload's closed loop for about --seconds (whole cycles, after
one large block is allocated and freed so that glibc's mmap threshold does
not change mid-run) and reports setup_s, throughput_ops_s, op_p50_ms,
op_p90_ms and peak_rss_mb, with failed_ops_ratio printed alongside.  --trace 1 splits set-up with
``python -X importtime``, runs cycle 0 of the loop (whatever --seconds is)
with every layer wrapped in spans, replays it untraced for the overhead
ratio, and reports the per-layer metrics; a wrapped name the package no
longer has is printed on stdout and stderr, since its metrics then read 0.
BLAS/OpenMP threads are pinned to 1 in the workload processes.

Every op's outputs are checked; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-op verdicts
(bound and certificate statuses, inner orders, search evaluation counts)
go to perfbench/out/<workload>-seed<n>-trace<t>.verdicts.jsonl, so two
commits can be diffed op by op on the cycles both completed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 4
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
RUN_LIMIT_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    return env


def _worker(args: list[str], deadline: float) -> tuple[dict, dict | None]:
    """Run worker.py to the end; return its READY and RESULT payloads."""
    done = subprocess.run(
        [sys.executable, WORKER, *args, "--spawn", repr(time.monotonic())],
        stdout=subprocess.PIPE,
        text=True,
        env=_env(),
        cwd=ROOT,
        timeout=max(0.1, deadline - time.monotonic()),
    )
    ready, result = None, None
    for line in done.stdout.splitlines():
        if line.startswith("READY ") and ready is None:
            ready = json.loads(line[len("READY "):])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if done.returncode != 0 or ready is None:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {done.returncode}")
    return ready, result


def _importtime(workload: str, deadline: float) -> tuple[dict, float]:
    """Import split and grid build seconds of one set-up-only process."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", WORKER, "--workload", workload, "--setup-only"],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=ROOT,
        timeout=max(0.1, deadline - time.monotonic()),
    )
    ready = [line for line in done.stdout.splitlines() if line.startswith("READY ")]
    if done.returncode != 0 or not ready:
        raise RuntimeError(f"set-up process exited with code {done.returncode}")
    return metrics.importtime_split(done.stderr), json.loads(ready[0][len("READY "):])["grid_s"]


def _median_split(samples: list[tuple[dict, float]]) -> dict:
    split = {k: statistics.median(s[0][k] for s in samples) for k in samples[0][0]}
    split["setup.grid_build_s"] = statistics.median(s[1] for s in samples)
    return split


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "glslab", "__init__.py")):
        print(f"error: no glslab sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", args.workload]

    if args.trace:
        split = _median_split([_importtime(args.workload, deadline) for _ in range(SETUP_PROBES)])
    else:
        setup = [
            _worker(base + ["--setup-only"], deadline)[0]["ready_s"] for _ in range(SETUP_PROBES)
        ]
    run = base + ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    run += ["--trace", str(args.trace), "--out", OUT]
    ready, result = _worker(run, deadline)
    if result is None:
        raise RuntimeError("workload process printed no result")

    latencies = result["latencies"]
    attempted, failed = len(latencies), result["failed"]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": result["cycles"],
        "env": dict(result["env"], pinned_threads=int(THREADS)),
    }
    if args.trace:
        shown = metrics.per_layer(
            {k: tuple(v) for k, v in result["spans"].items()},
            result["counts"],
            result["maxima"],
            attempted,
            split,
            result["overhead"],
        )
        reported = shown
        summary["missing_hooks"] = result["missing"]
    else:
        setup.append(ready["ready_s"])
        shown = metrics.end_to_end(setup, latencies, failed, result["peak_rss_mb"])
        reported = {name: shown[name] for name, _, _ in metrics.END_TO_END}
        summary["setup_samples_s"] = setup
        summary["samples_above_p90"] = metrics.samples_above_p90(latencies)
    summary.update(attempted=attempted, failed=failed, metrics=shown)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)

    print(f"# {args.workload} seed {args.seed}: {attempted} ops in {result['cycles']} cycles, "
          f"{failed} failed; env {json.dumps(summary['env'], sort_keys=True)}")
    if args.trace:
        missing = ", ".join(result["missing"]) or "none"
        print(f"# missing hooks, whose metrics read 0: {missing}")
        if result["missing"]:
            print(f"warning: missing hooks {missing}", file=sys.stderr)
    else:
        print(f"# op_p90_ms has {summary['samples_above_p90']} samples above it")
    for name, value in shown.items():
        print(f"{name} {value:.6g} {metrics.UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]} for name, value in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
