"""One workload process: set up glslab, then run the closed loop.

    python perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --out DIR
    python perfbench/worker.py --workload W --setup-only

Set-up is ``import glslab`` from this checkout's ``src`` plus building the
workload's order-64 grids.  When it is done the process prints
``READY {"ready_s": ..., "import_s": ..., "grid_s": ...}``, where ready_s
counts from ``--spawn``, the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide on Linux).  With
``--setup-only`` it then exits.  Otherwise it warms the allocator (see
``_warm_allocator``) and runs as many whole cycles of ops as come closest
to ``--seconds`` (traced: exactly one cycle, whatever ``--seconds`` is, so
that counts and self times cover the same ops on every commit), writes the
per-op verdict log (and, traced, the span table) under ``--out``, and
prints ``RESULT {...}`` as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_glslab():
    sys.path.insert(0, SRC)
    import glslab

    if not os.path.abspath(glslab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"glslab imported from {glslab.__file__}, not from {SRC}")
    return glslab


# glibc serves large allocations with mmap and raises that threshold to the
# size of each mmapped block freed, up to 32 MiB; below the threshold freed
# memory is reused instead of page-faulted in afresh.  So an op's latency
# depends on whether an earlier op in the process freed a large block: d = 1
# bump certificates took 2-2.5x longer before the first d = 2 evolve than
# after it, and the latency percentiles followed where the shuffle put the
# d = 2 ops.  One 31 MiB block freed before timing puts every workload in
# the state that a process doing large ops reaches anyway.
WARM_BLOCK_BYTES = 31 << 20


def _warm_allocator() -> None:
    import numpy as np

    block = np.ones(WARM_BLOCK_BYTES // 8)
    del block


def _run_cycles(lab, workload, seed, seconds, cycles, tracer):
    """Run whole cycles; return per-op latencies, verdict records, cycles run.

    With ``cycles`` None, runs as many whole cycles as come closest to
    ``seconds``; otherwise exactly that many.
    """
    import warnings

    from workloads import cycle_ops

    latencies: list[float] = []
    records: list[dict] = []
    started = time.perf_counter()

    def more(k: int) -> bool:
        if cycles is not None:
            return k < cycles
        elapsed = time.perf_counter() - started
        return k == 0 or elapsed + 0.5 * elapsed / k < seconds

    k = 0
    while more(k):
        for i, spec in enumerate(cycle_ops(workload, seed, k)):
            op_id = len(latencies)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                span = tracer.begin_op(op_id, spec["kind"]) if tracer is not None else None
                t0 = time.perf_counter()
                try:
                    out, error = lab.run(spec), None
                except Exception as exc:  # a failed op is counted, not fatal
                    out, error = None, f"{type(exc).__name__}: {exc}"
                latencies.append(time.perf_counter() - t0)
                if span is not None:
                    tracer.end_op(span)
            record = {"cycle": k, "op": i, "kind": spec["kind"], "warnings": len(caught)}
            if error is None:
                try:
                    verdict, problems = lab.check(spec, out)
                except Exception as exc:
                    verdict, problems = {}, [f"check raised {type(exc).__name__}: {exc}"]
                record.update(verdict)
            else:
                problems = [error]
            del out
            record["ok"] = not problems
            if problems:
                record["problems"] = problems
                record["input"] = spec
            records.append(record)
        k += 1
    return latencies, records, k


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--spawn", type=float, default=None)
    args = parser.parse_args()

    t0 = time.perf_counter()
    glslab = _import_glslab()
    t1 = time.perf_counter()
    from workloads import Lab, grid_dims

    tracer = None
    if args.trace and not args.setup_only:
        from spans import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
        tracer.active = True  # count the set-up grid builds too
    lab = Lab(glslab, grid_dims(args.workload))
    if tracer is not None:
        tracer.active = False
    t2 = time.perf_counter()
    ready_s = time.monotonic() - args.spawn if args.spawn is not None else None
    ready = {"ready_s": ready_s, "import_s": t1 - t0, "grid_s": t2 - t1}
    print("READY " + json.dumps(ready), flush=True)
    if args.setup_only:
        return 0

    import platform
    import resource

    import numpy
    import scipy

    _warm_allocator()
    # A traced run records cycle 0, cold caches and all, so that counts and
    # self times cover the same ops on every commit.
    fixed = 1 if tracer is not None else None
    latencies, verdicts, cycles = _run_cycles(
        lab, args.workload, args.seed, args.seconds, fixed, tracer
    )
    result = {
        "latencies": latencies,
        "failed": sum(not record["ok"] for record in verdicts),
        "cycles": cycles,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        },
    }
    stem = os.path.join(args.out or ".", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(stem + ".verdicts.jsonl", "w", encoding="utf-8") as fh:
            for record in verdicts:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    if tracer is not None:
        result["spans"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
        result["maxima"] = dict(tracer.maxima)
        result["missing"] = tracer.missing
        if args.out:
            tracer.save(stem + ".spans.npz")
        # Overhead on warm caches: the same cycle untraced, then traced
        # again (those spans are not reported); ratio of time in ops.
        untraced = _run_cycles(lab, args.workload, args.seed, 0.0, 1, None)[0]
        retraced = _run_cycles(lab, args.workload, args.seed, 0.0, 1, tracer)[0]
        result["overhead"] = sum(retraced) / sum(untraced)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
