"""Names, units and definitions of every metric the benchmark reports.

End-to-end metrics come from an untraced run; per-layer metrics from a
separate traced run.  ``BENCHMARK.json`` at the repository root lists the
same names and units (a test keeps the two in step).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_ops_s", "ops/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# Printed with the end-to-end metrics but not in BENCHMARK.json: it reads 0
# on a correct program, so it cannot carry a relative bound.  The result's
# "failed" and "attempted" fields carry the same information.
FAILED_RATIO = ("failed_ops_ratio", "ratio", "lower")

# the six stability bounds; verify_<bound> is a per-layer span each
BOUNDS = (
    "entropy_squared",
    "fisher_gap",
    "kappa_weighted",
    "log_concave",
    "compact_support",
    "gaussian_tail",
)

PER_LAYER = (
    ("measure.gauss_hermite_1d.calls", "count", "lower"),
    ("measure.gauss_hermite_1d.self_s", "s", "lower"),
    ("measure.build_grid.calls", "count", "lower"),
    ("measure.build_grid.self_s", "s", "lower"),
    ("measure.integrate.calls", "count", "lower"),
    ("measure.integrate.self_s", "s", "lower"),
    ("measure.integrand_points", "count", "lower"),
    ("functions.eval.calls", "count", "lower"),
    ("functions.eval.points", "count", "lower"),
    ("functions.eval.self_s", "s", "lower"),
    ("functions.normalize.calls", "count", "lower"),
    ("functions.normalize.self_s", "s", "lower"),
    ("functionals.report.calls", "count", "lower"),
    ("functionals.report.self_s", "s", "lower"),
    ("functionals.report.per_op", "1/op", "lower"),
    ("ou_flow.evolve.calls", "count", "lower"),
    ("ou_flow.evolve.self_s", "s", "lower"),
    ("ou_flow.density_average.points", "count", "lower"),
    ("ou_flow.density_average.self_s", "s", "lower"),
    ("ou_flow.inner_rules_per_evolve", "1/evolve", "lower"),
    ("ou_flow.inner_order_max", "order", "lower"),
    ("logconcavity.certify.calls", "count", "lower"),
    ("logconcavity.certify.self_s", "s", "lower"),
    ("logconcavity.probes", "count", "lower"),
    ("logconcavity.active_ratio", "ratio", "higher"),
    ("stability.verify_bounds.calls", "count", "lower"),
    ("stability.verify_bounds.self_s", "s", "lower"),
) + tuple((f"stability.verify_{bound}.self_s", "s", "lower") for bound in BOUNDS) + (
    ("stability.pipeline.self_s", "s", "lower"),
    ("stability.skipped_ratio", "ratio", "lower"),
    ("search.run_search.self_s", "s", "lower"),
    ("search.raw_objective.self_s", "s", "lower"),
    ("search.optimizer.self_s", "s", "lower"),
    ("search.objective_evals", "count", "lower"),
    ("search.feasible_ratio", "ratio", "higher"),
    ("setup.import_glslab_s", "s", "lower"),
    ("setup.import_scipy_stats_s", "s", "lower"),
    ("setup.import_scipy_linalg_s", "s", "lower"),
    ("setup.import_scipy_optimize_s", "s", "lower"),
    ("setup.grid_build_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + (FAILED_RATIO,) + PER_LAYER}

# spans whose self time counts towards another layer's self_s metric
_SELF_SPANS = {"measure.integrate": ("measure.integrate", "measure.integrate_with_error")}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(setup_samples, latencies, failed, peak_rss_mb) -> dict:
    lat = np.asarray(latencies, dtype=float)
    return {
        "setup_s": float(np.median(setup_samples)),
        "throughput_ops_s": lat.size / float(lat.sum()),
        "op_p50_ms": 1e3 * float(np.percentile(lat, 50)),
        "op_p90_ms": 1e3 * float(np.percentile(lat, 90)),
        "peak_rss_mb": float(peak_rss_mb),
        "failed_ops_ratio": failed / lat.size,
    }


def samples_above_p90(latencies) -> int:
    lat = np.asarray(latencies, dtype=float)
    return int((lat > np.percentile(lat, 90)).sum())


def per_layer(spans: dict, counts: dict, maxima: dict, n_ops: int, setup: dict, overhead: float) -> dict:
    """Per-layer metrics from the traced run's span table and counters."""
    counts, maxima = Counter(counts), Counter(maxima)
    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = float(spans.get(layer, (0, 0.0))[0])
        elif field == "self_s":
            out[name] = sum(spans.get(s, (0, 0.0))[1] for s in _SELF_SPANS.get(layer, (layer,)))
    out.update({
        "measure.integrand_points": counts["measure.integrand_points"],
        "functions.eval.points": counts["functions.eval.points"],
        "functionals.report.per_op": _ratio(out["functionals.report.calls"], n_ops),
        "ou_flow.density_average.points": counts["ou_flow.density_average.points"],
        "ou_flow.inner_rules_per_evolve": _ratio(
            counts["ou_flow.inner_rules"], counts["ou_flow.evolve_t_positive"]
        ),
        "ou_flow.inner_order_max": maxima["ou_flow.inner_order_max"],
        "logconcavity.probes": counts["logconcavity.probes"],
        "logconcavity.active_ratio": _ratio(
            counts["logconcavity.active"], counts["logconcavity.probes"]
        ),
        "stability.skipped_ratio": _ratio(counts["stability.skipped"], counts["stability.bounds"]),
        "search.objective_evals": counts["search.objective_evals"],
        "search.feasible_ratio": _ratio(counts["search.feasible"], counts["search.raw_objective"]),
        "trace.overhead_ratio": overhead,
    })
    out.update(setup)
    return {name: float(out[name]) for name, _, _ in PER_LAYER}


def importtime_split(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output.

    A module imported earlier by another one shows no line of its own; it
    then reads 0 here and its time is inside the module that pulled it in.
    """
    wanted = {
        "glslab": "setup.import_glslab_s",
        "scipy.stats": "setup.import_scipy_stats_s",
        "scipy.linalg": "setup.import_scipy_linalg_s",
        "scipy.optimize": "setup.import_scipy_optimize_s",
    }
    out = {metric: 0.0 for metric in wanted.values()}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        if len(fields) != 3:
            continue
        module = fields[2].strip()
        if module in wanted and out[wanted[module]] == 0.0:
            try:
                out[wanted[module]] = int(fields[1]) * 1e-6
            except ValueError:
                continue
    return out
