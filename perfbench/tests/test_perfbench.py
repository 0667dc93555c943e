"""Tests of the benchmark itself: inputs, metric table, smoke runs.

    python -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import glslab  # noqa: E402
import metrics  # noqa: E402
from workloads import WORKLOADS, Lab, cycle_ops  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "failed_ops_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    "measure.gauss_hermite_1d.calls", "measure.gauss_hermite_1d.self_s",
    "measure.build_grid.calls", "measure.build_grid.self_s",
    "measure.integrate.calls", "measure.integrate.self_s", "measure.integrand_points",
    "functions.eval.calls", "functions.eval.points", "functions.eval.self_s",
    "functions.normalize.calls", "functions.normalize.self_s",
    "functionals.report.calls", "functionals.report.self_s", "functionals.report.per_op",
    "ou_flow.evolve.calls", "ou_flow.evolve.self_s",
    "ou_flow.density_average.points", "ou_flow.density_average.self_s",
    "ou_flow.inner_rules_per_evolve", "ou_flow.inner_order_max",
    "logconcavity.certify.calls", "logconcavity.certify.self_s",
    "logconcavity.probes", "logconcavity.active_ratio",
    "stability.verify_bounds.calls", "stability.verify_bounds.self_s",
    "stability.verify_entropy_squared.self_s", "stability.verify_fisher_gap.self_s",
    "stability.verify_kappa_weighted.self_s", "stability.verify_log_concave.self_s",
    "stability.verify_compact_support.self_s", "stability.verify_gaussian_tail.self_s",
    "stability.pipeline.self_s", "stability.skipped_ratio",
    "search.run_search.self_s", "search.raw_objective.self_s", "search.optimizer.self_s",
    "search.objective_evals", "search.feasible_ratio",
    "setup.import_glslab_s", "setup.import_scipy_stats_s", "setup.import_scipy_linalg_s",
    "setup.import_scipy_optimize_s", "setup.grid_build_s",
    "trace.overhead_ratio",
)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    assert cycle_ops(workload, 7, 0) == cycle_ops(workload, 7, 0)
    assert cycle_ops(workload, 7, 0) != cycle_ops(workload, 8, 0)
    assert cycle_ops(workload, 7, 0) != cycle_ops(workload, 7, 1)
    kinds = sorted(op["kind"] for op in cycle_ops(workload, 7, 0))
    assert kinds == sorted(op["kind"] for op in cycle_ops(workload, 8, 3))


def test_every_metric_is_named_with_its_unit():
    units = metrics.UNITS
    for name, unit in END_TO_END.items():
        assert units[name] == unit
    assert set(PER_LAYER) == {name for name, _, _ in metrics.PER_LAYER}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    expected = {n: u for n, u, _ in metrics.END_TO_END + metrics.PER_LAYER}
    assert listed == expected
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)


def test_checks_flag_wrong_answers():
    lab = Lab(glslab, (1,))
    flow = {
        "kind": "flow_curve",
        "build": {"family": "gaussian", "params": {"sigma2": [0.5], "mean": [0.3]}, "d": 1},
        "times": [0.0, 0.4, 1.0],
    }
    states = lab.run(flow)
    assert lab.check(flow, states)[1] == []
    off = dataclasses.replace(states[1], entropy=states[1].entropy + 1e-6)
    assert any("entropy" in p for p in lab.check(flow, [states[0], off, states[2]])[1])
    off = dataclasses.replace(states[2], first_moment=states[2].first_moment * 1.001)
    assert any("moment1" in p for p in lab.check(flow, [states[0], states[1], off])[1])

    verify = {"kind": "verify", "corpus": "gaussian_s05"}
    bounds = lab.run(verify)
    assert lab.check(verify, bounds)[1] == []
    for i, bound in enumerate(bounds):
        if bound.status == "skipped":
            continue
        off = list(bounds)
        off[i] = dataclasses.replace(bound, lhs=bound.lhs * 1.0001)
        assert any(p.startswith(f"{bound.name} ") for p in lab.check(verify, off)[1])
    bounds[0] = dataclasses.replace(bounds[0], status="violated")
    assert lab.check(verify, bounds)[1] == [f"{bounds[0].name} violated"]


def _run(workload, trace, cwd=ROOT, seconds=0):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_cycle_has_no_failed_op(workload):
    done = _run(workload, 0)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert "failed_ops_ratio 0 ratio" in lines
    for name, unit in END_TO_END.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)


@pytest.mark.parametrize("workload", ("verify_sweep", "search_loop"))
def test_traced_run_sees_no_evolution_outside_flow_pipeline(workload):
    done = _run(workload, 1)
    assert done.returncode == 0, done.stderr
    values = json.loads(done.stdout.splitlines()[-1])["metrics"]
    assert set(values) == set(PER_LAYER)
    assert all(v["value"] == 0 for k, v in values.items() if k.startswith("ou_flow."))
    assert values["trace.overhead_ratio"]["value"] > 0
    assert "# missing hooks, whose metrics read 0: none" in done.stdout.splitlines()


def test_traced_counts_do_not_depend_on_seconds():
    runs = [_run("search_loop", 1, seconds=seconds) for seconds in (0, 3)]
    assert all(done.returncode == 0 for done in runs), [done.stderr for done in runs]
    first, second = (json.loads(done.stdout.splitlines()[-1]) for done in runs)
    assert first["attempted"] == second["attempted"]
    for name, value in first["metrics"].items():
        if value["unit"] != "s" and name != "trace.overhead_ratio":
            assert second["metrics"][name]["value"] == value["value"], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("verify_sweep", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert "{" not in done.stdout
