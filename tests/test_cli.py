"""End-to-end runs of the command line front end.

Everything goes through main(argv) with captured stdout; one test shells
out to the installed console script to make sure the entry point resolves.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import glslab
from glslab.cli import main
from glslab.ou_flow import FLOW_CSV_COLUMNS

NAN = float("nan")


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestReport:
    def test_builtin_to_stdout(self, capsys):
        code, out = _run(capsys, ["report", "--builtin", "gaussian_s05"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["config_sha256"]) == 64
        rep = payload["report"]
        assert rep["deficit"] > 0
        assert rep["entropy"] == pytest.approx(
            0.5 * (0.5 - 1 - math.log(0.5)), abs=1e-10
        )

    def test_output_is_deterministic(self, capsys):
        _, first = _run(capsys, ["report", "--builtin", "tilt_half"])
        _, second = _run(capsys, ["report", "--builtin", "tilt_half"])
        assert first == second

    def test_family_file(self, capsys, tmp_path):
        build = {"family": "gaussian", "params": {"sigma2": [0.5]}, "d": 1}
        path = tmp_path / "family.json"
        path.write_text(json.dumps(build))
        code, out = _run(capsys, ["report", "--family", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["build"] == build

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _ = _run(capsys, ["report", "--builtin", "tilt_half", "--out", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["config"]["builtin"] == "tilt_half"
        # nothing half-written next to it
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize(
        "build, message",
        [
            ({"family": "gaussian", "params": {"sigma2": [NAN]}, "d": 1}, "variances"),
            ({"family": "affine", "params": {"eps": NAN}, "d": 1}, "vanishes"),
            ({"family": "bump", "params": {"radius": math.inf}, "d": 1}, "radius"),
            ({"family": "tilt", "params": {"a": [NAN]}, "d": 1}, "L2 norm nan"),
            ({"family": "tilt", "params": {"a": [40.0]}, "d": 1}, "L2 norm inf"),
        ],
        ids=["gaussian", "affine", "bump", "tilt", "tilt_overflow"],
    )
    def test_non_finite_parameters_fail_cleanly(self, capsys, tmp_path, build, message):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(build))
        code = main(["report", "--family", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read family file"),
            ("{not json", "cannot read family file"),
            (json.dumps({"family": "bump", "params": {}}), "KeyError: 'radius'"),
            (json.dumps({"family": "gaussian", "params": {"sigma2": "abc"}}), "ValueError"),
            (json.dumps({"family": "tilt", "params": {"a": [0.1]}, "d": "one"}), "malformed"),
            (
                json.dumps({"family": "gaussian", "params": {"sigma2": [0.5, 0.5]}, "d": 3}),
                "d = 2, the description states d = 3",
            ),
            (
                json.dumps({"family": "bump", "params": {"radius": 1, "center": [0, 0]}, "d": 1}),
                "d = 2, the description states d = 1",
            ),
            (
                json.dumps({"family": "tilt", "params": {"a": [0.1, 0.2, 0.3]}, "d": 2}),
                "d = 3, the description states d = 2",
            ),
            (json.dumps({"family": "tilt", "params": {"a": []}}), "d = 0"),
            (
                json.dumps({"family": "hermite", "params": {"coeffs": [[[], 1.0]]}, "d": 0}),
                "dimension 0 outside",
            ),
        ],
        ids=[
            "missing_file",
            "not_json",
            "missing_parameter",
            "not_a_number",
            "d_not_a_number",
            "gaussian_d",
            "bump_d",
            "tilt_d",
            "tilt_empty",
            "hermite_d0",
        ],
    )
    def test_malformed_family_file_is_a_lab_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "family.json"
        if text is not None:
            path.write_text(text)
        code = main(["report", "--family", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err

    def test_unknown_builtin_is_a_lab_error(self, capsys):
        code, _ = _run(capsys, ["report", "--builtin", "missing_entry"])
        assert code == 3

    def test_missing_source_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["report"])
        assert excinfo.value.code == 2


class TestVerify:
    def test_builtin_passes(self, capsys):
        code, out = _run(capsys, ["verify", "--builtin", "gaussian_s05"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n_violated"] == 0
        statuses = {b["name"]: b["status"] for b in payload["results"][0]["bounds"]}
        assert statuses["entropy_squared"] == "verified"
        assert statuses["compact_support"] == "skipped"

    def test_impossible_tolerance_flags_violations(self, capsys):
        code, out = _run(
            capsys, ["verify", "--builtin", "gaussian_s05", "--tol", "-1"]
        )
        assert code == 1
        assert json.loads(out)["n_violated"] > 0

    def test_all_builtin_subset_of_bounds(self, capsys):
        code, out = _run(
            capsys,
            [
                "verify",
                "--all-builtin",
                "--bounds",
                "entropy_squared,fisher_gap",
                "--grid-order",
                "32",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["results"]) == 23
        for record in payload["results"]:
            assert len(record["bounds"]) == 2

    def test_unknown_bound_name(self, capsys):
        code, _ = _run(
            capsys, ["verify", "--builtin", "gaussian_s05", "--bounds", "spectral"]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "sources",
        [[], ["--all-builtin", "--builtin", "bump_r2"], ["--all-builtin", "--family", "f.json"]],
        ids=["none", "all_and_builtin", "all_and_family"],
    )
    def test_exactly_one_source_is_required(self, sources):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", *sources])
        assert excinfo.value.code == 2

    def test_all_builtin_output_is_strict_json(self, capsys):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        code, out = _run(capsys, ["verify", "--all-builtin", "--grid-order", "16"])
        assert code == 0
        payload = json.loads(out, parse_constant=reject)
        bounds = [b for record in payload["results"] for b in record["bounds"]]
        skipped = [b for b in bounds if b["status"] == "skipped"]
        assert skipped and all(b["margin"] is None for b in skipped)
        assert all(b["constant"] is None for b in bounds if b["name"] == "fisher_gap")


@pytest.mark.parametrize(
    "argv",
    [
        ["logcc", "--builtin", "bump_r2", "--time", "nan"],
        ["verify", "--builtin", "gaussian_s05", "--tol", "nan"],
        ["verify", "--builtin", "gaussian_s05", "--eps", "inf"],
        ["constants", "--radius", "inf"],
        ["constants", "--eps=-inf"],
    ],
)
def test_non_finite_float_options_are_usage_errors(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


class TestFlow:
    def test_csv_shape(self, capsys):
        code, out = _run(
            capsys, ["flow", "--builtin", "gaussian_shifted", "--times", "0.1,0.5"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(FLOW_CSV_COLUMNS)
        assert len(lines) == 3
        assert len(lines[1].split(",")) == len(FLOW_CSV_COLUMNS)

    def test_unsorted_times_fail_cleanly(self, capsys):
        code, _ = _run(
            capsys, ["flow", "--builtin", "gaussian_shifted", "--times", "0.5,0.2"]
        )
        assert code == 3

    def test_garbage_times_fail_cleanly(self, capsys):
        code, _ = _run(
            capsys, ["flow", "--builtin", "gaussian_shifted", "--times", "0.1,later"]
        )
        assert code == 3

    @pytest.mark.parametrize("times", ["0.1,inf", "nan,0.5"])
    def test_non_finite_times_fail_cleanly(self, capsys, times):
        code = main(["flow", "--builtin", "gaussian_shifted", "--times", times])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "finite" in captured.err

    def test_inner_order_is_not_an_option(self):
        # the quadrature path picks its own inner rule
        with pytest.raises(SystemExit) as excinfo:
            main(["flow", "--builtin", "bump_r2", "--times", "0.5", "--inner-order", "64"])
        assert excinfo.value.code == 2

    def test_infeasible_quadrature_flow_is_a_capacity_error(self, capsys, tmp_path):
        build = {"family": "bump", "params": {"radius": 2.0}, "d": 3}
        path = tmp_path / "bump_d3.json"
        path.write_text(json.dumps(build))
        code = main(["flow", "--family", str(path), "--times", "0,0.5"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "envelope" in captured.err


class TestConstants:
    def test_headline_constant_digits(self, capsys):
        code, out = _run(capsys, ["constants"])
        assert code == 0
        payload = json.loads(out)
        assert f"{payload['constants']['c_star']:.7f}" == "1.0005787"

    def test_radius_and_eps_tables(self, capsys):
        code, out = _run(
            capsys, ["constants", "--radius", "2", "--eps", "0.1", "--radius", "4"]
        )
        assert code == 0
        table = json.loads(out)["constants"]
        assert table["compact"]["2.0"]["t_star"] == pytest.approx(
            0.5 * math.log(5.0), rel=1e-15
        )
        assert set(table["compact"]) == {"2.0", "4.0"}
        assert table["tail"]["0.1"]["t_star"] == pytest.approx(
            0.5 * math.log(11.0), rel=1e-15
        )


class TestLogcc:
    def test_refuted_verdict_exits_one(self, capsys):
        code, out = _run(capsys, ["logcc", "--builtin", "two_bumps_wide"])
        assert code == 1
        assert json.loads(out)["certificate"]["status"] == "refuted"

    def test_certified_verdict_exits_zero(self, capsys):
        code, out = _run(capsys, ["logcc", "--builtin", "gaussian_s05"])
        assert code == 0
        assert json.loads(out)["certificate"]["status"] == "certified"

    def test_evolution_before_certification(self, capsys):
        code, out = _run(
            capsys, ["logcc", "--builtin", "bump_r2", "--time", "0.805"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["certificate"]["status"] == "certified"
        assert payload["config"]["time"] == 0.805

    def test_negative_probe_count_fails_cleanly(self, capsys):
        code = main(["logcc", "--builtin", "bump_r2", "--probes", "-3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "probes" in captured.err

    def test_negative_time_fails_cleanly(self, capsys):
        code = main(["logcc", "--builtin", "bump_r2", "--time", "-0.5"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "nonnegative" in captured.err


_AFFINE_PROBLEM = {
    "name": "affine",
    "objective": "deficit",
    "family": "affine",
    "d": 1,
    "lower": [0.01],
    "upper": [0.2],
}


class TestSearch:
    def test_end_to_end(self, capsys, tmp_path):
        problem = {
            "name": "cli_affine",
            "objective": "deficit",
            "family": "affine",
            "d": 1,
            "lower": [0.01],
            "upper": [0.2],
            "grid_order": 32,
            "restarts": 1,
            "maxiter": 30,
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        code, out = _run(capsys, ["search", "--problem", str(path), "--seed", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["seed"] == 3
        assert payload["result"]["problem"]["name"] == "cli_affine"
        assert 0.01 - 1e-9 <= payload["result"]["best_params"][0] <= 0.2 + 1e-9


    @pytest.mark.parametrize(
        "override, argv",
        [({"restarts": 0}, []), ({"maxiter": 0}, []), ({"seed": -1}, []), ({}, ["--seed", "-1"])],
    )
    def test_invalid_problem_fails_cleanly(self, capsys, tmp_path, override, argv):
        problem = {
            "name": "bad",
            "objective": "deficit",
            "family": "affine",
            "d": 1,
            "lower": [0.01],
            "upper": [0.2],
            **override,
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        code = main(["search", "--problem", str(path)] + argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "restarts" in captured.err

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read search problem"),
            ("{not json", "cannot read search problem"),
            ("[1, 2]", "JSON object"),
            (json.dumps({"name": "x", "lower": [0.1], "upper": [0.2]}), "missing"),
            (json.dumps({**_AFFINE_PROBLEM, "lower": ["a"]}), "could not convert"),
            (json.dumps({**_AFFINE_PROBLEM, "restarts": "3"}), "['restarts'] must be integers"),
            (json.dumps({**_AFFINE_PROBLEM, "d": 1.5}), "['d'] must be integers"),
        ],
        ids=[
            "missing_file",
            "not_json",
            "not_an_object",
            "missing_fields",
            "lower_not_a_number",
            "restarts_a_string",
            "d_not_an_integer",
        ],
    )
    def test_malformed_problem_file_is_a_lab_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "problem.json"
        if text is not None:
            path.write_text(text)
        code = main(["search", "--problem", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"family": "bump"}, "not searchable"),
            ({"family": "hermite", "d": 2, "lower": [-0.05], "upper": [0.05]}, "d = 1"),
            ({"family": "tilt", "lower": [0.1, 0.1], "upper": [0.3, 0.3]}, "box entries"),
            ({"family": "hermite", "lower": [-0.05] * 13, "upper": [0.05] * 13}, "box entries"),
        ],
        ids=["bump", "hermite_d2", "tilt_d1_two_entries", "hermite_degree_13"],
    )
    def test_infeasible_problem_fails_cleanly(self, capsys, tmp_path, override, message):
        problem = {
            "name": "never_feasible",
            "objective": "deficit",
            "family": "affine",
            "d": 1,
            "lower": [0.5],
            "upper": [1.0],
            "grid_order": 16,
            "restarts": 1,
            "maxiter": 5,
            **override,
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        code = main(["search", "--problem", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert message in captured.err


def _problem_file(tmp_path) -> str:
    problem = {
        "name": "envelope",
        "objective": "deficit",
        "family": "affine",
        "d": 1,
        "lower": [0.01],
        "upper": [0.2],
        "grid_order": 16,
        "restarts": 1,
        "maxiter": 5,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    return str(path)


@pytest.mark.parametrize(
    "argv, body",
    [
        (["report", "--builtin", "tilt_half", "--grid-order", "16"], "report"),
        (["verify", "--builtin", "bump_r2", "--grid-order", "16"], "results"),
        (["verify", "--all-builtin", "--bounds", "fisher_gap", "--grid-order", "8"], "results"),
        (["constants", "--radius", "2", "--eps", "0.1"], "constants"),
        (["logcc", "--builtin", "two_bumps_wide", "--grid-order", "16"], "certificate"),
        (["search", "--problem"], "result"),
    ],
    ids=["report", "verify", "verify_all", "constants", "logcc", "search"],
)
def test_config_sha256_is_the_hash_of_the_config(capsys, tmp_path, argv, body):
    if argv[-1] == "--problem":
        argv = argv + [_problem_file(tmp_path)]
    code, out = _run(capsys, argv)
    assert code in (0, 1)
    payload = json.loads(out)
    assert set(payload) >= {"config", "config_sha256", body}
    canonical = json.dumps(payload["config"], sort_keys=True).encode("utf-8")
    assert payload["config_sha256"] == hashlib.sha256(canonical).hexdigest()
    assert payload["config"]["command"] == argv[0]


def test_module_entry_point():
    # the child imports the same glslab as this process, installed or not
    root = os.path.dirname(os.path.dirname(glslab.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "glslab", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    for name in ("report", "verify", "flow", "constants", "logcc", "search"):
        assert name in proc.stdout


def test_console_script_resolves():
    script = shutil.which("glslab")
    if script is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([script, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
