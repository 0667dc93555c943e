"""Golden outputs of the command line front end.

Each file in tests/golden holds one command's argv, exit code and stdout.
Family files named by --family lie in tests/golden/families, and every
command runs from the repository root, so their paths (which enter the
config and its digest) are the same wherever pytest starts.  The test
reruns the command in-process through cli.main and compares exit
codes, strings, booleans, ints and nulls exactly, and floats within
1e-12 max(1, |ref|), so that a different BLAS cannot make it flaky.  JSON
output is compared field by field, the flow CSV cell by cell.  A change
that means to move an output regenerates the files it moves, by name, and
says why:

    PYTHONPATH=src python tests/test_golden.py [name ...]

rewrites the named files (a name is a key of COMMANDS, the file name
without .json), and every file when no name is given.
"""

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

from glslab.cli import main

GOLDEN = Path(__file__).with_name("golden")
FLOAT_RTOL = 1e-12
COMMANDS = {
    "report_gaussian_s05": ["report", "--builtin", "gaussian_s05"],
    "verify_all_builtin_order16": ["verify", "--all-builtin", "--grid-order", "16"],
    "logcc_bump_r2_t0805": ["logcc", "--builtin", "bump_r2", "--time", "0.805"],
    "logcc_two_bumps_wide": ["logcc", "--builtin", "two_bumps_wide"],
    "flow_hermite_mixed": ["flow", "--builtin", "hermite_mixed", "--times", "0,0.1,0.5,1"],
    "flow_bump_r2": ["flow", "--builtin", "bump_r2", "--times", "0.1,0.805"],
}
# Certificates whose Hess log h is not diagonal, so that their rows go to
# eigvalsh: a d = 2 bump, and at d = 3 an affine and a Hermite expansion
for _fixture in ("bump_d2", "affine_d3", "hermite_d3"):
    COMMANDS[f"logcc_{_fixture}"] = [
        "logcc", "--family", f"tests/golden/families/{_fixture}.json", "--grid-order", "16"
    ]
# Certificates of a constant Hess log h: a d = 3 tilt, whose M is the
# identity, and an anisotropic d = 2 Gaussian profile, whose M is diagonal
COMMANDS["logcc_tilt_d3"] = ["logcc", "--builtin", "tilt_d3"]
COMMANDS["logcc_gaussian_d2_aniso"] = ["logcc", "--builtin", "gaussian_d2_aniso"]
# d = 3 flows of the polynomial families, which average exactly on a
# Gauss-Hermite rule of their own degree
for _fixture in ("affine_d3", "hermite_d3"):
    COMMANDS[f"flow_{_fixture}"] = [
        "flow", "--family", f"tests/golden/families/{_fixture}.json", "--grid-order", "16",
        "--times", "0.1,0.5",
    ]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN.parent.parent)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _parse(stdout: str):
    """JSON output as its data, CSV output as rows of cells."""
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return [[_cell(c) for c in line.split(",")] for line in stdout.splitlines()]


def _assert_matches(got, want, path: str = "$") -> None:
    if isinstance(want, float):
        assert isinstance(got, float), (path, got, want)
        if math.isnan(want):
            assert math.isnan(got), (path, got, want)
        else:
            assert abs(got - want) <= FLOAT_RTOL * max(1.0, abs(want)), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), (path, got, want)
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (path, got, want)
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_the_golden_file(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert golden["argv"] == COMMANDS[name]
    code, stdout = _run(COMMANDS[name])
    assert code == golden["exit_code"]
    _assert_matches(_parse(stdout), _parse(golden["stdout"]))


def test_comparison_is_tight():
    _assert_matches([1.0, "a", 2, None, True], [1.0 + 1e-13, "a", 2, None, True])
    for got, want in [(1.0 + 1e-11, 1.0), (2, 2.0), (1, True), ("b", "a"), ({"a": 1}, {})]:
        with pytest.raises(AssertionError):
            _assert_matches(got, want)


if __name__ == "__main__":
    names = sys.argv[1:] or list(COMMANDS)
    unknown = [name for name in names if name not in COMMANDS]
    if unknown:
        sys.exit(f"unknown golden name(s) {unknown}; known: {sorted(COMMANDS)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        argv = COMMANDS[name]
        code, stdout = _run(argv)
        record = {"argv": argv, "exit_code": code, "stdout": stdout}
        (GOLDEN / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
