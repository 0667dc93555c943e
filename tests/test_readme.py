"""README's examples run as written: every ```python block, in order, in one
namespace, and every `glslab` line of a ```sh block through the CLI, so that a
change of the library API or of the command line breaks a test."""

import re
import shlex
from pathlib import Path

from glslab import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# README's exit codes: 1 when a certificate is refuted, 0 on success
EXIT_CODES = {"glslab logcc --builtin two_bumps_wide": 1}


def test_python_examples_run_in_order():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def _runnable(line: str) -> bool:
    """False for a line with a shell variable or a .json argument that is not
    a file of the repository."""
    words = shlex.split(line)
    return "$" not in line and all((ROOT / w).is_file() for w in words if w.endswith(".json"))


def test_command_lines_run(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)
    lines = [
        line.strip()
        for block in blocks
        for line in block.splitlines()
        if line.strip().startswith("glslab ")
    ]
    skipped = [line for line in lines if not _runnable(line)]
    assert skipped == [
        "glslab report --family my_function.json",
        "glslab search --problem problem.json --seed 3",
        'glslab flow --builtin "$e" --times 0,0.1,0.2,0.5,1,2 --out "curves/$e.csv"',
    ]
    ran = [line for line in lines if line not in skipped]
    assert len(ran) == 7
    for line in ran:
        code = cli.main(shlex.split(line)[1:])
        assert capsys.readouterr().out, line
        assert code == EXIT_CODES.get(line, 0), line
