"""The README's examples run as written: the library quick start and each
`kzrat` command of the CLI section."""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from kzrat.cli import main

REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text(encoding="utf-8")


def _cli_commands() -> list[list[str]]:
    """The argv of each `kzrat ...` line of the CLI block, with its `\\`
    continuation lines joined."""
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("kzrat ")]


def test_readme_has_the_examples():
    assert len(_cli_commands()) == 4


def test_readme_python_block_runs():
    code = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize("argv", _cli_commands(), ids=" ".join)
def test_readme_cli_command_exits_zero(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)  # the config paths are relative to the repository
    if "--json" in argv:
        k = argv.index("--json") + 1
        argv = [*argv[:k], str(tmp_path / argv[k]), *argv[k + 1 :]]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
