"""Every ``isoact`` line in README's ``sh`` blocks runs as written and exits 0.

The lines run through click's test runner in a fresh directory, which
first holds ``run.json``, written from README's JSON config example.
"""

import json
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from isoact.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_commands(text: str) -> list:
    """The argument lists of the ``isoact`` lines, continuations joined, comments dropped."""
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("isoact ")]


COMMANDS = readme_commands(README)
CONFIG = json.loads(re.search(r"```json\n(.*?)```", README, flags=re.S).group(1))


def test_readme_commands_are_read_whole():
    # a comment is dropped, and a line continued with a backslash is one command
    assert ["run", "--list"] in COMMANDS
    gram = next(args for args in COMMANDS if args[:2] == ["mobius", "gram"])
    assert gram[2::2] == ["--g1", "--g2"]


@pytest.mark.parametrize(
    "args", COMMANDS, ids=[f"{i:02d}-{'-'.join(args[:2])}" for i, args in enumerate(COMMANDS)]
)
def test_readme_command_exits_zero(args, tmp_path):
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("run.json").write_text(json.dumps(CONFIG), encoding="utf-8")
        result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
