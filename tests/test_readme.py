"""The README's examples run as written.

Every ``posetdual`` line of the CLI block, with its backslash continuations
joined, runs through ``cli.main`` from the repository root and must exit 0
without a traceback; the library example runs and its comments must say
what it computes.
"""

import re
import shlex
from pathlib import Path

import pytest

from posetdual.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, language: str) -> str:
    """The first ``language`` code block after the line ``heading``."""
    section = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [
    line
    for line in fenced_block("## CLI", "sh").replace("\\\n", " ").splitlines()
    if line.startswith("posetdual ")
]


def test_readme_cli_block_has_the_commands():
    assert len(CLI_LINES) == 8, CLI_LINES


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_exits_zero(line, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = main(shlex.split(line)[1:])
    err = capsys.readouterr().err
    assert code == 0, err
    assert "Traceback" not in err


def test_readme_library_example_says_what_it_computes(capsys):
    source = fenced_block("## Library example", "python")
    namespace: dict = {}
    exec(compile(source, "README.md", "exec"), namespace)
    verdict, outcome = namespace["verdict"], namespace["outcome"]
    assert not verdict.ok and verdict.witness == frozenset({"b"})
    assert "# false, witness {'b'}" in source
    assert namespace["ic"].as_json() == {
        "ok": False,
        "witness": ["a", "d"],
        "detail": "no one-step successor maximum antichain",
    }
    assert "# false, witness {'a', 'd'}" in source
    assert outcome.event_model is None and outcome.report is not None
    assert "# invalidity report, not an event model" in source
    assert capsys.readouterr().out == f"False {outcome.report.as_json()}\n"
