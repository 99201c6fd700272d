"""README's command examples, run as written: each ``$ adkra ...`` line in a
``sh`` block must print the lines that follow it. A ``--out`` directory is
replaced by a temporary one, in the command and in its ``wrote`` line."""

import pathlib
import re
import shlex

import pytest

from adkra.cli import EXIT_OK, main

ROOT = pathlib.Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
EXAMPLES = [block.splitlines() for block in BLOCKS if block.startswith("$ adkra ")]


def test_readme_shows_both_kinds_of_example():
    assert [shlex.split(lines[0])[2] for lines in EXAMPLES] == ["plan", "run"]


@pytest.mark.parametrize("lines", EXAMPLES, ids=[shlex.split(lines[0])[2] for lines in EXAMPLES])
def test_readme_example_prints_what_it_shows(lines, tmp_path, monkeypatch, capsys):
    argv = shlex.split(lines[0])[2:]
    want = lines[1:]
    if "--out" in argv:
        i = argv.index("--out") + 1
        want = [f"wrote {tmp_path}" if line == f"wrote {argv[i]}" else line for line in want]
        argv[i] = str(tmp_path)
    monkeypatch.chdir(ROOT)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == want
