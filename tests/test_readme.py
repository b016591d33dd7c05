"""Every example in the README's "Command line" block runs in-process and
exits with the code the README gives it: 0 unless its comment says
"exits N"."""

import re
import shlex
from pathlib import Path

import pytest

from gwrec.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
ATOMS = '{"atoms": {"gw[N=1;g=1;ins=(0,1)]": "-1/24"}}'


def _examples():
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    for line in block.splitlines():
        cmd, _, note = line.partition("#")
        if cmd.strip():
            code = re.search(r"exits (\d)", note)
            yield cmd.strip(), int(code.group(1)) if code else 0


EXAMPLES = list(_examples())


def test_readme_has_examples():
    assert len(EXAMPLES) >= 10
    assert ("gwrec verify example-f --max-m 11", 1) in EXAMPLES


@pytest.mark.parametrize("cmd,code", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_exit_code(cmd, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "atoms.json").write_text(ATOMS)
    assert main(["--cache", "a.jsonl", "invariant", "--N", "1", "--g", "0", "--ins", "2:pt"]) == 0
    assert main(["--cache", "b.jsonl", "invariant", "--N", "1", "--g", "1", "--ins", "0:1"]) == 0
    capsys.readouterr()
    argv = shlex.split(cmd)
    assert argv[0] == "gwrec"
    rc = main(argv[1:])
    out = capsys.readouterr().out
    assert rc == code, out
    assert out
