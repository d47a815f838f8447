"""The README's examples, run as documented."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

from frcodes import sweep
from frcodes.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _block(section: str, language: str) -> str:
    """The first fenced block of the language under the ## heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def test_command_line_examples_run_as_documented(tmp_path, monkeypatch, capsys):
    # Later lines read the ring.json and rho4.csv earlier lines write.
    monkeypatch.chdir(tmp_path)
    lines = [line for line in _block("Command line", "sh").splitlines() if line.startswith("frc ")]
    assert len(lines) == 13
    for line in lines:
        argv = shlex.split(line, comments=True)
        rc = main(argv[1:])
        out = capsys.readouterr().out
        # ring(5,10,2) fails the universal goodness bound.
        assert rc == (1 if argv[1:3] == ["goodness", "ring.json"] else 0), line
        if "--json" in argv and argv[1] == "audit-table":
            records = [json.loads(text) for text in out.splitlines()]
            assert all(type(record) is dict for record in records)
            assert len(records) == len(sweep.load_bundled_table("ring_rho3"))


def test_code_model_example_runs_as_documented():
    namespace: dict = {}
    exec(_block("Code model", "python"), namespace)
    assert namespace["check_identities"](namespace["prof"]) == "general"
    assert (namespace["value"], namespace["witness"]) == (3, (0, 1))
