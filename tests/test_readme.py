"""The README's examples run: its Python block executes, and its scenario
document validates and simulates through the command line."""

import os
import re

from blockfade.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _blocks(lang: str) -> list:
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"```{lang}\n(.*?)```", fh.read(), re.S)


def test_python_example_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, README, "exec"), {})
    assert capsys.readouterr().out


def test_scenario_document_validates_and_simulates(tmp_path):
    (doc,) = _blocks("json")
    path = tmp_path / "scenario.json"
    path.write_text(doc)
    assert main(["validate", str(path)]) == 0
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "manifest.csv").exists()
