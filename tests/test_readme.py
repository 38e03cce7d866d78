"""The README's examples run: its Python block executes, and its scenario
document validates and simulates through the command line.  Its preset
table describes what ``expand_preset`` builds.  The public API is pinned:
``__all__`` is an exact list of names, resolves, and covers what the
README imports; every module-qualified name the README cites exists."""

import ast
import importlib
import os
import re

import blockfade
from blockfade.cli import main
from blockfade.scenario import PRESET_NAMES, expand_preset

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _readme() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def _blocks(lang: str) -> list:
    return re.findall(rf"```{lang}\n(.*?)```", _readme(), re.S)


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


def test_preset_table_matches_presets():
    section = _readme().split("## Presets\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines()
            if line.startswith("| `")]
    named = {}
    for cells in rows:
        # a row such as `nlos` / `los` describes both presets
        for name in re.findall(r"`([^`]+)`", cells[0]):
            named[name] = [int(cell) for cell in cells[1:4]]
    assert sorted(named) == sorted(PRESET_NAMES)
    for name, (n, k, clusters) in named.items():
        config = expand_preset(name)
        assert (config.geometry.n_antennas, config.n_users) == (n, k), name
        assert all(len(user.clusters) == clusters for user in config.users), name
    assert "All presets use 1000 realizations (2000 for `fig4`)" in " ".join(section.split())
    assert {name: expand_preset(name).realizations for name in PRESET_NAMES} == \
        {name: 2000 if name == "fig4" else 1000 for name in PRESET_NAMES}


def test_public_api_is_pinned():
    # an added or removed public name shows up in review as a change here
    assert sorted(blockfade.__all__) == [
        "ArrayGeometry", "ClusterSpec", "ConfigError", "CorrelationSpec", "NumericalError",
        "RANDOM_DIRECTION", "ReportBundle", "ResourceGrid", "ScenarioConfig", "UserSpec",
        "build_covariance", "cholesky_psd", "coefficient_histogram", "eigenvalues_hermitian",
        "empirical_cdf", "expand_preset", "gram", "parse_config", "power_profile",
        "run_scenario", "substream"]


def test_star_import_resolves_all():
    namespace = {}
    exec("from blockfade import *", namespace)
    assert set(blockfade.__all__) <= set(namespace)


def test_readme_imports_only_public_names():
    (code,) = _blocks("python")
    imported = {alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module == "blockfade"
                for alias in node.names}
    assert imported and imported <= set(blockfade.__all__)


def test_cited_module_names_resolve():
    # a name such as `stochastic.philox_keys` must exist on that blockfade module
    cited = set(re.findall(r"`(scenario|stochastic|analytics|emit|model)\.(\w+)", _readme()))
    assert cited
    missing = [f"{module}.{name}" for module, name in sorted(cited)
               if not hasattr(importlib.import_module(f"blockfade.{module}"), name)]
    assert missing == []
