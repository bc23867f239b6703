"""A study loads only what it runs, and every name has one import path.

The package ``__init__`` modules hold docstrings only: each name is imported
from the module that defines it, so importing one module does not drag in
the service, sweep or experiment layers built around the optimizer.
"""

import ast
import doctest
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: What the end-to-end study process imports before it reports ``READY``,
#: plus a scenario validation, which loads every built-in plugin.
STUDY_IMPORTS = """
import json, sys
import repro.core.faults, repro.core.scenario, repro.core.study, repro.slambench.workloads
from repro.core.scenario import Scenario

Scenario.from_file("examples/scenarios/quickstart.json")
print(json.dumps(sorted(sys.modules)))
"""

#: Layers a serial study never runs (module names or package prefixes).
NOT_LOADED = (
    "repro.core.service",
    "repro.core.server",
    "repro.core.client",
    "repro.core.sweep",
    "repro.core.doctor",
    "repro.core.leases",
    "repro.devices.mobile",
    "repro.crowd",
    "repro.experiments",
)


#: Layers an eval-worker never runs: ``repro.cli`` imports them in the
#: subcommands that use them.
CLI_NOT_LOADED = (
    "repro.core.sweep",
    "repro.core.doctor",
    "repro.core.leases",
    "repro.core.service",
    "repro.core.server",
    "repro.core.client",
)


def _modules_loaded_by(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(json.loads(out))


def test_study_loads_only_what_it_runs():
    loaded = _modules_loaded_by(STUDY_IMPORTS)
    assert "repro.core.study" in loaded
    stray = sorted(m for m in loaded if m.startswith(NOT_LOADED))
    assert not stray, stray


def test_cli_loads_no_subcommand_layers():
    loaded = _modules_loaded_by("import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))")
    assert "repro.cli" in loaded
    stray = sorted(m for m in loaded if m in CLI_NOT_LOADED)
    assert not stray, stray


def test_package_inits_import_nothing():
    inits = sorted((SRC / "repro").rglob("__init__.py"))
    assert inits
    for path in inits:
        imports = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert not imports, f"{path.relative_to(ROOT)} imports at lines {imports}"


def _modules_with_examples():
    for path in sorted((SRC / "repro").rglob("*.py")):
        if ">>> " in path.read_text():
            parts = path.relative_to(SRC).with_suffix("").parts
            yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@pytest.mark.parametrize("name", list(_modules_with_examples()))
def test_docstring_examples_run(name):
    """Docstring examples import from the defining modules and run."""
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted and not result.failed, result
