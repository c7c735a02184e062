"""The scripts under tools/, run as their users run them.

tools/holography_phases.py calls package names that no other caller
pins (`pde._multigrid` among them), so a rename would otherwise break
it without a test failing."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_holography_phases_runs_at_level_three(capsys):
    load_tool("holography_phases").main(["3", "0.3"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("level 3, eps 0.3: 1536 triangles")
    assert lines[1].endswith("| peak RSS MB |")
    phases = [line.split("|")[1].strip() for line in lines[3:]]
    assert phases == ["mesh", "field", "identity", "stiffness", "multigrid",
                      "solve"]
    # each row has the five columns, peak RSS last
    assert all(len(line.split("|")) == 7 for line in lines[3:])


def test_holography_phases_usage():
    with pytest.raises(SystemExit):
        load_tool("holography_phases").main(["3"])
