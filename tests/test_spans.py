"""The benchmark's traced run wraps package functions by name
(perfbench/spans.py); a renamed or deleted target would break only a
traced run, so every name is resolved here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr",
                         [t[:2] for t in _spans()._targets()])
def test_traced_target_resolves(module_name, attr):
    target = importlib.import_module(f"coulomb_lab.{module_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
