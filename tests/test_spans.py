"""The benchmark's traced run wraps package functions by name
(perfbench/spans.py); a renamed or deleted target would break only a
traced run, so every name is resolved here, and a traced run's
counters are checked."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
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


def test_traced_counters_are_json(tmp_path):
    # A traced experiment writes its spans as JSON, with the counters
    # the hooks read off the wrapped calls' results; the census hook's
    # hits must sum to the run's preimage cards.
    root = SPANS.parent.parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(root / "src"),
                             os.environ.get("PYTHONPATH")]))}
    record = tmp_path / "record.json"
    subprocess.run(
        [sys.executable, str(SPANS.parent / "experiment.py"),
         str(time.monotonic()), str(record), "1", "coarea", "--level", "3",
         "--sphere-level", "2", "--out", str(tmp_path / "out")],
        env=env, check=True)
    run = json.loads(record.read_text())
    assert run["error"] is None
    cards = np.loadtxt(tmp_path / "out" / "coarea.csv", delimiter=",",
                       skiprows=1, usecols=4)
    metrics = _spans().layer_metrics(run["spans"])
    assert metrics["preimage.hits"] == cards.sum() > 0
