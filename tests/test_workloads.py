"""Every benchmark workload, run once traced as the benchmark runs it.

A counter hook of perfbench/spans.py that breaks on one workload's
calls would otherwise fail only in a traced benchmark run, so each
workload's exact argv goes once through perfbench/experiment.py with
tracing on and one BLAS thread (`run.experiment`), and its artifacts
through the workload's own check."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# run.py imports checks and spans as top-level modules
sys.path.insert(0, str(PERFBENCH))
import run  # noqa: E402


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_runs_traced(workload, tmp_path):
    record = run.experiment(workload, 7, tmp_path, traced=True)
    assert record["rc"] == 0
    assert record["error"] is None
    assert record["check_errors"] == []
    # the per-layer metrics of a traced run are formed from its spans
    assert set(run.spans.layer_metrics(record["spans"])) \
        == set(run.spans.LAYER_UNITS) - {"trace.overhead_s"}
