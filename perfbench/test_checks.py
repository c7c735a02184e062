"""Tests of the benchmark's own checks and span arithmetic.

Each check must accept an artifact built from the closed forms and
reject one with a single deliberate fault, so that no check is vacuous.
Run with `python -m pytest perfbench`.
"""

import json
import math
from pathlib import Path

import pytest

import checks
import run
import spans

ROOT = Path(__file__).resolve().parent.parent


def write(outdir, values, info, table, rows):
    """summary.json with checks `values` and `info`, plus one CSV."""
    outdir.mkdir(exist_ok=True)
    summary = {"checks": [{"name": k, "value": v} for k, v in values.items()],
               "info": info}
    (outdir / "summary.json").write_text(json.dumps(summary))
    header = list(rows[0])
    lines = [",".join(header)]
    lines += [",".join(repr(r[k]) for k in header) for r in rows]
    (outdir / table).write_text("\n".join(lines) + "\n")


EPS = (0.3, 0.1, 0.03)
RHO = math.pi / 4


def holography(outdir, raw_shift=1.0, residual=1e-6, mu_shift=1.0,
               dual_shift=1.0, reverse=False):
    mu = 2.0 * math.pi * (1.0 - math.cos(RHO))
    eps_list = EPS[::-1] if reverse else EPS
    rows = [{"eps": e, "mu": mu * mu_shift,
             "raw_term": -checks.delta(e) * (1.001 if i else raw_shift),
             "corrected_residual": residual}
            for i, e in enumerate(eps_list)]
    values = {f"dual_norm_eps_{e:g}": checks.delta(e) * dual_shift
              for e in EPS}
    write(outdir, values, {}, "holography.csv", rows)
    return checks.check_holography(outdir, eps_list, RHO)


def coarea(outdir, flip_sign=False, card_above=0, lhs_shift=1.0):
    level, eps = 2, 0.5
    count = 20 * 4 ** level
    edge = (1.0 - eps ** 2) / (1.0 + eps ** 2)
    rows = []
    for q in range(count):  # Fibonacci points on the sphere
        z = 1.0 - (2.0 * q + 1.0) / count
        r, a = math.sqrt(1.0 - z * z), q * math.pi * (3.0 - math.sqrt(5.0))
        card = 1 if z < edge else card_above
        rows.append({"node": q, "n1": r * math.cos(a), "n2": r * math.sin(a),
                     "n3": z, "card": card, "signed_sum": -card,
                     "accepted": 1})
    if flip_sign:
        rows[-1]["signed_sum"] = rows[-1]["card"]
    info = {"lhs": lhs_shift * 4.0 * math.pi / (1.0 + eps ** 2)}
    write(outdir, {}, info, "coarea.csv", rows)
    return checks.check_coarea(outdir, eps, level)


def frame(outdir, f_shift=1.0, halving=2.5, orth=1e-14, last_lambda=1.0):
    eps = 0.5
    values = {"orthonormality_defect": orth, "tangency_defect": 1e-15,
              "residual_halving_1": 3.0, "residual_halving_2": halving,
              "f_max": f_shift * abs(math.log(eps ** 2 / (1 + eps ** 2)))}
    lams = [0.0625 * k for k in range(1, 16)] + [last_lambda]
    write(outdir, values, {}, "frame_log.csv", [{"lambda": x} for x in lams])
    return checks.check_frame(outdir, eps)


def decompose(outdir, positive_phi=False, slack=0.5, residual=0.01,
              ratio=3.0):
    level = 0
    rows = [{"element": t, "phi": -1.0, "bound_slack": 0.5}
            for t in range(6 * 4 ** (level + 1))]
    rows[3]["bound_slack"] = slack
    if positive_phi:
        rows[5]["phi"] = 0.25
    values = {"weak_residual": residual, "residual_refinement_ratio": ratio}
    write(outdir, values, {}, "divform.csv", rows)
    return checks.check_decompose(outdir, level)


@pytest.mark.parametrize("make", [holography, coarea, frame, decompose])
def test_closed_form_artifacts_pass(tmp_path, make):
    assert make(tmp_path) == []


@pytest.mark.parametrize("make, fault", [
    (holography, {"raw_shift": 1.06}),
    (holography, {"raw_shift": 0.94}),
    (holography, {"dual_shift": 1.06}),
    (holography, {"residual": 2e-4}),
    (holography, {"mu_shift": 1.001}),
    (holography, {"reverse": True}),
    (coarea, {"flip_sign": True}),
    (coarea, {"card_above": 1}),
    (coarea, {"lhs_shift": 0.97}),
    (frame, {"f_shift": 1.03}),
    (frame, {"halving": 1.9}),
    (frame, {"orth": 1e-9}),
    (frame, {"last_lambda": 0.99}),
    (decompose, {"positive_phi": True}),
    (decompose, {"slack": -1e-3}),
    (decompose, {"residual": 0.06}),
    (decompose, {"ratio": 1.4}),
])
def test_faulty_artifact_is_rejected(tmp_path, make, fault):
    assert make(tmp_path, **fault)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_missing_artifacts_are_a_failure(tmp_path, workload):
    _, check = run.WORKLOADS[workload]
    assert run.checked(check, tmp_path)


def test_delta_matches_known_value():
    # Delta(1)^2 = 4 pi (log 2 - 1/2)
    assert checks.delta(1.0) ** 2 == pytest.approx(
        4.0 * math.pi * (math.log(2.0) - 0.5), rel=1e-15)


def span(name, parent, start, end, **counters):
    return {"name": name, "parent": parent, "start": start, "end": end,
            "peak0_mb": 100.0, "peak1_mb": 100.0, **counters}


def test_layer_metrics_self_times_and_ratios():
    trace = [
        span("cli", None, 0.0, 10.0),
        span("frames.continuation", 0, 1.0, 9.0, steps=2),
        span("fields.sample", 1, 1.0, 2.0),     # lambda = 0
        span("fields.sample", 1, 2.0, 3.0),     # rejected step
        span("fields.sample", 1, 3.0, 4.0),
        span("pde.solve", 1, 4.0, 5.0, first=True),
        span("fields.sample", 1, 5.0, 6.0),
        span("pde.solve", 1, 6.0, 6.5, first=False),
    ]
    trace[5]["peak1_mb"] = 140.0
    m = spans.layer_metrics(trace)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["frames.continuation_self_s"] == pytest.approx(2.5)
    assert m["fields.sample_s"] == pytest.approx(4.0)
    assert m["fields.samples"] == 4
    assert m["pde.first_solve_s"] == pytest.approx(1.0)
    assert m["pde.first_solve_peak_mb"] == pytest.approx(40.0)
    assert (m["pde.solve_s"], m["pde.solves"]) == (pytest.approx(0.5), 1)
    assert m["frames.step_accept_ratio"] == pytest.approx(2 / 3)
    assert set(m) | {"trace.overhead_s"} == set(spans.LAYER_UNITS)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == spans.LAYER_UNITS
