"""Benchmark of coulomb-lab: criterion experiments run as a user runs them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each experiment runs `coulomb_lab.cli.main`
in a fresh process with every flag given (see experiment.py); the
benchmark then checks the artifacts it wrote against closed forms
(checks.py).  Experiments repeat, one after another, until S seconds have
passed; at least one always runs.  The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics, each the median over the run's
experiments.  --trace 1 alternates untraced and traced experiments and
reports the per-layer metrics (medians over the traced ones, see
spans.py) plus `trace.overhead_s`, the traced minus the untraced median
experiment time.  Spans, records and the last artifacts are kept under
perfbench/out/<workload>/.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CAP_RHO = 0.7853981633974483  # pi/4

# Every flag each command reads is given, so that a change of the CLI's
# defaults cannot change a workload.  The sizes keep one experiment to
# a few seconds (2-core machine), so that a run holds several and
# reports their median.
WORKLOADS = {
    "holography-sweep": (
        ["holography", "--eps", "0.3,0.1,0.03", "--levels", "4,5,6",
         "--sphere-level", "4", f"--cap=-k,{CAP_RHO!r}"],
        lambda out: checks.check_holography(out, (0.3, 0.1, 0.03),
                                            CAP_RHO),
    ),
    "coarea-census": (
        ["coarea", "--eps", "0.5", "--level", "5", "--sphere-level", "3",
         "--filter-n", "64"],
        lambda out: checks.check_coarea(out, 0.5, 3),
    ),
    "frame-continuation": (
        ["frame", "--eps", "0.5", "--level", "5"],
        lambda out: checks.check_frame(out, 0.5),
    ),
    "divform-decompose": (
        ["decompose", "--eps", "0.5", "--level", "5", "--sphere-level",
         "3"],
        lambda out: checks.check_decompose(out, 5),
    ),
}

END_TO_END_UNITS = {"setup_s": "s", "experiment_s": "s", "peak_rss_mb": "MB"}

# One BLAS/OpenMP thread per experiment: steadier on a shared 2-core
# machine, and at most nproc anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# Far above any experiment (under 5 s), and short enough that a run
# that hangs still ends within three minutes.
EXPERIMENT_TIMEOUT_S = 120


class BenchmarkError(Exception):
    """The benchmark could not run an experiment at all."""


def checked(check, artifacts):
    """Failures `check` finds, counting an unreadable artifact as one."""
    try:
        return check(artifacts)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable artifact: {exc!r}"]


def experiment(workload, seed, outdir, traced):
    """Run one experiment in a fresh process; return its checked record."""
    argv, check = WORKLOADS[workload]
    artifacts = outdir / "artifacts"
    record_path = outdir / "record.json"
    shutil.rmtree(artifacts, ignore_errors=True)
    record_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "experiment.py"), repr(t0),
           str(record_path), "1" if traced else "0", *argv,
           "--seed", str(seed), "--out", str(artifacts)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=EXPERIMENT_TIMEOUT_S)
    if not record_path.exists():
        raise BenchmarkError(f"experiment process exited {proc.returncode} "
                             f"without a record:\n{proc.stderr[-3000:]}")
    record = json.loads(record_path.read_text())
    record["traced"] = traced
    record["check_errors"] = checked(check, artifacts) \
        if record["rc"] == 0 else []
    if record["rc"] != 0:
        output = record["error"] or (proc.stdout + proc.stderr)[-3000:]
        print(f"{workload}: coulomb-lab exited {record['rc']}\n{output}",
              file=sys.stderr)
    for error in record["check_errors"]:
        print(f"{workload}: check failed: {error}", file=sys.stderr)
    return record


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def run(workload, seed, seconds, trace):
    if not (SRC / "coulomb_lab" / "__init__.py").is_file():
        raise BenchmarkError(f"no coulomb_lab package under {SRC}")
    outdir = HERE / "out" / workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    # The program sees the seed only as its --seed flag.
    cli_seed = random.Random(seed).randrange(1 << 31)
    # One round is one experiment, or with tracing an untraced and a
    # traced one; rounds repeat until the run's time is up.
    round_kinds = (False, True) if trace else (False,)
    records = []
    deadline = time.monotonic() + seconds
    while not records or time.monotonic() < deadline:
        for traced in round_kinds:
            records.append(experiment(workload, cli_seed, outdir, traced))
    (outdir / "records.json").write_text(json.dumps(records))

    failed = sum(1 for r in records if r["rc"] != 0 or r["check_errors"])
    correct = not any(r["check_errors"] for r in records)
    if trace:
        traced = [r for r in records if r["traced"]]
        plain = [r for r in records if not r["traced"]]
        per_exp = [spans.layer_metrics(r["spans"]) for r in traced]
        values = {name: statistics.median(m[name] for m in per_exp)
                  for name in spans.LAYER_UNITS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (median_of(traced, "experiment_s")
                                      - median_of(plain, "experiment_s"))
        units = spans.LAYER_UNITS
    else:
        values = {name: median_of(records, name) for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload}: {len(records)} experiments attempted, {failed} "
          f"failed, checks {'pass' if correct else 'FAIL'}")
    return {"correct": correct, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
