"""Run one coulomb-lab experiment in a fresh process and record its cost.

    python3 perfbench/experiment.py T0 RECORD TRACE CLI-ARG...

T0 is the parent's `time.monotonic()` taken just before it started this
process (the clock is system-wide on Linux), so `setup_s` covers the
interpreter start and the numpy, scipy and coulomb_lab imports.  The
experiment is `coulomb_lab.cli.main(CLI-ARG...)`.  With TRACE = 1 the
calls into the package's layers are wrapped (see spans.py) after the
set-up is timed.  The record (times, exit code, peak RSS, spans) is
written as JSON to RECORD; a failed import writes none.
"""

import sys
import time

T0 = float(sys.argv[1])

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401
import coulomb_lab  # noqa: E402,F401
from coulomb_lab import cli  # noqa: E402

SETUP_S = time.monotonic() - T0


def main():
    record_path, traced, argv = sys.argv[2], sys.argv[3] == "1", sys.argv[4:]
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    error = None
    start = time.monotonic()
    try:
        rc = cli.main(argv)
    except Exception:  # the program's fault: report it as a failed run
        rc, error = 1, traceback.format_exc()
    experiment_s = time.monotonic() - start
    record = {
        "setup_s": SETUP_S,
        "experiment_s": experiment_s,
        "rc": rc,
        "error": error,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else None,
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
