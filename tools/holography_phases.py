"""Time and trace one level of `coulomb-lab holography`, phase by phase.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 \
        python tools/holography_phases.py LEVEL EPS

Runs the phases of `cli._holography_level` in its order, on the cap
about -k of radius pi/4 (the CLI's default cap): the mesh build, the
field sample, the holography identity (with its test function), the
stiffness matrix, the multigrid hierarchy and the Dirichlet solve of
-Laplace f = Phi.  The field is dropped after the identity, as the CLI
drops it.  For each phase it prints the wall time, the tracemalloc peak,
the traced live memory before and after, in MB, and the process's peak
RSS so far (`ru_maxrss`, in MB of 2^20 bytes as `perfbench` reports
it), which includes the imports and what tracemalloc does not see.
tracemalloc runs throughout, so the wall times include its overhead.
"""

import resource
import sys
import time
import tracemalloc

import numpy as np

from coulomb_lab import pde
from coulomb_lab.fields import sample_field
from coulomb_lab.mesh import build_disc_mesh
from coulomb_lab.preimage import holography_identity
from coulomb_lab.sphere import cap
from coulomb_lab.surfaces import enneper_gauss_closure, zeta_eps

MB = 1e6


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    level, eps = int(argv[0]), float(argv[1])
    region = cap(np.array([0.0, 0.0, -1.0]), np.pi / 4)
    rows = []

    def phase(name, run):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        start = time.perf_counter()
        result = run()
        seconds = time.perf_counter() - start
        after, peak = tracemalloc.get_traced_memory()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rows.append((name, seconds, peak / MB, live / MB, after / MB, rss))
        return result

    tracemalloc.start()
    mesh = phase("mesh", lambda: build_disc_mesh(level))
    fld = phase("field",
                lambda: sample_field(enneper_gauss_closure(eps), mesh))
    rep = phase("identity", lambda: holography_identity(
        fld, region, zeta_eps(eps, mesh)))
    del fld
    phase("stiffness", lambda: pde.stiffness_matrix(mesh))
    phase("multigrid", lambda: pde._multigrid(mesh))
    sol = phase("solve", lambda: pde.solve_poisson_dirichlet(rep.phi, mesh))
    tracemalloc.stop()

    print(f"level {level}, eps {eps:g}: {mesh.triangle_count} triangles, "
          f"{sol.iterations} CG iterations")
    print("| phase | wall s | traced peak MB | live before → after MB "
          "| peak RSS MB |")
    print("| --- | --- | --- | --- | --- |")
    for name, seconds, peak, before, after, rss in rows:
        print(f"| {name} | {seconds:.2f} | {peak:.0f} | "
              f"{before:.0f} → {after:.0f} | {rss:.0f} |")


if __name__ == "__main__":
    main(sys.argv[1:])
