"""P1 finite-element solvers on the disc.

Stiffness matrices are assembled once per mesh and the sparse direct
factorizations (Dirichlet restriction, pinned Neumann system) are
cached on the mesh, keyed weakly so meshes can be garbage collected.
A weak identity is checked as its load vector b: `weak_residual` takes
max |b . zeta| / |grad zeta| over one block of smooth test functions.
"""

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import element_gradient, integrate

_cache = weakref.WeakKeyDictionary()
# Test functions per weak-residual check (see `weak_residual`).
TEST_FUNCTIONS = 10


def _mesh_cache(mesh):
    entry = _cache.get(mesh)
    if entry is None:
        entry = {}
        _cache[mesh] = entry
    return entry


def stiffness_matrix(mesh):
    """Assemble the P1 stiffness matrix (CSR)."""
    entry = _mesh_cache(mesh)
    if "K" not in entry:
        gx, gy, a = mesh.grad_x, mesh.grad_y, mesh.areas
        local = (
            np.einsum("ti,tj->tij", gx, gx)
            + np.einsum("ti,tj->tij", gy, gy)
        ) * a[:, None, None]
        rows = np.repeat(mesh.triangles, 3, axis=1).reshape(-1)
        cols = np.tile(mesh.triangles, (1, 3)).reshape(-1)
        K = sp.coo_matrix(
            (local.reshape(-1), (rows, cols)),
            shape=(mesh.node_count, mesh.node_count),
        ).tocsr()
        entry["K"] = K
    return entry["K"]


def lumped_mass(mesh):
    """Nodal weights w_i with sum w = polygonal area (lumped mass)."""
    entry = _mesh_cache(mesh)
    if "M" not in entry:
        entry["M"] = element_load(np.ones(mesh.triangle_count), mesh)
    return entry["M"]


def _factor(mesh, nodes):
    """Cached LU of the stiffness matrix restricted to `nodes`.

    The restriction is symmetric positive definite, so SuperLU orders
    it by minimum degree on A^T + A, pivots on the diagonal and runs in
    symmetric mode (Li, ACM TOMS 31(3), 2005): about 0.6 times the fill
    of its default column ordering.
    """
    entry = _mesh_cache(mesh)
    key = ("lu", nodes.tobytes())
    if key not in entry:
        K = stiffness_matrix(mesh)
        entry[key] = spla.splu(K[np.ix_(nodes, nodes)].tocsc(),
                               permc_spec="MMD_AT_PLUS_A",
                               diag_pivot_thresh=0.0,
                               options={"SymmetricMode": True})
    return entry[key]


def solve_pinned(b, mesh):
    """Nodal u with u = 0 at the centre node solving K u = b at every
    other node: the Neumann system, made definite by the pin."""
    idx = np.arange(1, mesh.node_count)
    u = np.zeros(mesh.node_count)
    u[idx] = _factor(mesh, idx).solve(b[idx])
    return u


def element_load(rhs, mesh):
    """Load vector for a piecewise-constant right-hand side."""
    rhs = np.asarray(rhs, dtype=float)
    b = np.zeros(mesh.node_count)
    np.add.at(b, mesh.triangles.reshape(-1),
              np.repeat(rhs * mesh.areas / 3.0, 3))
    return b


def flux_load(h, mesh):
    """Load vector b_i = integral of h . grad(zeta_i), h per element."""
    h = np.asarray(h, dtype=float)
    contrib = (
        h[:, 0, None] * mesh.grad_x + h[:, 1, None] * mesh.grad_y
    ) * mesh.areas[:, None]
    b = np.zeros(mesh.node_count)
    np.add.at(b, mesh.triangles.reshape(-1), contrib.reshape(-1))
    return b


def curl_load(h, mesh):
    """Load vector b_i = integral of h1 d2(zeta_i) - h2 d1(zeta_i).

    This is the weak form of the scalar curl d1 h2 - d2 h1 after one
    integration by parts, the flux load of (-h2, h1).
    """
    h = np.asarray(h, dtype=float)
    return flux_load(np.stack([-h[:, 1], h[:, 0]], axis=1), mesh)


@dataclass(frozen=True)
class PoissonSolution:
    f: np.ndarray
    gradient_norm: float
    max_abs: float


def solve_poisson_dirichlet(rhs, mesh):
    """Weak solution of -Laplace(f) = rhs with f = 0 on the boundary."""
    rhs = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side must be finite")
    idx = mesh.interior_nodes
    f = np.zeros(mesh.node_count)
    bi = element_load(rhs, mesh)[idx]
    fi = _factor(mesh, idx).solve(bi)
    f[idx] = fi
    # energy identity: |grad f|^2 = f^T K f = f^T b for the exact solve
    grad2 = max(float(fi @ bi), 0.0)
    return PoissonSolution(
        f=f,
        gradient_norm=float(np.sqrt(grad2)),
        max_abs=float(np.abs(f).max()),
    )


def dual_norm(rhs, mesh):
    """sup of (rhs, zeta) / |grad zeta| over discrete zeta vanishing on
    the boundary; equals |grad f| for the Dirichlet solution."""
    return solve_poisson_dirichlet(rhs, mesh).gradient_norm


def solve_gauge_neumann(h, mesh):
    """Zero-mean theta minimizing the integral of |grad(theta) + h|^2.

    Weak form: (grad theta, grad zeta) = -(h, grad zeta) for all zeta,
    the natural-boundary-condition problem.  The singular Neumann
    system is made definite by pinning the center node, then theta is
    shifted to zero area-weighted mean.
    """
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h)):
        raise ValueError("h must be finite")
    theta = solve_pinned(-flux_load(h, mesh), mesh)
    w = lumped_mass(mesh)
    theta -= (w @ theta) / w.sum()
    return theta


def gradient_l2(values, mesh):
    """L2 norm of the P1 gradient of nodal data."""
    g = element_gradient(np.asarray(values, dtype=float), mesh)
    return float(np.sqrt(integrate((g ** 2).sum(axis=1), mesh)))


@dataclass(frozen=True, eq=False)
class SmoothTestFunctions:
    """Nodal test functions zeta, one per column of `values`.

    The first TEST_FUNCTIONS // 2 columns take free boundary values;
    the last TEST_FUNCTIONS vanish on the boundary.
    """
    values: np.ndarray
    grad_norms: np.ndarray  # |grad zeta| of each column


def smooth_test_functions(mesh, seed):
    """Deterministic smooth test functions (cubic times bump).

    The TEST_FUNCTIONS functions that vanish on the boundary draw their
    coefficients from `seed`, the free ones from seed + 1.
    """
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    basis = np.stack(
        [np.ones_like(x), x, y, x * y, x ** 2 - y ** 2,
         x ** 3, y ** 3, np.sin(2 * x) * np.cos(2 * y)],
        axis=1,
    )

    def block(count, rng_seed):
        rng = np.random.default_rng(rng_seed)
        return basis @ rng.standard_normal((count, basis.shape[1])).T

    vanishing = block(TEST_FUNCTIONS, seed) * (1.0 - x ** 2 - y ** 2)[:, None]
    vanishing[mesh.boundary_mask] = 0.0
    z = np.hstack([block(TEST_FUNCTIONS // 2, seed + 1), vanishing])
    # |grad zeta|^2 = zeta^T K zeta for P1 functions
    grad2 = np.einsum("nk,nk->k", z, stiffness_matrix(mesh) @ z)
    return SmoothTestFunctions(values=z, grad_norms=np.sqrt(grad2))


def weak_residual(load, tests, boundary_zero):
    """max |load . zeta| / |grad zeta| over TEST_FUNCTIONS test functions.

    The functional zeta -> load . zeta is a weak identity's residual.
    With `boundary_zero` the functions vanish on the boundary; without,
    half of them do not, which probes a natural boundary condition too.
    """
    ratios = np.abs(load @ tests.values) / tests.grad_norms
    half = TEST_FUNCTIONS // 2
    return float(ratios[half:].max() if boundary_zero
                 else ratios[:TEST_FUNCTIONS].max())
