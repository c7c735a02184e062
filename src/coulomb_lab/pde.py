"""P1 finite-element solvers on the disc.

Stiffness matrices are assembled once per mesh and cached on it, keyed
weakly so meshes can be garbage collected, with the solvers built from
them.  The Dirichlet problem is solved by conjugate gradients
preconditioned by one multigrid V-cycle: the coarse operators are
Galerkin products P^T A P with the ring `prolongation` of `mesh`, two
damped-Jacobi sweeps on either side of the coarse correction keep the
cycle symmetric, and the coarsest level (16 rings, mesh level 3) is a
sparse LU, so a mesh at or below level 3 is that direct solve.
The pinned Neumann system keeps a sparse LU, which `frames` reuses for
many right-hand sides.  A weak identity is checked as its load vector
b: `weak_residual` takes max |b . zeta| / |grad zeta| over one block of
smooth test functions.
"""

import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import element_gradient, integrate, prolongation

_cache = weakref.WeakKeyDictionary()
# Test functions per weak-residual check (see `weak_residual`).
TEST_FUNCTIONS = 10
# Ring count of the coarsest multigrid level, solved by LU (level 3).
COARSEST_RINGS = 16
# Damped-Jacobi weight of the V-cycle's smoother.
JACOBI_WEIGHT = 2.0 / 3.0
# CG stops when |b - K f| <= CG_RTOL |b|.
CG_RTOL = 1e-10


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


def _spd_lu(A):
    """LU of a symmetric positive definite matrix.

    SuperLU orders it by minimum degree on A^T + A, pivots on the
    diagonal and runs in symmetric mode (Li, ACM TOMS 31(3), 2005):
    about 0.6 times the fill of its default column ordering.
    """
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def _pinned_factor(mesh):
    """Cached LU of the stiffness matrix without the centre node."""
    entry = _mesh_cache(mesh)
    if "pinned" not in entry:
        entry["pinned"] = _spd_lu(stiffness_matrix(mesh)[1:, 1:])
    return entry["pinned"]


def solve_pinned(b, mesh):
    """Nodal u with u = 0 at the centre node solving K u = b at every
    other node: the Neumann system, made definite by the pin."""
    u = np.zeros(mesh.node_count)
    u[1:] = _pinned_factor(mesh).solve(b[1:])
    return u


def _multigrid(mesh):
    """Cached Dirichlet restriction A and its V-cycle preconditioner.

    Each level holds its operator, its Jacobi scaling and the
    prolongation from the next coarser level.  The interior nodes of a
    ring mesh are a prefix of its nodes, so each level keeps the leading
    block of the full operators.
    """
    entry = _mesh_cache(mesh)
    if "mg" not in entry:
        m = mesh.rings
        n = mesh.interior_nodes.size
        fine = A = stiffness_matrix(mesh)[:n, :n]
        levels = []
        while m > COARSEST_RINGS:
            P = prolongation(m)
            nc = P.shape[1] - 3 * m  # less the 6 (m / 2) boundary nodes
            P = P[:n, :nc]
            levels.append((A, JACOBI_WEIGHT / A.diagonal(), P))
            A = (P.T @ A @ P).tocsr()
            m, n = m // 2, nc
        # a given dtype spares the V-cycle that would infer it
        entry["mg"] = (fine, spla.LinearOperator(
            fine.shape, matvec=partial(_v_cycle, levels, _spd_lu(A)),
            dtype=float))
    return entry["mg"]


def _v_cycle(levels, coarsest, r):
    """One V-cycle on A x = r from x = 0: two damped-Jacobi sweeps, the
    coarse correction, then two more sweeps.  The sweeps after mirror
    those before, so the cycle is a symmetric operator, as CG needs."""
    if not levels:
        return coarsest.solve(r)
    A, dinv, P = levels[0]
    x = dinv * r
    x += dinv * (r - A @ x)
    x += P @ _v_cycle(levels[1:], coarsest, P.T @ (r - A @ x))
    for _ in range(2):
        x += dinv * (r - A @ x)
    return x


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
    """A Dirichlet solve and what its stopping rule left.

    gradient_norm : |grad f| of the exact discrete solution, the dual
        norm sup (rhs, zeta) / |grad zeta| over discrete zeta vanishing
        on the boundary, to second order in the CG error
    iterations    : CG iterations taken
    residual      : |b - K f| / |b| over the interior nodes
    """
    f: np.ndarray
    gradient_norm: float
    max_abs: float
    iterations: int
    residual: float


def solve_poisson_dirichlet(rhs, mesh):
    """Weak solution of -Laplace(f) = rhs with f = 0 on the boundary."""
    rhs = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side must be finite")
    A, v_cycle = _multigrid(mesh)
    n = A.shape[0]
    bi = element_load(rhs, mesh)[:n]
    steps = []
    fi, info = spla.cg(A, bi, rtol=CG_RTOL, atol=0.0, M=v_cycle,
                       callback=steps.append)
    if info != 0:
        raise ArithmeticError(f"CG stopped unconverged (info {info})")
    r = bi - A @ fi
    bnorm = float(np.linalg.norm(bi))
    f = np.zeros(mesh.node_count)
    f[:n] = fi
    # energy: with error e = K^-1 b - f and r = K e, b^T K^-1 b equals
    # f^T (b + r) + e^T K e, so f^T (b + r) is off only to second order
    grad2 = max(float(fi @ (bi + r)), 0.0)
    return PoissonSolution(
        f=f,
        gradient_norm=float(np.sqrt(grad2)),
        max_abs=float(np.abs(f).max()),
        iterations=len(steps),
        residual=float(np.linalg.norm(r)) / bnorm if bnorm else 0.0,
    )


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
