"""P1 finite-element solvers on the disc.

Stiffness matrices are assembled once per mesh, in bands of rings so
that the assembly holds little more than K itself, and cached on the
mesh, keyed weakly so meshes can be garbage collected, with the solvers
built from them.  The Dirichlet and the Neumann problem are both solved
by the package's own conjugate gradients (scipy's `cg` arithmetic, step
for step) preconditioned by one multigrid V-cycle of one cached
hierarchy:
the coarse operators are Galerkin products R K P of the whole
stiffness matrix with the ring `prolongation` P of `mesh` and its
restriction R = P^T, formed in bands of coarse rows as P is in bands
of fine rings, so that the hierarchy's build too holds little more
than what it keeps; two damped-Jacobi sweeps on either side of the
coarse correction keep the cycle symmetric, and the coarsest level
(8 rings, mesh level 2) is solved by a dense inverse, so a mesh at or
below level 2 is that direct solve.  Each boundary condition's
coarsest inverse is formed when that condition is first solved on the
mesh.
The Dirichlet cycle keeps the boundary entries at 0, so it reads the
leading interior blocks of the operators.  The Neumann cycle reads the
whole operators, and its coarsest solve pins the centre node and
projects out the constant on both sides (Bochev & Lehoucq, SIAM Rev.
47(1), 2005), the pseudo-inverse of the singular coarse operator.  A
weak identity is checked as its load vector b: `weak_residual` takes
max |b . zeta| / |grad zeta| over one block of smooth test functions.
"""

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import element_gradient, integrate, prolongation, ring_offsets

_cache = weakref.WeakKeyDictionary()
# Test functions per weak-residual check (see `weak_residual`).
TEST_FUNCTIONS = 10
# Ring count of the coarsest multigrid level (level 2), solved by a
# dense inverse: 169 interior nodes, or 216 pinned at the centre.
COARSEST_RINGS = 8
# Damped-Jacobi weight of the V-cycle's smoother.
JACOBI_WEIGHT = 2.0 / 3.0
# CG stops when |b - K f| <= CG_RTOL |b|.
CG_RTOL = 1e-10
# Triangles per band of the stiffness assembly: a mesh up to level 5
# (24576 triangles) is one band.
ASSEMBLY_TRIANGLES = 1 << 15
# Coarse rows per band of the Galerkin products: a mesh up to level 5
# (3169 coarse rows in its first product) forms each in one band.
GALERKIN_ROWS = 1 << 13


def _band(mesh, t, lo, hi):
    """The CSR block of rows lo..hi-1 that the triangles of the slice
    `t` assemble: their local matrices summed in triangle order, with
    int32 COO indices."""
    gx, gy = mesh.grad_x[t], mesh.grad_y[t]
    local = np.einsum("ti,tj->tij", gx, gx)
    local += np.einsum("ti,tj->tij", gy, gy)
    local *= mesh.areas[t, None, None]
    tri = mesh.triangles[t].astype(np.int32)
    return sp.coo_matrix(
        (local.reshape(-1),
         (np.repeat(tri - lo, 3, axis=1).reshape(-1),
          np.tile(tri, (1, 3)).reshape(-1))),
        shape=(hi - lo, mesh.node_count),
    ).tocsr()


def stiffness_matrix(mesh):
    """Assemble the P1 stiffness matrix (CSR).

    K is assembled in bands of rings (`_band`), each copied into one
    preallocated CSR and dropped before the next is built, so that the
    9 local entries per triangle are held for at most about
    ASSEMBLY_TRIANGLES triangles at a time, beside K.  The rows of
    rings r0..r1-1 meet only strips max(r0, 1)..min(r1, m), a
    contiguous range of triangles (`ring_offsets`).  A band sums all
    local entries of those triangles, in triangle order, into the rows
    of rings r0-1..r1, and keeps the rows of its own rings, which meet
    no other triangle.  So each row sums the entries of the one-shot
    assembly in the same order, and K is the same to the bit.  Row i
    holds node i and its neighbours, so K's size is known before the
    first band from the sum of the node valences.  The indices are
    int32, the index type of the CSR: `build_disc_mesh` keeps the node
    count far below 2^31, and scipy would otherwise copy int64 indices
    down to int32 before the conversion.
    """
    entry = _cache.setdefault(mesh, {})
    if "K" not in entry:
        m = mesh.rings
        node, strip = ring_offsets(m)
        # the valences sum to twice the edges, 3 nt + 6 m: an interior
        # edge lies in two triangles, each of the 6 m boundary edges in
        # one
        nnz = mesh.node_count + 3 * mesh.triangle_count + 6 * m
        indptr = np.zeros(mesh.node_count + 1, dtype=np.int32)
        r0 = 0
        while r0 <= m:
            first = strip[max(r0, 1) - 1]
            # the most rings whose strips fit in the band, at least one
            r1 = int(np.searchsorted(strip, first + ASSEMBLY_TRIANGLES,
                                     "right")) - 1
            r1 = m + 1 if r1 >= m else max(r1, r0 + 1)
            # Python ints, so that tri - lo stays int32
            lo, hi = int(node[max(r0 - 1, 0)]), int(node[min(r1 + 1, m + 1)])
            band = _band(mesh, slice(first, strip[min(r1, m)]), lo, hi)
            if not r0:
                # after the first band, so that they can take the memory
                # its temporaries left
                data = np.empty(nnz)
                indices = np.empty(nnz, dtype=np.int32)
            # the band's rows of rings r0..r1-1 fill those rows of K
            ptr = band.indptr[node[r0] - lo:node[r1] - lo + 1]
            start = indptr[node[r0]]
            rows = slice(start, start + ptr[-1] - ptr[0])
            data[rows] = band.data[ptr[0]:ptr[-1]]
            indices[rows] = band.indices[ptr[0]:ptr[-1]]
            indptr[node[r0] + 1:node[r1] + 1] = ptr[1:] - ptr[0] + start
            del band
            r0 = r1
        if indptr[-1] != nnz:
            raise RuntimeError("stiffness matrix rows do not match the "
                               "ring mesh's valences")
        entry["K"] = sp.csr_matrix((data, indices, indptr),
                                   shape=(mesh.node_count, mesh.node_count))
    return entry["K"]


def lumped_mass(mesh):
    """Nodal weights w_i with sum w = polygonal area (lumped mass)."""
    entry = _cache.setdefault(mesh, {})
    if "M" not in entry:
        entry["M"] = element_load(np.ones(mesh.triangle_count), mesh)
    return entry["M"]


def _galerkin(A, P):
    """The Galerkin product P^T A P (CSR), in bands of at most
    GALERKIN_ROWS coarse rows.

    A band of R = P^T is a slice of P's CSC columns, read as CSR rows.
    Each band's R A is sorted before it is multiplied by P, and the
    product sorted, so that every entry sums its terms in the order of
    the one-shot (P.T @ A @ P).tocsr(), which multiplies in CSC: the
    operator is the same to the bit.  The bands' arrays are joined once
    all are built, so the product holds the operator twice at most,
    besides one band's temporaries, and never the one-shot's CSC copies
    of A and P or its whole R A.
    """
    Pc = P.tocsc()
    fine, coarse = P.shape
    indptr = np.zeros(coarse + 1, dtype=np.int32)
    indices, data = [], []
    for c0 in range(0, coarse, GALERKIN_ROWS):
        c1 = min(c0 + GALERKIN_ROWS, coarse)
        lo, hi = Pc.indptr[c0], Pc.indptr[c1]
        R = sp.csr_matrix((Pc.data[lo:hi], Pc.indices[lo:hi],
                           Pc.indptr[c0:c1 + 1] - lo), shape=(c1 - c0, fine))
        RA = R @ A
        RA.sort_indices()
        band = RA @ P
        del RA
        band.sort_indices()
        indptr[c0 + 1:c1 + 1] = band.indptr[1:] + indptr[c0]
        indices.append(band.indices)
        data.append(band.data)
    del Pc  # before the join
    return sp.csr_matrix((np.concatenate(data), np.concatenate(indices),
                          indptr), shape=(coarse, coarse))


def _multigrid(mesh):
    """Cached Galerkin hierarchy of the full stiffness matrix: the
    levels, the coarsest operator and its interior node count.

    Each level holds its operator, its Jacobi scaling, the prolongation
    P from the next coarser level, the restriction R = P^T (one CSC
    view of P's arrays, kept so that no cycle builds it again) and its
    interior node count.  P is built in bands of fine rings
    (`prolongation`) and each coarse operator in bands of coarse rows
    (`_galerkin`), both the same to the bit as their one-shot forms, so
    the hierarchy's build holds little more than the arrays it keeps.
    The interior nodes of a ring mesh are a prefix of its nodes, and no
    interior coarse column of `prolongation` reaches a boundary fine
    row, so the leading interior block of each coarse operator is the
    Galerkin operator of the Dirichlet restriction.
    """
    entry = _cache.setdefault(mesh, {})
    if "mg" not in entry:
        m = mesh.rings
        n = mesh.interior_nodes.size
        A = stiffness_matrix(mesh)
        levels = []
        while m > COARSEST_RINGS:
            P = prolongation(m)
            levels.append((A, JACOBI_WEIGHT / A.diagonal(), P, P.T, n))
            A = _galerkin(A, P)
            m, n = m // 2, P.shape[1] - 3 * m  # less 6 (m / 2) boundary
        entry["mg"] = (levels, A, n)
    return entry["mg"]


def _coarsest_inverse(mesh, dirichlet):
    """The dense inverse Z of the coarsest level's system for one
    boundary condition: its interior block, or for Neumann the system
    pinned at the centre node.  Z is symmetrised as (Z + Z^T) / 2, so
    that it is exactly symmetric and the V-cycle a symmetric operator.
    Each is formed the first time its condition is solved on the mesh,
    since many meshes solve one boundary condition only."""
    entry = _cache.setdefault(mesh, {})
    key = ("inverse", dirichlet)
    if key not in entry:
        _, A, n = _multigrid(mesh)
        Z = np.linalg.inv((A[:n, :n] if dirichlet else A[1:, 1:]).toarray())
        entry[key] = 0.5 * (Z + Z.T)
    return entry[key]


def _v_cycle(levels, Z, nc, dirichlet, r):
    """One V-cycle on K x = r from x = 0: two damped-Jacobi sweeps, the
    coarse correction, then two more sweeps.  The sweeps after mirror
    those before, so the cycle is a symmetric operator, as CG needs.
    For the Dirichlet problem each sweep keeps the boundary entries of
    x at 0, so the cycle reads only the interior entries of r.
    The coarsest level is solved by its inverse `Z`: for Dirichlet on
    its `nc` interior entries; for Neumann as Q Z Q r, with Z the
    inverse of the system pinned at the centre node and Q the
    projection out of the constants, the symmetric pseudo-inverse of
    the coarse operator."""
    if not levels:
        x = np.zeros_like(r)
        if dirichlet:
            x[:nc] = Z @ r[:nc]
            return x
        x[1:] = Z @ (r[1:] - r.mean())
        return x - x.mean()
    A, dinv, P, R, n = levels[0]
    if not dirichlet:
        n = r.size
    x = dinv * r
    x[n:] = 0.0
    x += dinv * (r - A @ x)
    x[n:] = 0.0
    x += P @ _v_cycle(levels[1:], Z, nc, dirichlet, R @ (r - A @ x))
    for _ in range(2):
        x += dinv * (r - A @ x)
        x[n:] = 0.0
    return x


def _cg(mesh, b, dirichlet):
    """CG on K x = b to |b - K x| < CG_RTOL |b|, preconditioned by one
    V-cycle; returns x and the iterations taken.  For the Dirichlet
    problem K's boundary rows are zeroed, the operator on vectors that
    vanish on the boundary.  The arithmetic is scipy's `cg`, step for
    step (Hestenes & Stiefel, J. Res. NBS 49(6), 1952).  A non-finite
    r.z or p.Kp raises ArithmeticError at once: the stopping test
    never holds for a NaN residual."""
    K = stiffness_matrix(mesh)
    levels, _, nc = _multigrid(mesh)
    Z = _coarsest_inverse(mesh, dirichlet)
    n = mesh.interior_nodes.size if dirichlet else b.size
    bnorm = np.linalg.norm(b)
    x, r = np.zeros_like(b), b.copy()
    if bnorm == 0.0:
        return x, 0
    for iteration in range(10 * b.size):
        if np.linalg.norm(r) < CG_RTOL * bnorm:
            return x, iteration
        z = _v_cycle(levels, Z, nc, dirichlet, r)
        rho = np.dot(r, z)
        if iteration:
            p *= rho / rho_prev
            p += z
        else:
            p = z
        q = K @ p
        q[n:] = 0.0
        pq = np.dot(p, q)
        if not (np.isfinite(rho) and np.isfinite(pq)):
            raise ArithmeticError(f"CG met a non-finite value at iteration "
                                  f"{iteration}")
        alpha = rho / pq
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    raise ArithmeticError(f"CG unconverged after {10 * b.size} iterations")


def solve_neumann(b, mesh):
    """Nodal u solving K u = b - mean(b), determined up to a constant:
    the natural-boundary-condition problem, for a load b that sums to
    zero up to rounding."""
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("load must be finite")
    u, _ = _cg(mesh, b - b.mean(), dirichlet=False)
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
    K = stiffness_matrix(mesh)
    n = mesh.interior_nodes.size
    b = element_load(rhs, mesh)
    b[n:] = 0.0
    f, iterations = _cg(mesh, b, dirichlet=True)
    r = b - K @ f
    r[n:] = 0.0
    bnorm = float(np.linalg.norm(b))
    # energy: with error e = K^-1 b - f and r = K e, b^T K^-1 b equals
    # f^T (b + r) + e^T K e, so f^T (b + r) is off only to second order
    grad2 = max(float(f @ (b + r)), 0.0)
    return PoissonSolution(
        f=f,
        gradient_norm=float(np.sqrt(grad2)),
        max_abs=float(np.abs(f).max()),
        iterations=iterations,
        residual=float(np.linalg.norm(r)) / bnorm if bnorm else 0.0,
    )


def solve_gauge_neumann(h, mesh):
    """Zero-mean theta minimizing the integral of |grad(theta) + h|^2.

    Weak form: (grad theta, grad zeta) = -(h, grad zeta) for all zeta,
    the natural-boundary-condition problem (`solve_neumann`), whose
    solution is shifted to zero area-weighted mean.
    """
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h)):
        raise ValueError("h must be finite")
    theta = solve_neumann(-flux_load(h, mesh), mesh)
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
