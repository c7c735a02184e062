import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from coulomb_lab import pde
from coulomb_lab.mesh import (build_disc_mesh, element_gradient, integrate,
                              prolongation)
from coulomb_lab.pde import (CG_RTOL, TEST_FUNCTIONS, _cache, _cg,
                             _coarsest_inverse, _multigrid, _v_cycle,
                             element_load, flux_load, gradient_l2,
                             lumped_mass, smooth_test_functions,
                             solve_gauge_neumann, solve_neumann,
                             solve_poisson_dirichlet, stiffness_matrix,
                             weak_residual)


@pytest.fixture(scope="module")
def mesh():
    return build_disc_mesh(5)


def centroids(mesh):
    return mesh.nodes[mesh.triangles].mean(axis=1)


def test_stiffness_energy_identity(mesh):
    # z^T K z equals the integral of |grad z|^2
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    z = x * y + 0.5 * x
    K = stiffness_matrix(mesh)
    assert float(z @ (K @ z)) == pytest.approx(
        gradient_l2(z, mesh) ** 2, rel=1e-12
    )


@pytest.mark.parametrize("level", range(8))
def test_stiffness_matrix_matches_int64_assembly(level):
    # the ring bands with int32 COO indices leave K as the one-shot
    # int64 assembly built it, to the bit; levels 0-5 are one band, and
    # levels 6 and 7 end in a ragged band
    mesh = build_disc_mesh(level)
    K = stiffness_matrix(mesh)
    local = (np.einsum("ti,tj->tij", mesh.grad_x, mesh.grad_x)
             + np.einsum("ti,tj->tij", mesh.grad_y, mesh.grad_y)
             ) * mesh.areas[:, None, None]
    ref = sp.coo_matrix(
        (local.reshape(-1),
         (np.repeat(mesh.triangles, 3, axis=1).reshape(-1),
          np.tile(mesh.triangles, (1, 3)).reshape(-1))),
        shape=K.shape).tocsr()
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(K, name), getattr(ref, name))
        assert getattr(K, name).dtype == getattr(ref, name).dtype


def test_stiffness_assembly_memory_is_banded():
    # the traced rise of the level-6 assembly stays within 4 times K's
    # own bytes: 3.2 measured, against 7.0 for the one-shot assembly
    mesh = build_disc_mesh(6)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        K = stiffness_matrix(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 4 * (K.data.nbytes + K.indices.nbytes
                               + K.indptr.nbytes)


def test_stiffness_assembly_memory_at_level_seven():
    # each band is copied into K's preallocated arrays and dropped, so
    # the level-7 rise stays near K's own bytes: 1.59 measured, against
    # 2.07 when the bands were joined by sp.vstack at the end
    mesh = build_disc_mesh(7)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        K = stiffness_matrix(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 1.8 * (K.data.nbytes + K.indices.nbytes
                                 + K.indptr.nbytes)


def test_lumped_mass_total(mesh):
    w = lumped_mass(mesh)
    assert w.sum() == pytest.approx(mesh.area, rel=1e-12)
    assert w.min() > 0


def test_poisson_manufactured_solution(mesh):
    # f = (1 - |X|^2) / 4 solves -Laplace f = 1, f = 0 on the boundary
    sol = solve_poisson_dirichlet(np.ones(mesh.triangle_count), mesh)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    exact = 0.25 * (1.0 - x ** 2 - y ** 2)
    assert np.abs(sol.f - exact).max() < 2e-4
    assert sol.max_abs == pytest.approx(0.25, abs=2e-4)


def test_poisson_convergence():
    errs = []
    for level in (3, 4):
        mesh = build_disc_mesh(level)
        sol = solve_poisson_dirichlet(np.ones(mesh.triangle_count), mesh)
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        errs.append(np.abs(sol.f - 0.25 * (1 - x ** 2 - y ** 2)).max())
    assert errs[1] < errs[0] / 3


def dual_norm(rhs, mesh):
    return solve_poisson_dirichlet(rhs, mesh).gradient_norm


def lu_oracle(rhs, mesh):
    """The Dirichlet solution f and sqrt(b^T K^-1 b) by a sparse LU."""
    idx = mesh.interior_nodes
    K = stiffness_matrix(mesh)[np.ix_(idx, idx)].tocsc()
    b = element_load(rhs, mesh)[idx]
    f = np.zeros(mesh.node_count)
    f[idx] = spla.splu(K).solve(b)
    return f, np.sqrt(f[idx] @ b)


def test_dual_norm_oracle(mesh):
    # dual norm of rhs = 1: f = (1-|X|^2)/4, |grad f|^2 = pi/8
    val = dual_norm(np.ones(mesh.triangle_count), mesh)
    assert val == pytest.approx(np.sqrt(np.pi / 8.0), rel=1e-3)


def test_dual_norm_matches_dense_solve():
    mesh = build_disc_mesh(3)
    cx, cy = centroids(mesh).T
    rhs = np.cos(3.0 * cx) * cy + cx
    idx = mesh.interior_nodes
    K = stiffness_matrix(mesh).toarray()[np.ix_(idx, idx)]
    b = element_load(rhs, mesh)[idx]
    expected = np.sqrt(b @ np.linalg.solve(K, b))
    assert dual_norm(rhs, mesh) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("level", [4, 5, 6, 7])
def test_cg_iterations_stay_flat(level):
    # the V-cycle makes CG's iteration count independent of the level
    # (8 measured at levels 3-7 with the symmetric cycle and an 8-ring
    # coarsest level, 9 at level 8)
    mesh = build_disc_mesh(level)
    cx, cy = centroids(mesh).T
    sol = solve_poisson_dirichlet(1.0 + np.cos(3.0 * cx) * cy, mesh)
    assert sol.iterations <= 12
    assert sol.residual <= 1e-10


@functools.cache
def mesh_at(level):
    return build_disc_mesh(level)


def v_cycle(mesh, dirichlet):
    """The preconditioner of `_cg`, r -> one V-cycle on r."""
    levels, _, nc = _multigrid(mesh)
    return functools.partial(_v_cycle, levels,
                             _coarsest_inverse(mesh, dirichlet), nc,
                             dirichlet)


@pytest.mark.parametrize("level", [5, 6])
def test_v_cycle_is_symmetric(level):
    # CG's theory needs a symmetric preconditioner; measured 8e-16 and
    # 1.9e-15 here, and 1.7e-5 and 2.4e-3 with one sweep before the
    # coarse correction and two after
    mesh = mesh_at(level)
    M = v_cycle(mesh, dirichlet=True)
    x, y = np.random.default_rng(level).standard_normal((2, mesh.node_count))
    xMy = x @ M(y)
    assert abs(xMy - y @ M(x)) <= 1e-12 * abs(xMy)


@pytest.mark.parametrize("level", [5, 6])
def test_neumann_v_cycle_is_symmetric(level):
    # the same bound for the cycle on the whole operators, whose
    # coarsest solve projects out the constant on both sides
    mesh = mesh_at(level)
    M = v_cycle(mesh, dirichlet=False)
    x, y = np.random.default_rng(level).standard_normal((2, mesh.node_count))
    xMy = x @ M(y)
    assert abs(xMy - y @ M(x)) <= 1e-12 * abs(xMy)


@settings(max_examples=40, deadline=None)
@given(level=st.integers(0, 6), dirichlet=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_v_cycle_is_symmetric_on_random_draws(level, dirichlet, seed):
    # CG's theory needs a symmetric preconditioner M.  The gap is
    # bounded relative to |x| |My|, which a draw with x^T M y near 0
    # cannot fail; at levels 0-2 the cycle is the coarsest solve alone.
    # Measured at most 1.6e-16 over 30 draws per level 0-5 and
    # condition, 10 at level 6; one sweep before the coarse correction
    # and two after gave 1.7e-5 and 2.4e-3 relative to x^T M y at
    # levels 5 and 6.
    mesh = mesh_at(level)
    M = v_cycle(mesh, dirichlet)
    x, y = np.random.default_rng(seed).standard_normal((2, mesh.node_count))
    My = M(y)
    gap = abs(x @ My - y @ M(x))
    assert gap <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(My)


def cg_load(mesh, dirichlet, seed):
    """A load of either problem: the interior load of a smooth rhs, or
    a zero-sum gauge load."""
    if not dirichlet:
        b = gauge_load(mesh, seed)
        return b - b.mean()
    x, y = centroids(mesh).T
    b = element_load(1.0 + np.cos(3.0 * x) * y, mesh)
    b[mesh.interior_nodes.size:] = 0.0
    return b


@pytest.mark.parametrize("dirichlet", [True, False])
@pytest.mark.parametrize("level", [4, 5, 6])
def test_cg_matches_scipy_bit_for_bit(level, dirichlet):
    # scipy's cg on LinearOperators of the same operator and the same
    # V-cycle is the oracle: `_cg` repeats its arithmetic step for step,
    # so x and the iteration count are equal, not close
    mesh = mesh_at(level)
    K = stiffness_matrix(mesh)
    n = mesh.interior_nodes.size if dirichlet else mesh.node_count

    def interior_rows(x):
        y = K @ x
        y[n:] = 0.0
        return y

    A = spla.LinearOperator(K.shape, matvec=interior_rows, dtype=float)
    M = spla.LinearOperator(K.shape, matvec=v_cycle(mesh, dirichlet),
                            dtype=float)
    b = cg_load(mesh, dirichlet, level)
    steps = []
    ref, info = spla.cg(A, b, rtol=CG_RTOL, atol=0.0, M=M,
                        callback=steps.append)
    assert info == 0
    x, iterations = _cg(mesh, b, dirichlet)
    assert np.array_equal(x, ref)
    assert iterations == len(steps)


def gauge_load(mesh, seed):
    """The flux load of a random smooth h, which sums to zero."""
    x, y = centroids(mesh).T
    c = np.random.default_rng(seed).standard_normal((2, 4))
    basis = np.stack([np.ones_like(x), x * y, np.sin(3.0 * x),
                      np.cos(2.0 * y)])
    return flux_load((c @ basis).T, mesh)


@settings(max_examples=30, deadline=None)
@given(level=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_neumann_solve_matches_pinned_lu(level, seed):
    # up to a constant, against the sparse LU of K without the centre
    # node; at levels 0-2 the hierarchy has no smoothing level and the
    # cycle is the coarsest solve itself.  Over 100 draws each at
    # levels 4 and 5 the gap was at most 4.9e-12 max |u|.
    mesh = mesh_at(level)
    b = gauge_load(mesh, seed)
    ref = np.zeros(mesh.node_count)
    ref[1:] = spla.splu(stiffness_matrix(mesh)[1:, 1:].tocsc()).solve(
        b[1:] - b.mean())
    u = solve_neumann(b, mesh)
    ref -= ref.mean()
    assert np.abs(u - u.mean() - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("level", [4, 5, 6, 7])
def test_neumann_cg_iterations_stay_flat(level):
    # 8 measured at levels 4-7 for these loads, and 9 at level 7 for a
    # random zero-sum load
    mesh = mesh_at(level)
    K = stiffness_matrix(mesh)
    b = gauge_load(mesh, level)
    b -= b.mean()
    u, iterations = _cg(mesh, b, dirichlet=False)
    assert iterations <= 12
    assert np.linalg.norm(b - K @ u) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("level", [4, 5, 6, 7])
def test_galerkin_interior_block_is_dirichlet_operator(level):
    # the hierarchy of the whole K holds, in the leading interior block
    # of each coarse operator, the Galerkin operator P_I^T A P_I of the
    # Dirichlet restriction; checked down to the coarsest level (8
    # rings, level 2), with the interior node counts of the coarser
    # meshes (measured equal to the last bit at levels 4-7); each
    # level's kept restriction is its prolongation's transpose
    mesh = mesh_at(level)
    levels, _, _ = _multigrid(mesh)
    assert len(levels) == level - 2
    assert levels[0][0] is stiffness_matrix(mesh)
    A, _, P, _, _ = levels[-1]
    coarse = [lvl[0] for lvl in levels[1:]] + [P.T @ A @ P]
    n = mesh.interior_nodes.size
    dirichlet = stiffness_matrix(mesh)[:n, :n]
    for depth, ((_, _, P, R, nf), Ac) in enumerate(zip(levels, coarse)):
        assert nf == n
        assert (R != P.T).nnz == 0
        nc = mesh_at(level - 1 - depth).interior_nodes.size
        dirichlet = P[:n, :nc].T @ dirichlet @ P[:n, :nc]
        gap = abs(Ac[:nc, :nc] - dirichlet).max()
        assert gap <= 1e-14 * abs(dirichlet).max()
        n = nc


def _one_shot_multigrid(mesh):
    """`_multigrid`'s hierarchy with each coarse operator formed as one
    (P.T @ A @ P).tocsr(): the oracle of its bands."""
    m, n = mesh.rings, mesh.interior_nodes.size
    A = stiffness_matrix(mesh)
    levels = []
    while m > pde.COARSEST_RINGS:
        P = prolongation(m)
        levels.append((A, pde.JACOBI_WEIGHT / A.diagonal(), P, P.T, n))
        A = (P.T @ A @ P).tocsr()
        m, n = m // 2, P.shape[1] - 3 * m
    return levels, A, n


def assert_same_matrix(X, Y):
    assert X.format == Y.format and X.shape == Y.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(X, name), getattr(Y, name))
        assert getattr(X, name).dtype == getattr(Y, name).dtype


@pytest.mark.parametrize("level", range(2, 8))
def test_multigrid_matches_one_shot_galerkin(level):
    # the coarse-row bands of the Galerkin products leave every level
    # as the one-shot products built it, to the bit: the operators,
    # Jacobi scalings, prolongations, restrictions and the coarsest
    # operator; level 2 is the coarsest level itself, levels 3-5 form
    # each product in one band, and levels 6 and 7 their first in two
    # and seven
    levels, A, n = _multigrid(mesh_at(level))
    ref_levels, ref_A, ref_n = _one_shot_multigrid(mesh_at(level))
    assert len(levels) == len(ref_levels) == max(level - 2, 0)
    for (Al, dinv, P, R, nf), (rA, rdinv, rP, rR, rn) in zip(levels,
                                                            ref_levels):
        assert_same_matrix(Al, rA)
        assert np.array_equal(dinv, rdinv)
        assert_same_matrix(P, rP)
        assert_same_matrix(R, rR)
        assert nf == rn
    assert_same_matrix(A, ref_A)
    assert n == ref_n


def multigrid_rise(level):
    """The traced rise of a fresh `_multigrid` at a level (K built
    before) over the bytes of the hierarchy it keeps: the coarse
    operators, the Jacobi scalings and the prolongations, whose arrays
    the restrictions share."""
    mesh = build_disc_mesh(level)
    stiffness_matrix(mesh)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        levels, A, _ = _multigrid(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = [A] + [lvl[0] for lvl in levels[1:]] + [lvl[2] for lvl in levels]
    return (peak - base) / (
        sum(X.data.nbytes + X.indices.nbytes + X.indptr.nbytes for X in kept)
        + sum(lvl[1].nbytes for lvl in levels))


def test_multigrid_memory_is_banded():
    # level 6 keeps 5.7 MB of hierarchy: the traced rise is 1.39 times
    # that measured, against 2.22 with one-shot prolongations and
    # Galerkin products
    assert multigrid_rise(6) <= 1.6


def test_multigrid_memory_at_level_seven():
    # level 7 keeps 23 MB: 1.18 times measured, against 2.20 one-shot,
    # whose peak was the 50.5 MB of the one COO of P(256)
    assert multigrid_rise(7) <= 1.4


def test_coarsest_solve_is_factored_when_first_needed():
    # a mesh inverts the coarsest block of a boundary condition only
    # once that condition is solved on it
    mesh = build_disc_mesh(5)
    _multigrid(mesh)

    def factored():
        return {key[1] for key in _cache.get(mesh, {})
                if key[0] == "inverse"}

    assert factored() == set()
    solve_poisson_dirichlet(np.ones(mesh.triangle_count), mesh)
    assert factored() == {True}
    solve_gauge_neumann(centroids(mesh), mesh)
    assert factored() == {True, False}


@pytest.mark.parametrize("dirichlet", [True, False])
@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_coarsest_inverse_is_symmetric_inverse(level, dirichlet):
    # the coarsest system B (8 rings: 169 interior nodes, or 216 pinned
    # at the centre) has an exactly symmetric inverse Z, so that the
    # V-cycle is a symmetric operator, with |Z B - I| <= 1e-12 in the
    # max-row-sum norm (measured at most 7.8e-15 for Dirichlet and
    # 6.3e-14 for Neumann)
    _, A, n = _multigrid(mesh_at(level))
    B = (A[:n, :n] if dirichlet else A[1:, 1:]).toarray()
    assert B.shape == ((169, 169) if dirichlet else (216, 216))
    Z = _coarsest_inverse(mesh_at(level), dirichlet)
    assert np.array_equal(Z, Z.T)
    assert np.abs(Z @ B - np.eye(len(B))).sum(axis=1).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(level=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_dirichlet_solve_matches_lu(level, seed):
    # random smooth rhs; over 200 draws each at levels 4 and 5 the dual
    # norms matched within 6.4e-15 relative and f within 9.4e-12 max |f|
    mesh = mesh_at(level)
    x, y = centroids(mesh).T
    c = np.random.default_rng(seed).standard_normal(6)
    rhs = (c[0] + c[1] * x + c[2] * y + c[3] * x * y
           + c[4] * np.sin(3.0 * x) + c[5] * np.cos(2.0 * y))
    f, dual = lu_oracle(rhs, mesh)
    sol = solve_poisson_dirichlet(rhs, mesh)
    assert sol.gradient_norm == pytest.approx(dual, rel=1e-12)
    assert np.abs(sol.f - f).max() <= 1e-10 * np.abs(f).max()
    assert sol.residual <= 1e-10


def test_gauge_neumann_kills_exact_gradient(mesh):
    # h = grad(g) is removed exactly in the discrete sense: theta = -g
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    g = x ** 2 - y ** 2 + 0.3 * x * y
    h = element_gradient(g, mesh)
    theta = solve_gauge_neumann(h, mesh)
    resid = element_gradient(theta, mesh) + h
    assert np.sqrt(integrate((resid ** 2).sum(axis=1), mesh)) < 1e-10
    w = lumped_mass(mesh)
    assert abs(w @ theta) < 1e-12 * w.sum()


def test_gauge_neumann_ignores_divergence_free(mesh):
    # h = (-y, x) is L2-orthogonal to every discrete gradient
    cx, cy = centroids(mesh).T
    theta = solve_gauge_neumann(np.stack([-cy, cx], axis=1), mesh)
    assert np.abs(theta).max() < 1e-10


def test_zero_rhs_gives_zero_solution(mesh):
    # CG returns at once on b = 0, as scipy's cg does; a loop without
    # that return would divide 0 by 0
    sol = solve_poisson_dirichlet(np.zeros(mesh.triangle_count), mesh)
    assert not sol.f.any()
    assert sol.gradient_norm == 0.0
    assert sol.max_abs == 0.0
    assert sol.iterations == 0
    assert sol.residual == 0.0


def test_nonfinite_rhs_rejected(mesh):
    rhs = np.ones(mesh.triangle_count)
    rhs[0] = np.inf
    with pytest.raises(ValueError):
        solve_poisson_dirichlet(rhs, mesh)


def test_nan_load_stops_cg_at_once(monkeypatch):
    # a NaN load stops CG at its first V-cycle, not at the cap of 10 n
    # iterations; level 2 is the coarsest level, so one cycle is one call
    mesh = build_disc_mesh(2)
    b = np.ones(mesh.node_count)
    b[5] = np.nan
    with pytest.raises(ValueError):
        solve_neumann(b, mesh)
    cycles = []

    def counted(*args):
        cycles.append(1)
        return _v_cycle(*args)

    monkeypatch.setattr(pde, "_v_cycle", counted)
    for dirichlet in (True, False):
        cycles.clear()
        with pytest.raises(ArithmeticError):
            _cg(mesh, b, dirichlet)
        assert len(cycles) == 1


def test_galerkin_orthogonality(mesh):
    # the discrete solution pairs exactly with the load on test space
    rhs = np.cos(centroids(mesh)[:, 0])
    sol = solve_poisson_dirichlet(rhs, mesh)
    K = stiffness_matrix(mesh)
    b = element_load(rhs, mesh)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(mesh.node_count)
    z[mesh.boundary_mask] = 0.0
    assert float((K @ sol.f) @ z) == pytest.approx(float(b @ z), abs=1e-10)


def _reference_test_functions(mesh, seed, boundary_zero):
    """One check's test functions, built one at a time: TEST_FUNCTIONS
    that vanish on the boundary, or half of those and half free ones."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    basis = np.stack(
        [np.ones_like(x), x, y, x * y, x ** 2 - y ** 2,
         x ** 3, y ** 3, np.sin(2 * x) * np.cos(2 * y)],
        axis=1,
    )

    def draw(count, rng_seed, vanish):
        rng = np.random.default_rng(rng_seed)
        out = []
        for _ in range(count):
            z = basis @ rng.standard_normal(basis.shape[1])
            if vanish:
                z = z * (1.0 - x ** 2 - y ** 2)
                z[mesh.boundary_mask] = 0.0
            out.append(z)
        return out

    if boundary_zero:
        return draw(TEST_FUNCTIONS, seed, True)
    half = TEST_FUNCTIONS // 2
    return draw(half, seed, True) + draw(half, seed + 1, False)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31), load_seed=st.integers(0, 2 ** 31),
       boundary_zero=st.booleans())
def test_weak_residual_matches_reference_loop(mesh, seed, load_seed,
                                              boundary_zero):
    load = np.random.default_rng(load_seed).standard_normal(mesh.node_count)
    expected = max(
        abs(float(load @ z)) / gradient_l2(z, mesh)
        for z in _reference_test_functions(mesh, seed, boundary_zero)
    )
    tests = smooth_test_functions(mesh, seed)
    assert weak_residual(load, tests, boundary_zero) == pytest.approx(
        expected, rel=1e-12
    )
