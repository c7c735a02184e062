import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulomb_lab.mesh import build_disc_mesh, element_gradient, integrate
from coulomb_lab.pde import (TEST_FUNCTIONS, _factor, dual_norm,
                             element_load, gradient_l2, lumped_mass,
                             smooth_test_functions, solve_gauge_neumann,
                             solve_poisson_dirichlet, stiffness_matrix,
                             weak_residual)


@pytest.fixture(scope="module")
def mesh():
    return build_disc_mesh(5)


def test_stiffness_energy_identity(mesh):
    # z^T K z equals the integral of |grad z|^2
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    z = x * y + 0.5 * x
    K = stiffness_matrix(mesh)
    assert float(z @ (K @ z)) == pytest.approx(
        gradient_l2(z, mesh) ** 2, rel=1e-12
    )


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


def test_dual_norm_oracle(mesh):
    # dual norm of rhs = 1: f = (1-|X|^2)/4, |grad f|^2 = pi/8
    val = dual_norm(np.ones(mesh.triangle_count), mesh)
    assert val == pytest.approx(np.sqrt(np.pi / 8.0), rel=1e-3)


def test_dual_norm_matches_dense_solve():
    mesh = build_disc_mesh(3)
    cx, cy = mesh.centroids[:, 0], mesh.centroids[:, 1]
    rhs = np.cos(3.0 * cx) * cy + cx
    idx = mesh.interior_nodes
    K = stiffness_matrix(mesh).toarray()[np.ix_(idx, idx)]
    b = element_load(rhs, mesh)[idx]
    expected = np.sqrt(b @ np.linalg.solve(K, b))
    assert dual_norm(rhs, mesh) == pytest.approx(expected, rel=1e-12)


def test_dirichlet_factor_fill(mesh):
    # the SPD ordering keeps L+U at 0.79 M entries on this level-5 mesh
    # (COLAMD, the default column ordering: 1.23 M)
    lu = _factor(mesh, mesh.interior_nodes)
    assert lu.L.nnz + lu.U.nnz <= 900_000


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
    hx = -mesh.centroids[:, 1]
    hy = mesh.centroids[:, 0]
    theta = solve_gauge_neumann(np.stack([hx, hy], axis=1), mesh)
    assert np.abs(theta).max() < 1e-10


def test_nonfinite_rhs_rejected(mesh):
    rhs = np.ones(mesh.triangle_count)
    rhs[0] = np.inf
    with pytest.raises(ValueError):
        solve_poisson_dirichlet(rhs, mesh)


def test_galerkin_orthogonality(mesh):
    # the discrete solution pairs exactly with the load on test space
    rhs = np.cos(mesh.centroids[:, 0])
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
