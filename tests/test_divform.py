import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from coulomb_lab.divform import (MARGIN, KernelBoundError,
                                 SingularElementError, admissible_region,
                                 averaged_omega, gamma_many,
                                 weak_identity_load)
from coulomb_lab.fields import (HypothesisViolationError, dirichlet_energy,
                                field_from_values, phi, sample_field)
from coulomb_lab.mesh import build_disc_mesh, element_gradient, integrate
from coulomb_lab.pde import (TEST_FUNCTIONS, gradient_l2,
                             smooth_test_functions)
from coulomb_lab.sphere import sphere_quadrature
from coulomb_lab.surfaces import enneper_gauss_closure

FOUR_PI = 4.0 * np.pi
POLE_TOL = 1e-12


class PoleDegeneracyError(Exception):
    """Rotation requested at n' = +-k where the family degenerates."""


def rotation_matrix(nprime):
    """Rotation U with U(n') n' = k, smooth away from the poles."""
    nprime = np.asarray(nprime, dtype=float)
    return rotation_matrices(nprime[None])[0]


def rotation_matrices(nprimes):
    """Batched rotation family, one 3x3 matrix per target: the oracle
    for identity 1, which makes Gamma independent of the rotation."""
    nprimes = np.asarray(nprimes, dtype=float)
    n1, n2, n3 = nprimes[:, 0], nprimes[:, 1], nprimes[:, 2]
    lam = n1 ** 2 + n2 ** 2
    if np.any(lam < POLE_TOL):
        raise PoleDegeneracyError("rotation family degenerates at +-k")
    s = np.sqrt(lam)
    U = np.empty(nprimes.shape[:1] + (3, 3))
    U[:, 0, 0] = n1 * n3 / s
    U[:, 0, 1] = n2 * n3 / s
    U[:, 0, 2] = -s
    U[:, 1, 0] = -n2 / s
    U[:, 1, 1] = n1 / s
    U[:, 1, 2] = 0.0
    U[:, 2, 0] = n1
    U[:, 2, 1] = n2
    U[:, 2, 2] = n3
    return U


@pytest.fixture(scope="module")
def mesh():
    return build_disc_mesh(5)


@pytest.fixture(scope="module")
def field(mesh):
    return sample_field(enneper_gauss_closure(0.5), mesh)


def test_rotation_maps_target_to_north_pole():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((50, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    U = rotation_matrices(v)
    k = np.array([0.0, 0.0, 1.0])
    assert np.allclose(np.einsum("kij,kj->ki", U, v), k, atol=1e-12)
    # orthogonality and orientation
    assert np.allclose(np.einsum("kij,klj->kil", U, U),
                       np.eye(3), atol=1e-12)
    assert np.allclose(np.linalg.det(U), 1.0, atol=1e-12)


def test_rotation_example_x_axis():
    U = rotation_matrix([1.0, 0.0, 0.0])
    expected = np.array([[0.0, 0.0, -1.0],
                         [0.0, 1.0, 0.0],
                         [1.0, 0.0, 0.0]])
    assert np.allclose(U, expected, atol=1e-14)


def test_rotation_pole_degenerate():
    with pytest.raises(PoleDegeneracyError):
        rotation_matrix([0.0, 0.0, 1.0])
    with pytest.raises(PoleDegeneracyError):
        rotation_matrix([0.0, 0.0, -1.0])


def _rotated_gamma(n, nprime, xi):
    """Gamma by its definition: rotate n' to k, then the planar formula."""
    U = rotation_matrix(nprime)
    m, u = n @ U.T, xi @ U.T
    return (m[..., 0] * u[..., 1] - m[..., 1] * u[..., 0]) / (1.0 - m[..., 2])


# (z, azimuth) of a unit vector, off the poles
_OFF_POLE = st.tuples(st.floats(-0.999, 0.999), st.floats(0.0, 2.0 * np.pi))


def _unit(z, angle):
    r = np.sqrt(1.0 - z * z)
    return np.array([r * np.cos(angle), r * np.sin(angle), z])


@settings(max_examples=200, deadline=None)
@given(n=_OFF_POLE, nprime=_OFF_POLE,
       xi=st.tuples(*[st.floats(-10.0, 10.0)] * 3))
# 1 - n.n' = 5e-7: gamma_many is off by +1.3e-10 relative and the
# rotated formula by -8.9e-11 (exact value 1755.164685251438)
@example(n=(0.0, 0.5), nprime=(0.001, 0.5), xi=(0.0, 1.0, 0.0))
def test_gamma_many_matches_rotated_formula(n, nprime, xi):
    n, nprime, xi = _unit(*n), _unit(*nprime), np.array(xi)
    sep = np.linalg.norm(n - nprime)
    assume(sep >= 1e-3 and np.linalg.norm(xi) >= 1e-3)
    g = gamma_many(n, nprime, xi)[0]
    ref = _rotated_gamma(n, nprime, xi)
    # both formulas divide by 1 - n.n' = sep^2 / 2, formed from unit
    # vectors, so each loses about eps / (1 - n.n') relative
    conditioning = 4.0 * np.finfo(float).eps * abs(ref) / (sep ** 2 / 2.0)
    assert abs(g - ref) <= (1e-10 * 2.0 * np.linalg.norm(xi) / sep
                            + conditioning)


def test_gamma_linear_in_xi():
    rng = np.random.default_rng(1)
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    npr = np.array([0.6, 0.0, 0.8])
    xi1, xi2 = rng.standard_normal(3), rng.standard_normal(3)
    lhs = gamma_many(n, npr, 2.0 * xi1 - 0.5 * xi2)[0]
    rhs = (2.0 * gamma_many(n, npr, xi1)[0]
           - 0.5 * gamma_many(n, npr, xi2)[0])
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_gamma_bound_random():
    rng = np.random.default_rng(2)
    k = 20000
    n = rng.standard_normal((k, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    npr = rng.standard_normal((k, 3))
    npr /= np.linalg.norm(npr, axis=1, keepdims=True)
    xi = rng.standard_normal((k, 3))
    keep = np.linalg.norm(n - npr, axis=1) > 1e-6
    (g,) = gamma_many(n[keep], npr[keep], xi[keep])
    bound = 2.0 * np.linalg.norm(xi[keep], axis=1) / np.linalg.norm(
        n[keep] - npr[keep], axis=1
    )
    assert np.all(np.abs(g) <= bound + 1e-12)


# (z, azimuth) of a unit vector anywhere, poles included
_ANYWHERE = st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * np.pi))


@settings(max_examples=300, deadline=None)
@given(n=_ANYWHERE, pole=st.sampled_from([1.0, -1.0]),
       off=st.one_of(st.just(0.0), st.floats(0.0, 1e-4)),
       azimuth=st.floats(0.0, 2.0 * np.pi),
       xi=st.tuples(*[st.floats(-10.0, 10.0)] * 3))
@example(n=(0.0, 0.0), pole=1.0, off=0.0, azimuth=0.0, xi=(1.0, 0.0, 0.0))
def test_gamma_bound_at_the_poles(n, pole, off, azimuth, xi):
    # identity 1 holds at n' = +-k, where the rotated formula has no
    # rotation, so the bound 2|xi| / |n - n'| holds there and nearby
    n, xi = _unit(*n), np.array(xi)
    nprime = np.array([np.sin(off) * np.cos(azimuth),
                       np.sin(off) * np.sin(azimuth), pole * np.cos(off)])
    sep = np.linalg.norm(n - nprime)
    assume(sep > 1e-6)
    (g,) = gamma_many(n, nprime, xi)
    bound = 2.0 * np.linalg.norm(xi) / sep
    # 1 - n.n' = sep^2 / 2 is formed from unit vectors, so it carries
    # a relative error of about eps / (1 - n.n')
    conditioning = 4.0 * np.finfo(float).eps * bound / (sep ** 2 / 2.0)
    assert abs(g[0]) <= bound + conditioning + 1e-12


def test_omega_elementwise_bound(field):
    npr = np.array([0.0, 0.8, -0.6])
    w1, w2 = gamma_many(field.nbar, npr, field.d1, field.d2)
    dist = np.linalg.norm(field.nbar - npr, axis=1)
    b1 = 2.0 * np.linalg.norm(field.d1, axis=1) / dist
    b2 = 2.0 * np.linalg.norm(field.d2, axis=1) / dist
    assert np.all(np.abs(w1) <= b1 + 1e-12)
    assert np.all(np.abs(w2) <= b2 + 1e-12)


def test_omega_strict_on_image(field):
    with pytest.raises(SingularElementError):
        gamma_many(field.nbar, field.nbar[10], field.d1, field.d2)


def test_admissible_region(field):
    report = admissible_region(field, level=4)
    assert report.region.measure > 0
    assert report.sigma > 0.05
    assert report.delta > 0


def test_admissible_region_keeps_the_pole(field):
    # the image (z < 0.6) stays far from k, so the quadrature node
    # nearest k is admissible: Gamma needs no pole exclusion
    nodes = sphere_quadrature(4).nodes
    top = nodes[np.argmax(nodes[:, 2])]
    assert np.linalg.norm(top - [0.0, 0.0, 1.0]) < 0.05
    region = admissible_region(field, level=4).region
    assert np.any(np.all(region.nodes == top, axis=1))


@pytest.mark.parametrize("eps, level, sphere_level",
                         [(0.5, 5, 3), (0.5, 6, 4), (0.3, 5, 4)])
def test_admissible_region_matches_nearest_neighbour(eps, level,
                                                      sphere_level):
    # the grid search gives the k-d tree's nearest-value distances to
    # the bit: the same mask (distance > MARGIN) and the same sigma
    fld = sample_field(enneper_gauss_closure(eps), build_disc_mesh(level))
    report = admissible_region(fld, sphere_level)
    quad = sphere_quadrature(sphere_level)
    dist, _ = cKDTree(fld.nbar).query(quad.nodes, k=1)
    mask = dist > MARGIN
    assert np.array_equal(report.region.nodes, quad.nodes[mask])
    assert np.array_equal(report.region.weights, quad.weights[mask])
    assert report.sigma == float(dist[mask].min())


def test_admissible_region_sigma_far_from_the_image(mesh):
    # a small image (within about 0.01 of -k) leaves every level-0 node
    # beyond 2 MARGIN, so sigma needs the doubled search radius
    nodes = mesh.nodes
    values = np.column_stack([0.01 * nodes, -np.ones(mesh.node_count)])
    fld = field_from_values(values / np.linalg.norm(values, axis=1)[:, None],
                            mesh)
    report = admissible_region(fld, 0)
    dist, _ = cKDTree(fld.nbar).query(sphere_quadrature(0).nodes, k=1)
    assert dist.min() > 2.0 * MARGIN
    assert report.region.nodes.shape[0] == 20
    assert report.sigma == float(dist.min())


def test_admissible_region_rejects_nan_values(mesh):
    # a NaN field passes the area margin (NaN <= 0 is false), and the
    # grid refuses its values, as a k-d tree does
    fld = field_from_values(np.full((mesh.node_count, 3), np.nan), mesh)
    with pytest.raises(ValueError, match="finite"):
        admissible_region(fld, 0)


def test_admissible_region_needs_margin(mesh):
    rng = np.random.default_rng(3)
    values = rng.standard_normal((mesh.node_count, 3))
    wild = field_from_values(values, mesh)
    with pytest.raises(HypothesisViolationError):
        admissible_region(wild, level=4)


def test_averaged_omega_certificates(field):
    region = admissible_region(field, level=4).region
    form = averaged_omega(field, region)
    assert form.bound_slack.min() >= 0.0
    cert = (2.0 * FOUR_PI / region.measure) * np.sqrt(
        dirichlet_energy(field)
    )
    assert max(form.l2_omega1, form.l2_omega2) <= cert


def test_averaged_omega_matches_rotated_sum():
    fld = sample_field(enneper_gauss_closure(0.5), build_disc_mesh(4))
    region = admissible_region(fld, level=4).region
    form = averaged_omega(fld, region)
    for om, d in ((form.omega1, fld.d1), (form.omega2, fld.d2)):
        ref = sum(w * _rotated_gamma(fld.nbar, s, d)
                  for s, w in zip(region.nodes, region.weights))
        ref /= region.measure
        assert np.abs(om - ref).max() <= 1e-12 * np.abs(ref).max()


def test_averaged_omega_kernel_bound(field):
    # negative weights make the quadrature bound negative
    region = admissible_region(field, level=4).region
    flipped = dataclasses.replace(region, weights=-region.weights)
    with pytest.raises(KernelBoundError):
        averaged_omega(field, flipped)


def test_weak_identity_residual(field):
    form = averaged_omega(field, admissible_region(field, level=4).region)
    load = weak_identity_load(field, form)
    mesh = field.mesh
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    rng = np.random.default_rng(4)
    for _ in range(3):
        a, b, c = rng.standard_normal(3)
        zeta = (a + b * x + c * y) * (1.0 - x ** 2 - y ** 2)
        zeta[mesh.boundary_mask] = 0.0
        r = abs(load @ zeta)
        assert r <= 0.01 * gradient_l2(zeta, mesh)


def test_weak_identity_residual_is_its_load(field):
    mesh = field.mesh
    form = averaged_omega(field, admissible_region(field, level=4).region)
    load = weak_identity_load(field, form)
    tests = smooth_test_functions(mesh, 3)
    for zeta in tests.values[:, -TEST_FUNCTIONS:].T:
        # int Phi zeta - int (Omega_2 d1 zeta - Omega_1 d2 zeta)
        gz = element_gradient(zeta, mesh)
        lhs = integrate(phi(field) * zeta[mesh.triangles].mean(axis=1),
                        mesh)
        rhs = integrate(form.omega2 * gz[:, 0] - form.omega1 * gz[:, 1],
                        mesh)
        assert load @ zeta == pytest.approx(
            lhs - rhs, abs=1e-12 * (abs(lhs) + abs(rhs)))


def test_weak_identity_refines():
    def worst(level):
        m = build_disc_mesh(level)
        fld = sample_field(enneper_gauss_closure(0.5), m)
        form = averaged_omega(fld, admissible_region(fld, level=4).region)
        x, y = m.nodes[:, 0], m.nodes[:, 1]
        zeta = (1.0 + x) * (1.0 - x ** 2 - y ** 2)
        zeta[m.boundary_mask] = 0.0
        return abs(weak_identity_load(fld, form) @ zeta) / gradient_l2(
            zeta, m
        )

    assert worst(4) / worst(5) >= 1.5
