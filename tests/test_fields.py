import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulomb_lab.fields import (SamplingError, area_functional,
                                dirichlet_energy, field_from_values, phi,
                                sample_field)
from coulomb_lab.mesh import build_disc_mesh, element_gradient, integrate
from coulomb_lab.surfaces import enneper_gauss_closure, lam

FOUR_PI = 4.0 * np.pi


def phi_at(eps, x, y):
    """Closed-form Jacobian density of the eps-Enneper Gauss map."""
    return -4.0 * eps ** 2 / lam(eps, x, y) ** 2


@pytest.fixture(scope="module")
def mesh():
    return build_disc_mesh(4)


@pytest.fixture(scope="module")
def field(mesh):
    return sample_field(enneper_gauss_closure(0.5), mesh)


def test_derived_data_on_first_read(mesh):
    fld = sample_field(enneper_gauss_closure(0.5), mesh)
    derived = ("d1", "d2", "nbar", "cross")
    assert not set(derived) & set(vars(fld))
    arrays = [getattr(fld, name) for name in derived]
    for name, arr in zip(derived, arrays):
        assert not arr.flags.writeable
        assert getattr(fld, name) is arr
    d1, d2, nbar, cross = arrays
    g = element_gradient(fld.values, mesh)
    assert np.array_equal(d1, g[:, 0]) and np.array_equal(d2, g[:, 1])
    mean = fld.values[mesh.triangles].mean(axis=1)
    assert np.array_equal(
        nbar, mean / np.linalg.norm(mean, axis=1, keepdims=True))
    assert np.array_equal(cross, np.cross(d1, d2))


def test_values_unit_norm(field):
    norms = np.linalg.norm(field.values, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-14)


def test_sampling_normalizes(mesh):
    fld = sample_field(lambda x, y: (2.0 * np.ones_like(x),
                                     np.zeros_like(x),
                                     np.zeros_like(x)), mesh)
    assert np.allclose(fld.values, [1.0, 0.0, 0.0])


def test_zero_vector_rejected(mesh):
    with pytest.raises(SamplingError):
        field_from_values(np.zeros((mesh.node_count, 3)), mesh)


def test_wrong_shape_rejected(mesh):
    with pytest.raises(ValueError):
        sample_field(lambda x, y: np.ones((5, 3)), mesh)


def test_phi_sign_and_magnitude(field, mesh):
    # the eps = 0.5 family has Phi = -4 eps^2 / lambda^2 < 0 everywhere
    ph = phi(field)
    assert ph.max() < 0
    ref = phi_at(0.5, *mesh.nodes[mesh.triangles].mean(axis=1).T)
    assert np.abs(ph - ref).max() < 0.05 * np.abs(ref).max()


def test_integral_abs_phi(field, mesh):
    val = integrate(np.abs(phi(field)), mesh)
    assert val == pytest.approx(FOUR_PI / 1.25, rel=5e-3)


def test_dirichlet_energy(field):
    assert dirichlet_energy(field) == pytest.approx(
        8.0 * np.pi / 1.25, rel=5e-3
    )


def test_minimal_surface_equality(field, mesh):
    # conformal harmonic maps satisfy 2 int |Phi| = int |grad n|^2
    val = 2.0 * integrate(np.abs(phi(field)), mesh)
    assert val == pytest.approx(dirichlet_energy(field), rel=5e-3)


def test_area_functional_margin(field):
    area = area_functional(field)
    assert 0 < area.value < FOUR_PI
    assert area.delta == pytest.approx(FOUR_PI - area.value)
    # |Phi| = |d1 n x d2 n| for conformal fields
    assert area.value == pytest.approx(FOUR_PI / 1.25, rel=5e-3)


def test_constant_field_trivial(mesh):
    fld = sample_field(lambda x, y: (np.zeros_like(x), np.zeros_like(x),
                                     np.ones_like(x)), mesh)
    assert np.abs(phi(fld)).max() < 1e-12
    assert dirichlet_energy(fld) < 1e-12
    assert area_functional(fld).value < 1e-12


def test_rotation_invariance(field, mesh):
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    rotated = field_from_values(field.values @ q.T, mesh)
    assert np.abs(phi(rotated) - phi(field)).max() < 1e-12


def test_reflection_antisymmetry(field, mesh):
    flipped = field.values.copy()
    flipped[:, 2] = -flipped[:, 2]
    reflected = field_from_values(flipped, mesh)
    assert np.abs(phi(reflected) + phi(field)).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(entries=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9)
       .filter(lambda v: abs(np.linalg.det(np.reshape(v, (3, 3)))) > 0.1),
       flip=st.booleans())
def test_orthogonal_symmetry(field, mesh, entries, flip):
    # phi(Q n) = det(Q) phi(n) for every Q in O(3): rotations keep the
    # Jacobian density, reflections flip its sign
    q, _ = np.linalg.qr(np.reshape(entries, (3, 3)))
    if flip:
        q[:, 0] = -q[:, 0]
    moved = field_from_values(field.values @ q.T, mesh)
    assert np.abs(phi(moved) - np.linalg.det(q) * phi(field)).max() < 1e-12


def test_resampling_matches_closure(field, mesh):
    resampled = sample_field(enneper_gauss_closure(0.5), mesh)
    assert np.array_equal(resampled.values, field.values)
