import numpy as np
import pytest

from coulomb_lab import frames
from coulomb_lab.frames import (ContinuationError, Frame,
                                StepTooLargeError, coulomb_continuation,
                                frame_fields, frame_h, frame_residuals,
                                gauge_rotate, project_frame, recover_f)
from coulomb_lab.fields import (HypothesisViolationError, field_from_values,
                                sample_field)
from coulomb_lab.mesh import build_disc_mesh, element_gradient, integrate
from coulomb_lab.pde import smooth_test_functions
from coulomb_lab.surfaces import closed_form_table, enneper_gauss_closure


@pytest.fixture(scope="module")
def mesh():
    return build_disc_mesh(4)


@pytest.fixture(scope="module")
def frame(mesh):
    fld = sample_field(enneper_gauss_closure(0.5), mesh)
    return coulomb_continuation(fld, seed=7)


def test_gauge_rotation_round_trip(mesh):
    rng = np.random.default_rng(0)
    e1 = rng.standard_normal((mesh.node_count, 3))
    e2 = rng.standard_normal((mesh.node_count, 3))
    theta = rng.standard_normal(mesh.node_count)
    f1, f2 = gauge_rotate(e1, e2, theta)
    g1, g2 = gauge_rotate(f1, f2, -theta)
    assert np.allclose(g1, e1, atol=1e-12)
    assert np.allclose(g2, e2, atol=1e-12)


def test_project_frame_collapse(mesh):
    nn = mesh.node_count
    e1 = np.tile([1.0, 0.0, 0.0], (nn, 1))
    e2 = np.tile([0.0, 1.0, 0.0], (nn, 1))
    n_new = sample_field(
        lambda x, y: (np.ones_like(x), np.zeros_like(x),
                      np.zeros_like(x)), mesh
    )
    with pytest.raises(StepTooLargeError):
        project_frame((e1, e2), n_new)


def test_project_frame_orthonormal(mesh):
    closure = enneper_gauss_closure(0.5)
    # shrink the domain so the image stays near the south pole and the
    # constant horizontal frame projects without collapsing
    fld = sample_field(lambda x, y: closure(0.2 * x, 0.2 * y), mesh)
    nn = mesh.node_count
    # (x-hat, -y-hat) is positively oriented for the south-facing image
    e1 = np.tile([1.0, 0.0, 0.0], (nn, 1))
    e2 = np.tile([0.0, -1.0, 0.0], (nn, 1))
    p1, p2 = project_frame((e1, e2), fld)
    assert np.allclose(np.einsum("ni,ni->n", p1, p1), 1.0, atol=1e-12)
    assert np.allclose(np.einsum("ni,ni->n", p1, p2), 0.0, atol=1e-12)
    assert np.allclose(np.einsum("ni,ni->n", p1, fld.values), 0.0,
                       atol=1e-12)


def test_recover_f_oracle(mesh):
    # h = (d2 f0, -d1 f0) is recovered exactly in the discrete sense
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    f0 = 1.0 - x ** 2 - y ** 2
    g = element_gradient(f0, mesh)
    h = np.stack([g[:, 1], -g[:, 0]], axis=1)
    rec = recover_f(h, mesh)
    assert np.abs(rec.f - f0).max() < 1e-10
    assert rec.boundary_std < 1e-10


def test_continuation_defects(frame):
    rep = frame_residuals(frame, seed=11)
    assert rep.orth_defect <= 1e-10
    assert rep.tangency_defect <= 1e-10
    assert rep.delta > 0
    # (e1, e2, n) stays positively oriented
    orient = np.einsum("ni,ni->n", frame.field_n.values,
                       np.cross(frame.e1, frame.e2))
    assert orient.min() > 0


def test_continuation_log(frame):
    assert len(frame.log) >= 16
    assert frame.log[-1]["lambda"] == pytest.approx(1.0)
    lambdas = [row["lambda"] for row in frame.log]
    assert all(b > a for a, b in zip(lambdas, lambdas[1:]))


def test_continuation_f_matches_closed_form(frame):
    table = closed_form_table(0.5)
    assert np.abs(frame.f).max() == pytest.approx(
        abs(table.f_at_origin), rel=0.02
    )
    assert frame.boundary_std < 0.01


def test_continuation_gradient_residuals(frame):
    rep = frame_residuals(frame, seed=11)
    # d1 f = -h2 and d2 f = h1 up to discretization
    mesh = frame.field_n.mesh
    h = frame_h(*frame_fields(frame.e1, frame.e2, mesh))
    gf = element_gradient(frame.f, mesh)
    for r in (gf[:, 0] + h[:, 1], gf[:, 1] - h[:, 0]):
        assert np.sqrt(integrate(r ** 2, mesh)) < 0.1
    assert rep.coulomb_residual < 0.05


def test_frame_h_shape(frame):
    h = frame_h(*frame_fields(frame.e1, frame.e2, frame.field_n.mesh))
    assert h.shape == (frame.field_n.mesh.triangle_count, 2)


def test_continuation_needs_closure(mesh):
    fld = sample_field(enneper_gauss_closure(0.5), mesh)
    bare = field_from_values(fld.values, fld.mesh)
    with pytest.raises(ValueError):
        coulomb_continuation(bare, seed=7)


def test_continuation_needs_area_margin():
    mesh = build_disc_mesh(3)

    def double_wrap(x, y):
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        pol = 2.0 * np.pi * r
        return (np.sin(pol) * np.cos(theta), np.sin(pol) * np.sin(theta),
                np.cos(pol))

    fld = sample_field(double_wrap, mesh)
    with pytest.raises(HypothesisViolationError):
        coulomb_continuation(fld, seed=7)


def test_test_functions_built_once_per_call(monkeypatch):
    seeds = []

    def counted(mesh, seed):
        seeds.append(seed)
        return smooth_test_functions(mesh, seed)

    monkeypatch.setattr(frames, "smooth_test_functions", counted)
    fld = sample_field(enneper_gauss_closure(0.5), build_disc_mesh(3))
    frame = coulomb_continuation(fld, seed=5)
    assert len(frame.log) >= 16
    assert seeds == [5]
    frame_residuals(frame, seed=6)
    assert seeds == [5, 6]
