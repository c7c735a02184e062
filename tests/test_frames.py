import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulomb_lab import frames
from coulomb_lab.cli import main
from coulomb_lab.frames import (GAUGE_SOLVES, coulomb_continuation,
                                frame_fields, frame_h, frame_residuals,
                                gauge_rotate, recover_f,
                                stereographic_frame)
from coulomb_lab.fields import (HypothesisViolationError, area_margin,
                                sample_field)
from coulomb_lab.mesh import build_disc_mesh, element_gradient, integrate
from coulomb_lab.pde import smooth_test_functions
from coulomb_lab.surfaces import (closed_form_table, enneper_gauss_closure,
                                  f_eps)

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


@pytest.fixture(scope="module")
def mesh():
    return build_disc_mesh(4)


@pytest.fixture(scope="module")
def coarse():
    return build_disc_mesh(3)


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


@settings(max_examples=25, deadline=None)
@given(eps=st.floats(0.2, 0.9))
def test_stereographic_frame_is_orthonormal_and_positive(coarse, eps):
    n = sample_field(enneper_gauss_closure(eps), coarse).values
    e1, e2 = stereographic_frame(n)
    dot = lambda a, b: np.einsum("ni,ni->n", a, b)  # noqa: E731
    for defect in (dot(e1, e1) - 1.0, dot(e2, e2) - 1.0, dot(e1, e2),
                   dot(e1, n), dot(e2, n), dot(n, np.cross(e1, e2)) - 1.0):
        assert np.abs(defect).max() <= 1e-12


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
    # one row, at lambda = 1 with step 1, whose residual is the last
    # gauge residual
    (row,) = frame.log
    assert row["lambda"] == 1.0 and row["step"] == 1.0
    assert row["coulomb_residual"] == frame.gauge_residuals[-1]
    assert row["f_max"] == np.abs(frame.f).max()


def test_gauge_solves_make_a_sheared_frame_coulomb(mesh):
    # The stereographic frame of a conformal field, such as an Enneper
    # Gauss map, is Coulomb up to discretization; that of a sheared one
    # is not, and each gauge solve cuts its residual (0.40, 3.4e-4 and
    # 6.8e-7 at level 4)
    closure = enneper_gauss_closure(0.5)
    fld = sample_field(lambda x, y: closure(1.5 * x, y + 0.3 * x * x),
                       mesh)
    res = coulomb_continuation(fld, seed=7).gauge_residuals
    assert len(res) == GAUGE_SOLVES + 1
    assert res[0] > 0.1 and res[-1] < 1e-5
    assert all(b < a / 100 for a, b in zip(res, res[1:]))


def test_field_is_the_input(mesh):
    fld = sample_field(enneper_gauss_closure(0.5), mesh)
    assert coulomb_continuation(fld, seed=7).field_n is fld


def test_continuation_f_is_second_order(coarse, frame):
    # max |f - f_eps| at the nodes measured 6.6e-3, 1.7e-3 and 4.2e-4 at
    # levels 3, 4 and 5 (eps 0.5)
    fld = sample_field(enneper_gauss_closure(0.5), coarse)
    gaps = [np.abs(fr.f - f_eps(0.5, *fr.field_n.mesh.nodes.T)).max()
            for fr in (coulomb_continuation(fld, seed=7), frame)]
    assert gaps[0] / gaps[1] >= 3.5
    assert gaps[1] <= 2 * 1.7e-3


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


def test_continuation_needs_k_outside_the_image(coarse):
    # -n_Enneper(0.5) keeps an area margin of about 2.5 (4 pi - 4 pi /
    # 1.25 in the limit), but maps the centre to k, so the stereographic
    # frame about k is undefined there
    closure = enneper_gauss_closure(0.5)
    fld = sample_field(lambda x, y: -closure(x, y), coarse)
    assert area_margin(fld) > 2.0
    with pytest.raises(HypothesisViolationError, match="1 preimages"):
        coulomb_continuation(fld, seed=7)


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
    assert len(frame.log) == 1
    assert seeds == [5]
    frame_residuals(frame, seed=6)
    assert seeds == [5, 6]


def test_frame_output_passes_the_benchmark_check(tmp_path):
    # the benchmark's own check of criterion 6, read from its file
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    out = tmp_path / "out"
    assert main(["frame", "--eps", "0.5", "--level", "4", "--out",
                 str(out)]) == 0
    assert checks.check_frame(out, 0.5) == []
