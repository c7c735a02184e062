import numpy as np
import pytest

from coulomb_lab.fields import phi
from coulomb_lab.mesh import build_disc_mesh
from coulomb_lab import surfaces
from coulomb_lab.pde import gradient_l2
from coulomb_lab.surfaces import (ClosureCheckError, closed_form_table,
                                  coincidence_radii, conformal_check,
                                  custom_immersion, enneper,
                                  enneper_psi_closure,
                                  enneper_tangents_closure, fundamental_forms,
                                  gauss_map, intersection_sweep,
                                  refine_intersection, self_intersections,
                                  stereographic, zeta_eps)


@pytest.fixture(scope="module")
def mesh():
    return build_disc_mesh(4)


def test_closed_form_table_eps_one():
    table = closed_form_table(1.0)
    assert table.int_abs_phi == pytest.approx(2.0 * np.pi)
    assert table.int_grad_n2 == pytest.approx(4.0 * np.pi)
    assert table.grad_f2 == pytest.approx(
        4.0 * np.pi * (np.log(2.0) - 0.5)
    )
    assert table.f_at_origin == pytest.approx(-np.log(2.0))
    assert table.delta_norm == pytest.approx(np.sqrt(table.grad_f2))


def test_closed_form_table_guard():
    with pytest.raises(ValueError):
        closed_form_table(0.0)


def test_polar_radius_identity():
    # psi1^2 + psi2^2 + (4/3) psi3^2 depends on |X| alone, through the
    # strictly increasing function r -> (eps^2 r + r^3/3); equal image
    # points therefore share the same radius
    rng = np.random.default_rng(0)
    for eps in (0.2, 0.5, 0.9):
        psi = enneper_psi_closure(eps)
        x, y = rng.uniform(-1, 1, size=(2, 200))
        p = psi(x, y)
        lhs = p[:, 0] ** 2 + p[:, 1] ** 2 + (4.0 / 3.0) * p[:, 2] ** 2
        r = np.hypot(x, y)
        rhs = ((eps ** 2 * r + r ** 3 / 3.0) / (1.0 + eps ** 2)) ** 2
        assert np.abs(lhs - rhs).max() < 1e-14


def test_tangents_conformal():
    rng = np.random.default_rng(1)
    tang = enneper_tangents_closure(0.4)
    x, y = rng.uniform(-1, 1, size=(2, 100))
    a, b = tang(x, y)
    ll = 0.16 + x ** 2 + y ** 2
    assert np.abs((a * b).sum(axis=-1)).max() < 1e-13
    assert np.abs((a * a).sum(axis=-1) - ll ** 2).max() < 1e-12
    assert np.abs((b * b).sum(axis=-1) - ll ** 2).max() < 1e-12


def test_conformal_check_enneper(mesh):
    rep = conformal_check(enneper(0.5, mesh))
    assert rep.max_defect_EG < 1e-12
    assert rep.max_defect_F < 1e-12
    assert rep.f_reference_max_err < 1e-12
    assert rep.f_boundary_max < 1e-12


@pytest.mark.parametrize("sign", [+1, -1])
def test_conformal_check_stereographic(mesh, sign):
    rep = conformal_check(stereographic(0.5, sign, mesh))
    assert rep.max_defect_EG < 1e-12
    assert rep.max_defect_F < 1e-12
    assert rep.f_reference_max_err < 1e-12


def test_custom_immersion_not_conformal(mesh):
    imm = custom_immersion(
        lambda x, y: np.stack([2.0 * x, y, 0.0 * x], axis=-1), mesh
    )
    rep = conformal_check(imm)
    assert rep.max_defect_EG == pytest.approx(0.75)
    assert rep.max_defect_F < 1e-12
    assert np.isnan(rep.f_reference_max_err)


def test_enneper_is_minimal(mesh):
    forms = fundamental_forms(enneper(0.5, mesh))
    assert not forms.degenerate.any()
    assert np.abs(forms.H).max() < 1e-12
    assert forms.K.max() < 0.0


def test_stereographic_unit_curvatures(mesh):
    # the image is the unit sphere: |H| = 1 and K = 1 everywhere
    forms = fundamental_forms(stereographic(0.5, +1, mesh))
    assert np.abs(np.abs(forms.H) - 1.0).max() < 1e-5
    assert np.abs(forms.K - 1.0).max() < 1e-5
    assert np.abs(forms.A2 - 2.0).max() < 1e-4


@pytest.mark.parametrize(
    "make",
    [
        lambda m: enneper(0.5, m),
        lambda m: stereographic(0.5, +1, m),
        lambda m: stereographic(0.5, -1, m),
    ],
)
def test_orientation_sign_matches_phi(mesh, make):
    imm = make(mesh)
    forms = fundamental_forms(imm)
    fld = gauss_map(imm)
    predicted = imm.orientation_sign * forms.K * np.exp(2.0 * forms.f)
    ph = phi(fld)
    scale = np.abs(ph).max()
    assert np.abs(ph - predicted).max() < 0.05 * scale


def test_degenerate_immersion_masked(mesh):
    imm = custom_immersion(
        lambda x, y: np.stack([x, x, 0.0 * x], axis=-1), mesh
    )
    forms = fundamental_forms(imm)
    assert forms.degenerate.all()


def test_gauss_map_needs_family(mesh):
    imm = custom_immersion(
        lambda x, y: np.stack([x, y, 0.0 * x], axis=-1), mesh
    )
    with pytest.raises(ValueError):
        gauss_map(imm)


def test_family_guards(mesh):
    with pytest.raises(ValueError):
        enneper(0.0, mesh)
    with pytest.raises(ValueError):
        enneper(1.5, mesh)
    with pytest.raises(ValueError):
        stereographic(0.5, 2, mesh)
    with pytest.raises(ValueError):
        stereographic(-0.1, 1, mesh)


def test_zeta_eps_normalized(mesh):
    zeta = zeta_eps(0.3, mesh)
    assert np.abs(zeta[mesh.boundary_mask]).max() < 1e-12
    assert gradient_l2(zeta, mesh) == pytest.approx(1.0, rel=5e-3)


def test_self_intersection_pairs():
    eps = 0.3
    res = self_intersections(eps)
    assert len(res.pairs) == 4
    assert res.reason == ""
    names = {p.family for p in res.pairs}
    assert names == {"vertical_axis", "horizontal_axis",
                     "reflection_sin", "reflection_cos"}
    psi = enneper_psi_closure(eps)
    for p in res.pairs:
        assert p.radius ** 2 >= 3.0 * eps ** 2 - 1e-12
        assert np.linalg.norm(p.x_hat - p.x_tilde) > 0.1
        gap = np.linalg.norm(psi(*p.x_hat) - psi(*p.x_tilde))
        assert gap < 1e-10


def test_self_intersections_outside_domain():
    res = self_intersections(0.7)
    assert res.pairs == ()
    assert res.reason != ""


def test_self_intersections_closure_check(monkeypatch):
    exact = surfaces.enneper_psi_closure

    def perturbed(eps):
        psi = exact(eps)
        return lambda x, y: psi(x, y) + np.array([1e-6 * x, 0.0, 0.0])

    monkeypatch.setattr(surfaces, "enneper_psi_closure", perturbed)
    with pytest.raises(ClosureCheckError, match="closure check"):
        self_intersections(0.3)


def test_representative_radius_guard():
    with pytest.raises(ValueError):
        self_intersections(0.3, representative_radius=0.1)


def test_intersection_sweep_profile():
    eps = 0.5
    r0 = np.sqrt(3.0) * eps
    radii, gaps = intersection_sweep(eps)
    band = (radii > 0.3) & (radii < r0 - 0.05)
    above = radii > r0 + 0.02
    assert gaps[band].min() > 1e-3
    assert gaps[above].min() < 1e-2


def test_coincidence_radii_threshold():
    eps = 0.5
    hits = coincidence_radii(eps)
    assert hits.size >= 5
    assert hits.min() ** 2 >= 3.0 * eps ** 2 - 1e-6


def test_refine_intersection_behavior():
    eps = 0.5
    # on a circle that truly carries intersections the local solver
    # reaches machine-level gaps
    # seeded near the sin-reflection family pair (phi, -phi)
    gap = refine_intersection(eps, 0.95, 1.3, -1.3)
    assert gap is not None and gap <= 1e-10
    # below the critical radius it either stalls at a positive gap or
    # collapses onto a rejected coincident pair
    gap = refine_intersection(eps, 0.5, 0.6 * np.pi, 0.4 * np.pi)
    assert gap is None or gap > 1e-10
