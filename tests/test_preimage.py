import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulomb_lab.fields import sample_field
from coulomb_lab.mesh import TRI7_BARY, TRI7_WEIGHTS, build_disc_mesh
from coulomb_lab.preimage import (FILTER_REASONS, HOLOGRAPHY_TOL,
                                  PreimageSolver, coarea_check,
                                  holography_identity, regular_filter)
from coulomb_lab.sphere import cap, full_sphere, region_from_predicate
from coulomb_lab.surfaces import (closed_form_table, enneper_gauss_closure,
                                  zeta_eps)

FOUR_PI = 4.0 * np.pi
K = np.array([0.0, 0.0, 1.0])


@pytest.fixture(scope="module")
def mesh():
    return build_disc_mesh(4)


@pytest.fixture(scope="module")
def field(mesh):
    return sample_field(enneper_gauss_closure(0.5), mesh)


@pytest.fixture(scope="module")
def solver(field):
    return PreimageSolver(field)


def test_south_pole_single_hit(field, solver):
    # n(0, 0) = -k and nothing else maps there
    census = solver.census(-K)
    assert census.card == 1
    hit = census.hits[0]
    assert np.linalg.norm(hit.point) < field.mesh.h_max
    assert hit.sign == -1


def test_target_outside_image_cap(solver):
    # the image is the cap n3 <= (1 - eps^2)/(1 + eps^2) < 1
    census = solver.census(K)
    assert census.card == 0
    assert not census.degenerate_elements


def test_generic_interior_target(field, solver):
    closure = enneper_gauss_closure(0.5)
    target = np.asarray(closure(0.3, 0.2), dtype=float)
    census = solver.census(target)
    assert census.card == 1
    assert np.linalg.norm(census.hits[0].point - [0.3, 0.2]) < field.mesh.h_max
    assert census.hits[0].sign == -1


def test_vertex_hit_deduplicated(field, solver):
    # a nodal value is shared by every incident triangle; the census
    # must report the common point once
    node = 200
    census = solver.census(field.values[node])
    pts = np.array([h.point for h in census.hits])
    d = np.linalg.norm(pts - field.mesh.nodes[node], axis=1)
    assert (d < 1e-8).sum() == 1


def test_filter_rejects_poles(solver):
    res = regular_filter(solver, -K, 64)
    assert not res.accepted
    assert "pole" in res.reasons
    res = regular_filter(solver, K, 64)
    assert "pole" in res.reasons


def test_filter_rejects_boundary_targets(solver):
    closure = enneper_gauss_closure(0.5)
    target = np.asarray(closure(0.997, 0.0), dtype=float)
    res = regular_filter(solver, target, 64)
    assert not res.accepted
    assert "boundary" in res.reasons


def test_filter_accepts_generic_target(solver):
    closure = enneper_gauss_closure(0.5)
    target = np.asarray(closure(0.3, 0.2), dtype=float)
    res = regular_filter(solver, target, 64)
    assert res.accepted
    assert res.reasons == ()
    assert res.census.card == 1


def test_filter_needs_two(solver):
    with pytest.raises(ValueError):
        regular_filter(solver, [0.6, 0.0, -0.8], 1)


def test_signed_census_is_degree(solver):
    # the field is an orientation-reversing bijection onto its image,
    # so every accepted target inside the image has signed count -1
    # and targets outside the image have signed count 0
    rng = np.random.default_rng(7)
    closure = enneper_gauss_closure(0.5)
    checked = 0
    for _ in range(20):
        x, y = 0.7 * rng.uniform(-1, 1, size=2)
        if x ** 2 + y ** 2 > 0.49:
            continue
        res = regular_filter(solver, np.asarray(closure(x, y), float), 64)
        if res.accepted:
            assert sum(h.sign for h in res.census.hits) == -1
            checked += 1
    assert checked >= 10
    outside = np.array([0.3, 0.1, 0.95])
    census = solver.census(outside)
    assert sum(h.sign for h in census.hits) == 0


def test_coarea_full_sphere(field):
    region = full_sphere(3)
    g = np.ones(field.mesh.triangle_count)
    rep = coarea_check(field, g, region, 64)
    table = closed_form_table(0.5)
    assert rep.lhs == pytest.approx(table.int_abs_phi, rel=5e-3)
    assert abs(rep.gap) <= 0.05 * rep.lhs
    assert rep.excluded_measure <= 0.10 * FOUR_PI
    inside = rep.cards > 0
    assert rep.accepted[inside].mean() > 0.9
    assert np.all(rep.signed_sums[rep.accepted & inside] == -1)
    # every rejected node has at least one reason, and no reason
    # counts more nodes than were rejected
    assert tuple(rep.rejections) == FILTER_REASONS
    rejected = int((~rep.accepted).sum())
    assert max(rep.rejections.values()) <= rejected
    assert sum(rep.rejections.values()) >= rejected


def test_coarea_cap_counts_preimages_of_nh():
    # lhs integrates |Phi(n_h)| over the preimage under n_h, the map the
    # census counts; deciding membership by element centroid instead
    # gave lhs = 1.777 against rhs = 1.840 (-3.5%) here.  The cap lies
    # inside the image, so both sides also equal its measure.
    fld = sample_field(enneper_gauss_closure(0.5), build_disc_mesh(5))
    region = cap(-K, np.pi / 4.0, level=4)
    rep = coarea_check(fld, np.ones(fld.mesh.triangle_count), region, 64)
    assert abs(rep.gap) <= 0.02 * rep.lhs
    assert rep.lhs == pytest.approx(region.measure, rel=0.02)


@settings(max_examples=60, deadline=None)
@given(v=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       N=st.integers(2, 8))
def test_kernel_bound_decides_exactly(solver, v, N):
    # kernel integrals of this field lie in 2.3-5.1, so both answers
    # occur for N in 2..8
    n = np.asarray(v) / np.linalg.norm(v)
    assert solver.kernel_integral_exceeds(n, N) == (
        solver.kernel_integral(n) > N)


def test_filter_decides_integral_from_bound(solver, monkeypatch):
    # at N = 64 the near/far bound decides every target, without the
    # sum over all elements
    def exact(self, nprime):
        raise AssertionError("kernel_integral called")

    monkeypatch.setattr(PreimageSolver, "kernel_integral", exact)
    for q in full_sphere(2).nodes:
        res = regular_filter(solver, q, 64)
        assert "integral" not in res.reasons


def test_coarea_zero_weight(field):
    region = full_sphere(2)
    g = np.zeros(field.mesh.triangle_count)
    rep = coarea_check(field, g, region, 64)
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0


def test_coarea_needs_predicate(field):
    region = full_sphere(2)
    bare = dataclasses.replace(region, predicate=None)
    with pytest.raises(ValueError):
        coarea_check(field, np.ones(field.mesh.triangle_count), bare, 64)


def test_holography_full_sphere_f_term(field):
    # over the whole sphere mu = 4 pi, so the f-term equals the raw
    # term and the residual is exactly minus the potential term
    region = full_sphere(3)
    zeta = zeta_eps(0.5, field.mesh)
    rep = holography_identity(field, region, zeta)
    assert rep.f_term == pytest.approx(rep.raw_term, rel=1e-12)
    assert rep.residual == pytest.approx(-rep.omega_term, abs=1e-12)
    assert rep.mu == pytest.approx(FOUR_PI)


def test_holography_cap(field):
    region = cap(-K, np.pi / 4.0, level=3)
    zeta = zeta_eps(0.5, field.mesh)
    rep = holography_identity(field, region, zeta)
    table = closed_form_table(0.5)
    assert rep.raw_term == pytest.approx(table.delta_norm, rel=0.05)
    assert abs(rep.residual) <= HOLOGRAPHY_TOL
    assert rep.omega_l2 > 0


def test_holography_terms_match_rule_loop():
    # raw_term and omega_l2 integrate over every element whole, so one
    # loop over the 7 rule points, with np.cross for the products,
    # reproduces them
    fld = sample_field(enneper_gauss_closure(0.5), build_disc_mesh(3))
    region = cap(-K, np.pi / 4.0, level=3)
    zeta = zeta_eps(0.5, fld.mesh)
    rep = holography_identity(fld, region, zeta)
    mesh = fld.mesh
    verts = fld.values[mesh.triangles]
    zv = zeta[mesh.triangles]
    jac = np.cross(fld.d1, fld.d2)
    raw = omega_sq = 0.0
    for b, w in zip(TRI7_BARY, TRI7_WEIGHTS):
        P = b[0] * verts[:, 0] + b[1] * verts[:, 1] + b[2] * verts[:, 2]
        r = np.linalg.norm(P, axis=1)
        n = P / r[:, None]
        phi_h = (n * jac).sum(axis=1) / r ** 2
        raw += w * (mesh.areas * phi_h * (zv @ b)).sum()
        grad_q = region.potential_gradient(n) / r[:, None]
        om1 = (np.cross(n, fld.d1) * grad_q).sum(axis=1)
        om2 = (np.cross(n, fld.d2) * grad_q).sum(axis=1)
        omega_sq += w * (mesh.areas * (om1 ** 2 + om2 ** 2)).sum()
    assert rep.raw_term == pytest.approx(raw, rel=1e-12)
    assert rep.omega_l2 == pytest.approx(np.sqrt(omega_sq), rel=1e-12)


def test_holography_needs_measure(field):
    region = full_sphere(2)
    zero = dataclasses.replace(region, measure=0.0)
    with pytest.raises(ValueError):
        holography_identity(field, zero, zeta_eps(0.5, field.mesh))


def test_holography_needs_closed_form(field):
    # the same cap as test_holography_cap, known only by its predicate
    cos_rho = np.cos(np.pi / 4.0)
    region = region_from_predicate(lambda p: p @ -K >= cos_rho, level=3)
    with pytest.raises(ValueError, match="cap, the full sphere"):
        holography_identity(field, region, zeta_eps(0.5, field.mesh))
