import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from coulomb_lab import preimage
from coulomb_lab.divform import gradient_pairing
from coulomb_lab.fields import field_from_values, sample_field
from coulomb_lab.mesh import (TRI7_BARY, TRI7_WEIGHTS, build_disc_mesh,
                              element_gradient)
from coulomb_lab.preimage import (FILTER_REASONS, HOLOGRAPHY_TOL,
                                  PreimageSolver, coarea_check,
                                  holography_identity, regular_filter)
from coulomb_lab.sphere import cap, full_sphere, sphere_quadrature
from coulomb_lab.surfaces import (closed_form_table, enneper_gauss_closure,
                                  zeta_eps)

FOUR_PI = 4.0 * np.pi
K = np.array([0.0, 0.0, 1.0])


def _grad_q(region, n):
    """Vector oracle grad Q(n) = q'(t) (c - t n), t = n.c."""
    t = n @ region.center
    _, slope = region.potential_slope(t)
    return slope[:, None] * (region.center - t[:, None] * n)


def _reasons(solver, nprime, N):
    """The filter's reasons for one target, and its census."""
    flags, census = regular_filter(solver, [nprime], N)
    return tuple(r for r, f in zip(FILTER_REASONS, flags[0]) if f), census


@pytest.fixture(scope="module")
def mesh():
    return build_disc_mesh(4)


@pytest.fixture(scope="module")
def field(mesh):
    return sample_field(enneper_gauss_closure(0.5), mesh)


@pytest.fixture(scope="module")
def solver(field):
    return PreimageSolver(field)


@pytest.fixture(scope="module")
def folded(mesh):
    # the field folded across x = 0: each target has the two preimages
    # (x, y) and (-x, y), of opposite orientation
    closure = enneper_gauss_closure(0.5)
    return sample_field(lambda x, y: closure(np.abs(x), y), mesh)


@pytest.fixture(scope="module")
def solvers(solver, folded):
    return {"enneper": solver, "folded": PreimageSolver(folded)}


def test_south_pole_single_hit(field, solver):
    # n(0, 0) = -k and nothing else maps there
    census = solver.census([-K], None)
    assert census.card == 1
    assert np.linalg.norm(census.points[0]) < field.mesh.h_max
    assert census.signs[0] == -1


def test_target_outside_image_cap(solver):
    # the image is the cap n3 <= (1 - eps^2)/(1 + eps^2) < 1
    census = solver.census([K], None)
    assert census.card == 0
    assert census.degenerate.size == 0


def test_generic_interior_target(field, solver):
    closure = enneper_gauss_closure(0.5)
    target = np.asarray(closure(0.3, 0.2), dtype=float)
    census = solver.census([target], None)
    assert census.card == 1
    assert np.linalg.norm(census.points[0] - [0.3, 0.2]) < field.mesh.h_max
    assert census.signs[0] == -1


def test_vertex_hit_deduplicated(field, solver):
    # a nodal value is shared by every incident triangle; the census
    # must report the common point once
    node = 200
    census = solver.census([field.values[node]], None)
    d = np.linalg.norm(census.points - field.mesh.nodes[node], axis=1)
    assert (d < 1e-8).sum() == 1


@settings(max_examples=40, deadline=None)
@given(v=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1))
def test_census_pruning_misses_no_hit(solver, v):
    # the centroid tree prunes the (target, element) pairs the census
    # solves on; with every element a candidate of every target, the
    # census must find the same hits.  An element whose centroid value
    # lies farther than twice its radius from n' holds no preimage, so
    # a singular system there is no degenerate hit: the census flags
    # only the near ones.  (At n' = e1 the field's symmetry makes 64
    # far systems singular.)  The batch holds n' and -n'.
    n = np.asarray(v) / np.linalg.norm(v)
    batch = np.array([n, -n])
    nt = solver.fld.mesh.triangle_count
    pruned = solver.census(batch, None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PreimageSolver, "candidates",
                   lambda self, nprimes, near:
                   np.arange(len(nprimes) * nt))
        full = solver.census(batch, None)
    assert np.array_equal(pruned.owner, full.owner)
    assert np.array_equal(pruned.signs, full.signs)
    assert np.allclose(pruned.points, full.points, rtol=0.0, atol=1e-12)
    near = np.concatenate([
        q * nt + np.flatnonzero(np.linalg.norm(solver.fld.nbar - t, axis=1)
                                <= 2.0 * solver.radius + 1e-9)
        for q, t in enumerate(batch)])
    assert np.array_equal(pruned.degenerate,
                          np.intersect1d(full.degenerate, near))


@settings(max_examples=60, deadline=None)
@example(which="folded", targets=[(1e-10, 0.0, -1.0)])
@given(which=st.sampled_from(["enneper", "folded"]),
       targets=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1), min_size=1, max_size=6))
def test_census_hits_meet_the_definition(solvers, which, targets):
    # each hit X checked against the definition of a preimage, not the
    # census's method: in every element that holds X (disc barycentrics
    # >= -1e-9), P(X) is a positive multiple of n'; at a hit strictly
    # inside one element, the sign is that of Phi(n_h) = P.(d1 x d2) /
    # |P|^3 there.  The folded field has elements of both orientations.
    # An element admitted by the slack alone holds X only up to a
    # barycentric excess s = max(0, -min bary); extrapolated there, P
    # moves from the hit by up to 2 s max|v_i - v_j|, so the direction
    # bound grows by that much.  The pinned example is a hit 2.5e-11
    # from the folded field's centre node, where a fan element with
    # s = 8e-10 points 2e-10 from n'.
    # The census runs as it is and with every element a candidate: the
    # centroid tree keeps the elements that P maps near -n' out of the
    # first, so only the second tests the ray side.
    solver = solvers[which]
    fld = solver.fld
    mesh = fld.mesh
    nprimes = np.array(targets)
    nprimes /= np.linalg.norm(nprimes, axis=1)[:, None]
    pruned = solver.census(nprimes, None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PreimageSolver, "candidates",
                   lambda self, nprimes, near:
                   np.arange(len(nprimes) * mesh.triangle_count))
        full = solver.census(nprimes, None)
    corners = mesh.nodes[mesh.triangles]
    edges = np.stack([corners[:, 1] - corners[:, 0],
                      corners[:, 2] - corners[:, 0]], axis=2)
    for q, x, sign in chain(
            *(zip(c.owner, c.points, c.signs) for c in (pruned, full))):
        lam = np.linalg.solve(edges, (x - corners[:, 0])[..., None])[..., 0]
        bary = np.column_stack([1.0 - lam.sum(axis=1), lam])
        holders = np.flatnonzero(bary.min(axis=1) >= -1e-9)
        assert holders.size > 0
        for e in holders:
            v = fld.values[mesh.triangles[e]]
            p = bary[e] @ v
            spread = np.linalg.norm(v[:, None] - v[None], axis=2).max()
            slack = 2.0 * max(0.0, -bary[e].min()) * spread
            assert p @ nprimes[q] > 0.0
            assert (np.linalg.norm(p / np.linalg.norm(p) - nprimes[q])
                    < 1e-10 + slack)
        if holders.size == 1 and bary[holders[0]].min() > 1e-9:
            assert sign == np.sign(p @ fld.cross[holders[0]])


def test_filter_rejects_poles(solver):
    reasons, _ = _reasons(solver, -K, 64)
    assert "pole" in reasons
    reasons, _ = _reasons(solver, K, 64)
    assert "pole" in reasons


def test_filter_rejects_boundary_targets(solver):
    closure = enneper_gauss_closure(0.5)
    target = np.asarray(closure(0.997, 0.0), dtype=float)
    reasons, _ = _reasons(solver, target, 64)
    assert "boundary" in reasons


def test_filter_rejects_close_hits(solvers):
    # the folded field's two preimages of a target lie within one mesh
    # width of each other only at the fold.  The batch holds a target
    # of each kind.
    closure = enneper_gauss_closure(0.5)
    batch = [np.asarray(closure(x, 0.3), float) for x in (0.015, 0.5)]
    flags, census = regular_filter(solvers["folded"], batch, 64)
    separation = flags[:, FILTER_REASONS.index("separation")]
    assert separation.tolist() == [True, False]
    assert not flags[1].any()
    assert census.cards.tolist() == [2, 2]
    assert np.array_equal(census.signs, [-1, 1, -1, 1])


def test_filter_accepts_generic_target(solver):
    closure = enneper_gauss_closure(0.5)
    target = np.asarray(closure(0.3, 0.2), dtype=float)
    reasons, census = _reasons(solver, target, 64)
    assert reasons == ()
    assert census.card == 1


def test_filter_needs_two(solver):
    with pytest.raises(ValueError):
        regular_filter(solver, [[0.6, 0.0, -0.8]], 1)


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
        reasons, census = _reasons(
            solver, np.asarray(closure(x, y), float), 64)
        if reasons == ():
            assert census.signs.sum() == -1
            checked += 1
    assert checked >= 10
    outside = np.array([0.3, 0.1, 0.95])
    census = solver.census([outside], None)
    assert census.signs.sum() == 0


def test_coarea_full_sphere(field):
    rep = coarea_check(field, sphere_quadrature(3), 64)
    table = closed_form_table(0.5)
    assert rep.lhs == pytest.approx(table.int_abs_phi, rel=5e-3)
    assert abs(rep.lhs - rep.rhs) <= 0.05 * rep.lhs
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


@pytest.mark.parametrize("N, rejections", [
    # the per-target filter's counts, before the census took batches
    (4, {"pole": 48, "degenerate": 0, "count": 0, "boundary": 28,
         "separation": 0, "integral": 156}),
    (8, {"pole": 12, "degenerate": 0, "count": 0, "boundary": 28,
         "separation": 0, "integral": 0}),
])
def test_coarea_small_n_rejections(field, N, rejections):
    rep = coarea_check(field, sphere_quadrature(3), N)
    assert rep.rejections == rejections


def test_coarea_is_chunk_invariant(field, monkeypatch):
    # the filter takes the nodes in blocks of at most _PAIR_BLOCK grid
    # candidates, or of one node (at N = 8, about 950 pairs per node);
    # the block size must not change any decision, count or
    # (sequentially summed) side
    quad = sphere_quadrature(2)
    reports = []
    for block in (1, 10000, 1 << 40):
        monkeypatch.setattr(preimage, "_PAIR_BLOCK", block)
        reports.append(coarea_check(field, quad, 8))
    first = reports[0]
    assert not first.accepted.all()
    for rep in reports[1:]:
        for name in ("cards", "accepted", "signed_sums"):
            assert np.array_equal(getattr(rep, name), getattr(first, name))
        assert rep.rejections == first.rejections
        assert (rep.lhs, rep.rhs, rep.excluded_measure) == (
            first.lhs, first.rhs, first.excluded_measure)


def _abs_phi_rule(fld):
    """Oracle of coarea's lhs: the sum over the elements of the 7-point
    rule of |Phi(n_h)|, Phi(n_h) = P.(d1 x d2) / |P|^3."""
    mesh = fld.mesh
    verts = fld.values[mesh.triangles]
    total = np.zeros(mesh.triangle_count)
    for b, w in zip(TRI7_BARY, TRI7_WEIGHTS):
        P = b @ verts
        r = np.linalg.norm(P, axis=1)
        total += w * np.abs((P * fld.cross).sum(axis=1)) / r ** 3
    return float(mesh.areas @ total)


@settings(max_examples=20, deadline=None)
@given(eps=st.floats(0.3, 1.0), level=st.integers(3, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_coarea_lhs_is_the_solid_angle_sum(mesh, field3, eps, level, seed):
    # lhs sums the solid angles of the elements' images.  The 7-point
    # rule approaches it: measured within 9.5e-7 relative at eps 0.3,
    # mesh level 3, the worst of this range.  An orthogonal map of the
    # values keeps each solid angle's size.  Holography's raw term with
    # zeta = 1 is the same rule's signed integral: Phi < 0 here.
    fld = sample_field(enneper_gauss_closure(eps),
                       {3: field3.mesh, 4: mesh}[level])
    quad = sphere_quadrature(0)
    lhs = coarea_check(fld, quad, 64).lhs
    rule = _abs_phi_rule(fld)
    assert abs(lhs - rule) <= 2e-6 * lhs
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    turned = field_from_values(fld.values @ q.T, fld.mesh)
    assert coarea_check(turned, quad, 64).lhs == pytest.approx(
        lhs, rel=1e-12, abs=0.0)
    raw = holography_identity(fld, full_sphere(),
                              np.ones(fld.mesh.node_count)).raw_term
    assert raw == pytest.approx(-rule, rel=1e-12, abs=0.0)
    assert abs(raw + lhs) <= 2e-6 * lhs


@settings(max_examples=60, deadline=None)
@given(targets=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1), min_size=1, max_size=8),
       N=st.integers(2, 8))
def test_kernel_bound_decides_exactly(solver, targets, N):
    # kernel integrals of this field lie in 2.3-5.1, so both answers
    # occur for N in 2..8; the bound of a batch decides each target
    # as the exact sum does
    nprimes = np.array(targets)
    nprimes /= np.linalg.norm(nprimes, axis=1)[:, None]
    flags, _ = regular_filter(solver, nprimes, N)
    exact = [solver.kernel_integral(n) > N for n in nprimes]
    assert flags[:, FILTER_REASONS.index("integral")].tolist() == exact


def _one_query_per_target(self, nprimes, near):
    """Reference census candidates: one sorted k-d tree query per batch
    at twice the largest radius, then the radius test per target."""
    nt = self.fld.mesh.triangle_count
    lists = cKDTree(self.fld.nbar).query_ball_point(
        nprimes, self.reach, return_sorted=True)
    codes = []
    for q, elems in enumerate(lists):
        elems = np.asarray(elems, dtype=np.int64)
        d = np.linalg.norm(self.fld.nbar[elems] - nprimes[q], axis=1)
        codes.append(q * nt + elems[d <= 2.0 * self.radius[elems] + 1e-9])
    return np.concatenate(codes)


def _integral_per_target(solver, tree, nprime, N):
    """Reference kernel-integral test of one target, with its own query
    at r of the k-d `tree` of the centroid values and its own bound."""
    r = 2.0 * solver.fld.mesh.area / N
    if r < 2.0:
        near = np.asarray(tree.query_ball_point(nprime, r), dtype=np.int64)
        d = np.linalg.norm(solver.fld.nbar[near] - nprime, axis=1)
        a = solver.fld.mesh.areas[near]
        bound = float((a / np.maximum(d, 1e-300)).sum()) \
            + (solver.fld.mesh.area - float(a.sum())) / r
        if bound * (1.0 + 1e-12) <= N:
            return False
    return solver.kernel_integral(nprime) > N


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7, 8, 16, 64])
def test_filter_matches_separate_queries(solver, N):
    # one grid search serves the census and the integral bound; against
    # the census of the per-batch candidate query and the per-target
    # bound, every flag and hit must be the same.  The query's
    # distances are np.linalg.norm's to the last bit.
    nodes = sphere_quadrature(2).nodes
    nprimes = np.vstack([nodes, np.random.default_rng(N).normal(
        size=(40, 3))])
    flags, census = regular_filter(solver, nprimes, N)
    unit = nprimes / np.linalg.norm(nprimes, axis=1)[:, None]
    some = unit[:8]
    radius = preimage._filter_radius(solver, N)[1]
    owner, elems, d = solver.grid(radius).pairs(some, radius)
    assert np.array_equal(
        d, np.linalg.norm(solver.fld.nbar[elems] - some[owner], axis=1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PreimageSolver, "candidates", _one_query_per_target)
        oracle_flags, oracle = regular_filter(solver, nprimes, N)
    tree = cKDTree(solver.fld.nbar)
    oracle_flags[:, FILTER_REASONS.index("integral")] = [
        _integral_per_target(solver, tree, n, N) for n in unit]
    assert np.array_equal(flags, oracle_flags)
    for name in ("owner", "points", "signs", "degenerate"):
        assert np.array_equal(getattr(census, name), getattr(oracle, name))


def test_coarea_small_n_memory_is_blocked(field):
    # at N = 4 the integral bound's tree query holds about 3800 of the
    # 6144 elements per node, 4.9 million pairs over the 1280 nodes;
    # the pair blocks keep the traced peak near 1.2 MB, where one block
    # of every node would hold over 100 MB
    quad = sphere_quadrature(3)
    tracemalloc.start()
    try:
        coarea_check(field, quad, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_filter_decides_integral_from_bound(solver, monkeypatch):
    # at N = 64 the near/far bound decides every target, without the
    # sum over all elements
    def exact(self, nprime):
        raise AssertionError("kernel_integral called")

    monkeypatch.setattr(PreimageSolver, "kernel_integral", exact)
    flags, _ = regular_filter(solver, sphere_quadrature(2).nodes, 64)
    assert not flags[:, FILTER_REASONS.index("integral")].any()


def test_holography_full_sphere_f_term(field):
    # over the whole sphere mu = 4 pi, so the f-term equals the raw
    # term and the residual is exactly minus the potential term
    region = full_sphere()
    zeta = zeta_eps(0.5, field.mesh)
    rep = holography_identity(field, region, zeta)
    assert rep.f_term == pytest.approx(rep.raw_term, rel=1e-12)
    assert rep.residual == pytest.approx(-rep.omega_term, abs=1e-12)
    assert rep.mu == pytest.approx(FOUR_PI)


def test_holography_cap(field):
    region = cap(-K, np.pi / 4.0)
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
    region = cap(-K, np.pi / 4.0)
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
        grad_q = _grad_q(region, n) / r[:, None]
        om1 = (np.cross(n, fld.d1) * grad_q).sum(axis=1)
        om2 = (np.cross(n, fld.d2) * grad_q).sum(axis=1)
        omega_sq += w * (mesh.areas * (om1 ** 2 + om2 ** 2)).sum()
    assert rep.raw_term == pytest.approx(raw, rel=1e-12)
    assert rep.omega_l2 == pytest.approx(np.sqrt(omega_sq), rel=1e-12)


_DIRECTIONS = st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * np.pi))


def _unit(z, angle):
    r = np.sqrt(1.0 - z * z)
    return np.array([r * np.cos(angle), r * np.sin(angle), z])


@pytest.fixture(scope="module")
def field3():
    return sample_field(enneper_gauss_closure(0.5), build_disc_mesh(3))


@settings(max_examples=30, deadline=None)
@given(center=_DIRECTIONS, rho=st.floats(0.05, np.pi))
# c on the equator with rho near pi: 1 + t falls to 1.3e-4 at a
# rule point of element 346, which was off by 2.07e-12 of the
# largest omega_sq
@example(center=(0.0, 1.0), rho=3.140625)
def test_holography_kernel_matches_point_oracle(field3, center, rho):
    # the affine-scalar kernel against the vector form at each rule
    # point: Omega_i = grad Q(n).(n x d_i) / |P| with grad Q = q'(t)
    # (c - t n), formed by gradient_pairing.  Both form 1 + t from a
    # rounded t, which q'(t) ~ 1/(1 + t) amplifies as n -> -c, so each
    # element's bound is 1e-12 of the largest term plus 8 eps times
    # the rule sum of |term| / (1 + t).
    fld = field3
    mesh = fld.mesh
    region = cap(_unit(*center), rho)
    zeta = zeta_eps(0.5, mesh)
    gz = element_gradient(zeta, mesh)
    elems = np.arange(mesh.triangle_count)
    verts = fld.values[mesh.triangles]
    (f, pairing, pz, omega_sq), _, _ = preimage._element_sums(
        fld, region, zeta, gz, elems)
    want = np.zeros((4, mesh.triangle_count))
    slack = np.zeros((4, mesh.triangle_count))
    for b, w in zip(TRI7_BARY, TRI7_WEIGHTS):
        P = b @ verts
        r = np.linalg.norm(P, axis=1)
        n = P / r[:, None]
        inside, _ = region.potential_slope(n @ region.center)
        phi_z = (n * fld.cross).sum(axis=1) / r ** 2 \
            * (zeta[mesh.triangles] @ b)
        om1, om2 = gradient_pairing(_grad_q(region, n) / r[:, None], n,
                                    fld.d1, fld.d2)
        point = np.array([phi_z, np.where(inside, phi_z, 0.0),
                          om2 * gz[:, 0] - om1 * gz[:, 1],
                          om1 ** 2 + om2 ** 2])
        want += w * point
        slack += w * np.abs(point) / (1.0 + n @ region.center)
    bounds = 1e-12 * np.abs(want).max(axis=1, keepdims=True) \
        + 8.0 * np.finfo(float).eps * slack
    for got, ref, bound in zip((pz, f, pairing, omega_sq), want, bounds):
        assert np.all(np.abs(got - ref) <= bound)


def test_holography_is_chunk_invariant(field, monkeypatch):
    # the whole pass takes _CHUNK elements, and the ray rule
    # _CHUNK >> 6 straddling ones, at a time: one at a time at 64
    region = cap(-K, np.pi / 4.0)
    zeta = zeta_eps(0.5, field.mesh)
    reports = []
    for chunk in (64, 4096, field.mesh.triangle_count):
        monkeypatch.setattr(preimage, "_CHUNK", chunk)
        reports.append(holography_identity(field, region, zeta))
    first = reports[0]
    scale = abs(first.raw_term)
    for rep in reports[1:]:
        for name in ("raw_term", "f_term", "omega_term", "omega_l2"):
            assert getattr(rep, name) == pytest.approx(
                getattr(first, name), rel=1e-13, abs=0.0)
        assert abs(rep.residual - first.residual) <= 1e-13 * scale


# Barycentrics of the vertices of a triangle's four midpoint children.
_CHILDREN = 0.5 * np.array([[2, 0, 0], [1, 1, 0], [1, 0, 1],
                            [1, 1, 0], [0, 2, 0], [0, 1, 1],
                            [1, 0, 1], [0, 1, 1], [0, 0, 2],
                            [1, 1, 0], [0, 1, 1], [1, 0, 1]])


@settings(max_examples=30, deadline=None)
@given(center=_DIRECTIONS, rho=st.floats(0.05, np.pi),
       depth=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_straddle_test_certifies_one_side(field3, center, rho, depth,
                                          seed):
    # a sub-triangle that _straddles clears has its vertices and its
    # rule points on one side of the boundary; the sub-triangles are
    # drawn from the elements whose image comes near the boundary
    # (holography_identity asks about whole elements, depth 0)
    fld = field3
    region = cap(_unit(*center), rho)
    rng = np.random.default_rng(seed)
    verts = fld.values[fld.mesh.triangles]
    spread = np.linalg.norm(verts - fld.nbar[:, None], axis=2).max(axis=1)
    near = np.flatnonzero(
        np.abs(region.boundary_distance(fld.nbar)) <= 3.0 * spread)
    if near.size == 0:
        return
    elems = rng.choice(near, 512)
    bary = np.broadcast_to(np.eye(3), (elems.size, 3, 3))
    for _ in range(depth):
        children = (_CHILDREN @ bary).reshape(-1, 4, 3, 3)
        bary = children[np.arange(elems.size),
                        rng.integers(0, 4, elems.size)]
    P = np.concatenate([bary, TRI7_BARY @ bary], axis=1) @ verts[elems]
    n = P / np.linalg.norm(P, axis=2, keepdims=True)
    cleared = ~preimage._straddles(region, n[:, :3].T)
    inside = n[cleared] @ region.center >= np.cos(rho)
    assert np.all(inside.all(axis=1) | ~inside.any(axis=1))
