import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from coulomb_lab import mesh as mesh_module
from coulomb_lab.mesh import MeshResourceError
from coulomb_lab.sphere import (BYTES_PER_FACE, PointGrid,
                                _icosahedron_faces, cap, complement_region,
                                full_sphere, make_region,
                                region_from_predicate, sphere_quadrature,
                                spherical_areas, subdivide_faces)

FOUR_PI = 4.0 * np.pi


def contains(region, points):
    """Membership oracle: the cosine to the centre is at least cos(rho)."""
    return np.asarray(points) @ region.center >= np.cos(region.rho)


def cap_nodes(region, level):
    """Node-set oracle of a cap: the level's quadrature nodes inside it,
    with the rule's weights."""
    quad = sphere_quadrature(level)
    return make_region(quad, contains(region, quad.nodes))


def potential_gradient(region, points):
    """Vector oracle grad Q(n) = q'(t) (c - t n), t = n.c, from the
    cap's scalar slope q'."""
    points = np.atleast_2d(points)
    t = points @ region.center
    inside, slope = region.potential_slope(t)
    assert np.array_equal(inside, contains(region, points))
    return slope[:, None] * (region.center - t[:, None] * points)


def test_face_counts_and_weight_sum():
    for level in (0, 1, 2, 3):
        quad = sphere_quadrature(level)
        assert quad.weights.shape == (20 * 4 ** level,)
        assert quad.weights.sum() == pytest.approx(FOUR_PI, abs=1e-12)
        assert np.allclose(np.linalg.norm(quad.nodes, axis=1), 1.0)


def test_quadrature_guards():
    with pytest.raises(ValueError):
        sphere_quadrature(-1)
    with pytest.raises(MeshResourceError):
        sphere_quadrature(99)


def test_quadrature_memory_guard(monkeypatch):
    # a machine one byte short of a level-6 quadrature (20 * 4^6 faces)
    # refuses level 6, cached or not, and still builds level 5
    sphere_quadrature(6)
    short = BYTES_PER_FACE * 20 * 4 ** 6 - 1
    monkeypatch.setattr(mesh_module, "physical_memory", lambda: short)
    with pytest.raises(MeshResourceError, match="physical memory"):
        sphere_quadrature(6)
    assert sphere_quadrature(5).weights.shape == (20 * 4 ** 5,)


def test_subdivision_preserves_total_area():
    faces = subdivide_faces(_icosahedron_faces())
    children = subdivide_faces(faces)
    assert children.shape[0] == 4 * faces.shape[0]
    assert spherical_areas(children).sum() == pytest.approx(
        FOUR_PI, abs=1e-12
    )
    # the level-2 rule is these faces' centroids and areas
    quad = sphere_quadrature(2)
    centroids = children.mean(axis=1)
    assert np.array_equal(
        quad.nodes, centroids / np.linalg.norm(centroids, axis=1,
                                                keepdims=True))
    assert np.array_equal(quad.weights, spherical_areas(children))


def test_face_diameter_shrinks():
    d = [sphere_quadrature(lv).face_diameter for lv in (2, 3, 4)]
    assert d[1] < d[0] < 2.1 * d[1]
    assert d[2] < d[1]


def test_smooth_integrand_accuracy():
    quad = sphere_quadrature(3)
    # integral of (s3)^2 over S2 is 4 pi / 3
    val = quad.weights @ quad.nodes[:, 2] ** 2
    assert val == pytest.approx(FOUR_PI / 3.0, rel=1e-3)


def test_cap_measure_exact():
    region = cap(np.array([0.0, 0.0, 1.0]), np.pi / 3)
    exact = 2.0 * np.pi * (1.0 - np.cos(np.pi / 3))
    assert region.measure == pytest.approx(exact, abs=1e-14)
    # the rule's weight sum over the cap's nodes approaches the exact
    # measure under refinement
    coarse = abs(cap_nodes(region, 1).measure - exact)
    fine = abs(cap_nodes(region, 5).measure - exact)
    assert fine < coarse
    assert fine < 0.02 * exact


def test_cap_membership():
    region = cap(np.array([0.0, 0.0, -1.0]), np.pi / 4)
    # the cosines of -k and k to the centre -k are 1 and -1
    inside, _ = region.potential_slope(np.array([1.0, -1.0]))
    assert inside.tolist() == [True, False]
    assert contains(region, [[0.0, 0.0, -1.0]])[0]
    assert not contains(region, [[0.0, 0.0, 1.0]])[0]
    nodes = cap_nodes(region, 4).nodes
    assert np.all(nodes[:, 2] <= -np.cos(np.pi / 4) + 1e-12)


def test_cap_radius_guard():
    with pytest.raises(ValueError):
        cap([0, 0, 1.0], 0.0)
    with pytest.raises(ValueError):
        cap([0, 0, 1.0], 3.5)
    # rho = pi is the full sphere: cos(pi) is exactly -1, so its measure
    # is exactly 4 pi and its potential gradient exactly 0 off k
    assert cap([0, 0, 1.0], np.pi).measure == FOUR_PI
    region = full_sphere()
    quad = sphere_quadrature(3)
    assert cap_nodes(region, 3).nodes.shape[0] == quad.nodes.shape[0]
    assert region.measure == FOUR_PI
    assert np.all(potential_gradient(region, quad.nodes) == 0.0)


def test_cap_of_zero_measure_is_rejected():
    # cos(1e-9) rounds to 1, so 2 pi (1 - cos rho) is 0; at 1e-7 it is
    # about 3e-14
    with pytest.raises(ValueError, match="positive measure"):
        cap([0, 0, 1.0], 1e-9)
    assert cap([0, 0, 1.0], 1e-7).measure > 0.0


def test_complement_region():
    region = cap(np.array([1.0, 0.0, 0.0]), 0.6)
    comp = complement_region(region)
    assert comp.measure == pytest.approx(FOUR_PI - region.measure)
    counts = [cap_nodes(c, 3).nodes.shape[0] for c in (region, comp)]
    assert sum(counts) == 20 * 4 ** 3
    assert not contains(comp, [[1.0, 0.0, 0.0]])[0]


def test_region_from_predicate():
    region = region_from_predicate(lambda p: p[:, 2] > 0, level=4)
    assert region.measure == pytest.approx(2.0 * np.pi, rel=0.05)
    assert np.all(region.nodes[:, 2] > 0)


_DIRECTIONS = st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * np.pi))


def _unit(z, angle):
    r = np.sqrt(1.0 - z * z)
    return np.array([r * np.cos(angle), r * np.sin(angle), z])


@settings(max_examples=40, deadline=None)
@given(n=_DIRECTIONS, center=_DIRECTIONS, rho=st.floats(0.5, 2.6),
       kind=st.sampled_from(["cap", "sphere", "complement"]))
def test_potential_gradient_matches_quadrature(n, center, rho, kind):
    # grad Q(n) is the tangential part of (1/mu) int_K s / (1 - n.s) ds;
    # compare the closed forms with the level-7 centroid rule away from
    # the boundary.  For e orthogonal to n the integrand integrates to 0
    # over S2, so when n lies in K the rule sums -int over K^c instead,
    # which stays 0.2 away from the singularity at s = n
    n = _unit(*n)
    base = cap(_unit(*center), rho)
    region = {"cap": base, "sphere": full_sphere(),
              "complement": complement_region(base)}[kind]
    dist = region.boundary_distance(n)[0]
    assume(abs(dist) >= 0.2)
    grad = potential_gradient(region, n)[0]
    if kind == "sphere":
        # the complement of the full sphere is empty
        assert np.all(grad == 0.0)
        return
    assert abs(grad @ n) <= 1e-12
    part, sign = (complement_region(region), -1.0) if dist < 0 \
        else (region, 1.0)
    part = cap_nodes(part, 7)
    a = np.zeros(3)
    a[int(np.argmin(np.abs(n)))] = 1.0
    t1 = np.cross(n, a)
    t1 /= np.linalg.norm(t1)
    for e in (t1, np.cross(n, t1)):
        val = sign * part.weights @ ((part.nodes @ e)
                                     / (1.0 - part.nodes @ n))
        assert abs(grad @ e - val / region.measure) <= 0.02 * (
            1.0 + np.linalg.norm(grad)
        )


@settings(max_examples=60, deadline=None)
@given(center=_DIRECTIONS, rho=st.floats(0.05, np.pi - 0.05))
def test_complement_is_the_opposite_cap(center, rho):
    # the complement of cap(c, rho) is cap(-c, pi - rho).  The identity
    # mu_c grad Q_c = -mu grad Q is checked to 1e-12 relative; for rho
    # within 0.05 of 0 or pi, 1 - cos(rho) loses about 1e-16 / rho^2 of
    # its relative accuracy to cancellation
    region = cap(_unit(*center), rho)
    comp = complement_region(region)
    assert region.measure + comp.measure == pytest.approx(FOUR_PI,
                                                          abs=1e-12)
    nodes = sphere_quadrature(3).nodes
    assert np.allclose(comp.boundary_distance(nodes),
                       -region.boundary_distance(nodes), rtol=0, atol=1e-12)
    mu_grad = region.measure * potential_gradient(region, nodes)
    diff = comp.measure * potential_gradient(comp, nodes) + mu_grad
    assert np.abs(diff).max() <= 1e-12 * np.abs(mu_grad).max()
    inside = {tuple(p) for p in cap_nodes(region, 3).nodes}
    outside = {tuple(p) for p in cap_nodes(comp, 3).nodes}
    assert not inside & outside
    off_plane = np.abs(nodes @ region.center - np.cos(rho)) > 1e-12
    assert {tuple(p) for p in nodes[off_plane]} <= inside | outside


def _hull_faces():
    """Oracle of the icosahedron's faces: the convex hull of its
    vertices, each face turned outward."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            verts.extend([(0.0, a, b), (a, b, 0.0), (b, 0.0, a)])
    verts = np.asarray(verts)
    verts /= np.linalg.norm(verts, axis=-1, keepdims=True)
    faces = verts[ConvexHull(verts).simplices]
    n = np.cross(faces[:, 1] - faces[:, 0], faces[:, 2] - faces[:, 0])
    inward = np.einsum("fi,fi->f", n, faces.mean(axis=1)) < 0
    faces[inward] = faces[inward][:, [0, 2, 1]]
    return faces


def test_face_table_is_the_hull():
    # the fixed face table gives the hull's faces in the hull's order,
    # so every quadrature level is the one the hull gave, to the bit
    faces = _hull_faces()
    assert np.array_equal(_icosahedron_faces(), faces)
    for level in range(6):
        quad = sphere_quadrature(level)
        nodes = faces.mean(axis=1)
        assert np.array_equal(
            quad.nodes, nodes / np.linalg.norm(nodes, axis=-1,
                                               keepdims=True))
        assert np.array_equal(quad.weights, spherical_areas(faces))
        d = np.linalg.norm(faces - faces[:, [1, 2, 0]], axis=2)
        assert quad.face_diameter == float(d.max())
        faces = subdivide_faces(faces)


def _grid_pairs_oracle(points, queries, r):
    """Every (query, point) pair within r, by brute force, as a dict of
    np.linalg.norm distances."""
    d = np.linalg.norm(points[None] - queries[:, None], axis=2)
    owner, index = np.nonzero(d <= r)
    return {(q, j): d[q, j] for q, j in zip(owner.tolist(), index.tolist())}


_COORD = st.floats(-1.5, 1.5, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=1,
                       max_size=60),
       queries=st.lists(st.tuples(*[st.floats(-4.0, 4.0)] * 3), min_size=0,
                        max_size=12),
       h=st.floats(0.01, 2.0),
       ratio=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 5.0)),
       copies=st.integers(0, 3))
# dz^2 underflows to 0, so the pair is at distance 0 across a cube face
@example(points=[(0.0, 0.0, 0.0)], queries=[(0.0, 0.0, -1e-300)], h=1.0,
         ratio=0.0, copies=0)
def test_point_grid_matches_brute_force(points, queries, h, ratio, copies):
    # queries may lie outside the points' bounding box, r = ratio * h
    # differs from the side h or is 0, and some queries repeat points,
    # so r = 0 finds pairs
    r = ratio * h
    points = np.array(points)
    queries = np.vstack([np.array(queries).reshape(-1, 3),
                         points[:copies]])
    grid = PointGrid(points, h)
    owner, index, d = grid.pairs(queries, r)
    assert np.all(np.diff(owner) >= 0)
    found = dict(zip(zip(owner.tolist(), index.tolist()), d.tolist()))
    assert len(found) == owner.size
    assert found == _grid_pairs_oracle(points, queries, r)
    # bitwise: == on floats, and the pair sets agree
    assert np.array_equal(
        d, np.linalg.norm(points[index] - queries[owner], axis=1))
    counts = grid.counts(queries, r)
    assert counts.shape == (queries.shape[0],)
    assert np.all(counts >= np.bincount(owner, minlength=queries.shape[0]))


@pytest.mark.parametrize("h, r", [(0.25, 0.5), (0.5, 0.5), (0.375, 0.375),
                                  (0.125, 0.3125)])
def test_point_grid_finds_pairs_at_distance_r(h, r):
    # a pair exactly r apart along each axis, with both points on cube
    # faces wherever h divides them (dyadic values, so every sum is
    # exact), is within r
    q = np.array([[h, 2.0 * h, -h]])
    for axis in range(3):
        p = q + r * np.eye(3)[axis]
        assert np.linalg.norm(p - q) == r
        owner, index, d = PointGrid(np.vstack([p, -p]), h).pairs(q, r)
        assert owner.tolist() == [0] and index.tolist() == [0]
        assert d.tolist() == [r]


def test_point_grid_keeps_pairs_whose_rounding_reaches_r():
    # p - q = 1 + 2^-53 rounds to r = h = 1, so the pair counts; but
    # q + r = 1 - 2^-53 lies in the cube below p's, so only the widened
    # box reaches p
    q = np.array([[-2.0 ** -53, 0.0, 0.0]])
    p = np.array([[1.0, 0.0, 0.0]])
    assert np.linalg.norm(p - q) == 1.0
    assert np.floor(q[0, 0] + 1.0) == 0.0
    owner, index, d = PointGrid(p, 1.0).pairs(q, 1.0)
    assert index.tolist() == [0] and d.tolist() == [1.0]


def test_point_grid_side_keeps_keys_in_range():
    # a side far below the points' spread is widened so that the cube
    # keys fit an int64; the search is still exact
    rng = np.random.default_rng(5)
    points = rng.normal(size=(200, 3))
    grid = PointGrid(points, 1e-12)
    assert grid.h >= np.ptp(points) * 2.0 ** -20
    r = 3.0 * grid.h
    owner, index, d = grid.pairs(points[:10], r)
    oracle = _grid_pairs_oracle(points, points[:10], r)
    assert dict(zip(zip(owner.tolist(), index.tolist()), d.tolist())) \
        == oracle


def test_point_grid_refuses_runs_beyond_memory():
    # a side widened to 2^-20 of the spread, queried at r = 0.5, would
    # need about (2 r / h)^2 int64 run bounds per query, 2.18 TiB for
    # ten queries.  The batch is refused before any of them is
    # allocated, by `pairs` and by `counts`
    rng = np.random.default_rng(5)
    points = rng.normal(size=(200, 3))
    grid = PointGrid(points, 1e-12)
    assert grid.h == np.ptp(points) * 2.0 ** -20
    tracemalloc.start()
    try:
        for search in (grid.pairs, grid.counts):
            with pytest.raises(MeshResourceError, match="physical memory"):
                search(points[:10], 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
