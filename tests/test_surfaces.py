import numpy as np
import pytest

from coulomb_lab.mesh import build_disc_mesh
from coulomb_lab import surfaces
from coulomb_lab.pde import gradient_l2
from coulomb_lab.surfaces import (closed_form_table, coincidence_radii,
                                  enneper_gauss_closure,
                                  enneper_psi_closure, lam,
                                  refine_intersection,
                                  self_intersections, zeta_eps)


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


def _disc_points(seed, count=200):
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0.0, 1.0, count))
    t = rng.uniform(0.0, 2.0 * np.pi, count)
    return r * np.cos(t), r * np.sin(t)


def _fd_tangents(psi, x, y, h=1e-5):
    # Psi_eps is cubic, so central differences are exact up to h^2 / 6
    # times a bounded third derivative, plus rounding
    a = (psi(x + h, y) - psi(x - h, y)) / (2.0 * h)
    b = (psi(x, y + h) - psi(x, y - h)) / (2.0 * h)
    return a, b


def test_tangents_conformal():
    # |Psi_x| = |Psi_y| = lambda / (1 + eps^2) and Psi_x . Psi_y = 0
    rng = np.random.default_rng(1)
    eps = 0.4
    x, y = rng.uniform(-1, 1, size=(2, 100))
    a, b = _fd_tangents(enneper_psi_closure(eps), x, y)
    ll = lam(eps, x, y) / (1.0 + eps ** 2)
    assert np.abs((a * b).sum(axis=-1)).max() < 1e-9
    assert np.abs((a * a).sum(axis=-1) - ll ** 2).max() < 1e-9
    assert np.abs((b * b).sum(axis=-1) - ll ** 2).max() < 1e-9


def test_conformal_check_enneper(mesh):
    # on the mesh centroids: E = G, F = 0, and the log conformal factor
    # f = log|Psi_x| = log(lambda) - log(1 + eps^2), which is 0 on |X| = 1
    eps = 0.5
    cx, cy = mesh.nodes[mesh.triangles].mean(axis=1).T
    a, b = _fd_tangents(enneper_psi_closure(eps), cx, cy)
    E, F, G = ((a * a).sum(axis=1), (a * b).sum(axis=1),
               (b * b).sum(axis=1))
    assert (np.abs(E - G) / E).max() < 1e-8
    assert (np.abs(F) / E).max() < 1e-8
    f_ref = np.log(lam(eps, cx, cy)) - np.log(1.0 + eps ** 2)
    assert np.abs(0.5 * np.log(E) - f_ref).max() < 1e-8
    bx = mesh.nodes[mesh.boundary_mask]
    f_bdry = np.log(lam(eps, bx[:, 0], bx[:, 1])) - np.log(1.0 + eps ** 2)
    assert np.abs(f_bdry).max() < 1e-12


def test_gauss_closure_is_normal_of_psi():
    # the Gauss map every experiment samples, c / |c|, is the unit
    # normal of the immersion Psi_eps: compare it with the normal of
    # central-difference tangents, which must be conformal
    x, y = _disc_points(5)
    for eps in (0.2, 0.5, 1.0):
        psi = enneper_psi_closure(eps)
        a, b = _fd_tangents(psi, x, y)
        aa = (a * a).sum(axis=1)
        assert np.abs((b * b).sum(axis=1) - aa).max() <= 1e-8 * aa.max()
        assert np.abs((a * b).sum(axis=1)).max() <= 1e-8 * aa.max()
        normal = np.cross(a, b)
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        c = enneper_gauss_closure(eps)(x, y)
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        assert np.abs(normal - c).max() <= 1e-8


def test_enneper_is_minimal():
    # in conformal coordinates a minimal immersion is harmonic; Psi_eps
    # is cubic, so the 5-point Laplacian is exact up to rounding
    x, y = _disc_points(6)
    h = 1e-3
    for eps in (0.2, 0.5, 1.0):
        psi = enneper_psi_closure(eps)
        lap = (psi(x + h, y) + psi(x - h, y) + psi(x, y + h)
               + psi(x, y - h) - 4.0 * psi(x, y)) / h ** 2
        assert np.abs(lap).max() <= 1e-8


def test_zeta_eps_normalized(mesh):
    zeta = zeta_eps(0.3, mesh)
    assert np.abs(zeta[mesh.boundary_mask]).max() < 1e-12
    assert gradient_l2(zeta, mesh) == pytest.approx(1.0, rel=5e-3)


def test_self_intersection_pairs():
    eps = 0.3
    pairs = self_intersections(eps)
    assert len(pairs) == 4
    names = {p.family for p in pairs}
    assert names == {"vertical_axis", "horizontal_axis",
                     "reflection_sin", "reflection_cos"}
    psi = enneper_psi_closure(eps)
    for p in pairs:
        assert p.radius ** 2 >= 3.0 * eps ** 2 - 1e-12
        assert np.linalg.norm(p.x_hat - p.x_tilde) > 0.1
        gap = np.linalg.norm(psi(*p.x_hat) - psi(*p.x_tilde))
        assert gap < 1e-10


def test_four_pairs_up_to_the_disc_radius():
    # the representative radius r = (sqrt(3) eps + 1) / 2 is at least
    # sqrt(3) eps, so both reflection families exist at every eps up to
    # 1 / sqrt(3), the endpoint included
    top = 1.0 / np.sqrt(3.0)
    grid = np.linspace(0.0, top, 2001)[1:]
    assert grid[-1] == top
    for eps in grid:
        pairs = self_intersections(eps)
        assert len(pairs) == 4
        psi = enneper_psi_closure(eps)
        for p in pairs:
            assert np.linalg.norm(psi(*p.x_hat) - psi(*p.x_tilde)) < 1e-10


def test_self_intersections_outside_domain():
    # sqrt(3) eps exceeds 1 from the first double above 1 / sqrt(3)
    for eps in (np.nextafter(1.0 / np.sqrt(3.0), 1.0), 0.7):
        assert self_intersections(eps) == ()


@pytest.mark.parametrize("eps", [0.0, -0.4, float("nan")])
def test_self_intersections_need_positive_eps(eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        self_intersections(eps)
    with pytest.raises(ValueError, match="eps must be positive"):
        coincidence_radii(eps)


def test_coincidence_radii_threshold():
    eps = 0.5
    hits = coincidence_radii(eps)
    assert hits.size >= 5
    assert hits.min() ** 2 >= 3.0 * eps ** 2 - 1e-6


@pytest.mark.parametrize("eps", [0.2, 0.5, 0.8])
def test_best_circle_pair_matches_direct_gaps(eps):
    # reference: squared gaps from coordinate differences, and the
    # separation test on each circle's own points.  That test is the
    # same on every circle, 2 |sin(pi (i - j) / N)| < MIN_SEPARATION;
    # the Gram form rounds differently, so on a symmetric tie the pair
    # may move, but its direct gap is the least to rounding
    n = surfaces.N_ANGLES
    ang = 2.0 * np.pi * np.arange(n) / n
    steps = np.subtract.outer(np.arange(n), np.arange(n)) % n
    closed_form = 2.0 * np.abs(np.sin(np.pi * steps / n)) \
        < surfaces.MIN_SEPARATION
    psi = enneper_psi_closure(eps)
    for r in (0.1, 0.45, 0.8, 1.0):
        xy = r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        sep2 = ((xy[:, None] - xy[None]) ** 2).sum(axis=2)
        close = sep2 < (surfaces.MIN_SEPARATION * r) ** 2
        assert np.array_equal(close, closed_form)
        pts = psi(*xy.T)
        d2 = ((pts[:, None] - pts[None]) ** 2).sum(axis=2)
        d2[close] = np.inf
        a, b = surfaces._best_circle_pair(psi, r, close)
        i, j = (int(round(t * n / (2.0 * np.pi))) for t in (a, b))
        scale = (pts ** 2).sum(axis=1).max()
        assert d2[i, j] <= d2.min() + 1e-14 * scale


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
