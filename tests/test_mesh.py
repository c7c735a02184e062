import io
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import coulomb_lab.mesh as mesh_module
from coulomb_lab.mesh import (BYTES_PER_TRIANGLE, MeshResourceError,
                              build_disc_mesh, element_gradient,
                              export_mesh, integrate, prolongation,
                              ring_offsets)


@pytest.fixture(scope="module")
def mesh3():
    return build_disc_mesh(3)


def test_counts_follow_ring_layout():
    for level in (0, 1, 2):
        m = 2 * 2 ** level
        mesh = build_disc_mesh(level)
        assert mesh.node_count == 1 + 3 * m * (m + 1)
        assert mesh.triangle_count == 6 * m ** 2


def _loop_triangles(level):
    """The ring triangulation built one triangle at a time: the fan
    around the centre, then per ring j and sextant s the j triangles on
    an edge of ring j and the j - 1 on an edge of ring j - 1."""
    m = 2 * 2 ** level

    def offset(j):
        return 1 + 3 * j * (j - 1)

    tris = [(offset(1) + k, offset(1) + (k + 1) % 6, 0) for k in range(6)]
    for j in range(2, m + 1):
        oj, oi = offset(j), offset(j - 1)
        sj, si = 6 * j, 6 * (j - 1)
        for s in range(6):
            for i in range(j):
                tris.append((oj + (s * j + i) % sj,
                             oj + (s * j + i + 1) % sj,
                             oi + (s * (j - 1) + i) % si))
            for i in range(j - 1):
                tris.append((oi + (s * (j - 1) + i) % si,
                             oj + (s * j + i + 1) % sj,
                             oi + (s * (j - 1) + i + 1) % si))
    return np.asarray(tris, dtype=np.int64)


def _loop_nodes(level):
    """The ring nodes placed one ring at a time: the centre, then the
    6 j nodes of ring j at angles 2 pi k / (6 j) and radius j / m."""
    m = 2 * 2 ** level
    coords = [np.zeros((1, 2))]
    for j in range(1, m + 1):
        ang = 2.0 * np.pi * np.arange(6 * j) / (6 * j)
        r = j / m
        coords.append(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
    return np.vstack(coords)


@pytest.mark.parametrize("level", range(7))
def test_nodes_match_ring_loop(level):
    # the one-pass placement keeps the per-ring loop's coordinates, to
    # the bit, and its node order
    expected = _loop_nodes(level)
    got = build_disc_mesh(level).nodes
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("level", range(6))
def test_triangle_order_matches_loop(level):
    # artifacts index elements, so the vectorized build must keep the
    # loop's order (and its vertex order, already positively oriented)
    expected = _loop_triangles(level)
    got = build_disc_mesh(level).triangles
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("level", range(5))
def test_ring_offsets_match_mesh(level):
    # ring j holds nodes node[j]:node[j + 1], at radius j / m; strip j
    # holds triangles strip[j - 1]:strip[j], with vertices on rings
    # j - 1 and j only: the ring bands of `stiffness_matrix` rely on it
    mesh = build_disc_mesh(level)
    m = mesh.rings
    node, strip = ring_offsets(m)
    assert node[-1] == mesh.node_count and strip[-1] == mesh.triangle_count
    ring = np.repeat(np.arange(m + 1), np.diff(node))
    assert np.allclose(np.hypot(*mesh.nodes.T), ring / m, atol=1e-15)
    for j in range(1, m + 1):
        touched = ring[mesh.triangles[strip[j - 1]:strip[j]]]
        assert set(np.unique(touched)) == {j - 1, j}


def test_level_six_counts():
    mesh = build_disc_mesh(6)
    assert mesh.node_count == 49537
    assert mesh.triangle_count == 98304


def test_boundary_nodes_on_unit_circle(mesh3):
    r = np.linalg.norm(mesh3.nodes, axis=1)
    assert np.allclose(r[mesh3.boundary_mask], 1.0, atol=1e-14)
    assert r[~mesh3.boundary_mask].max() < 1.0


def test_orientation_and_positive_areas(mesh3):
    p = mesh3.nodes[mesh3.triangles]
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    signed = 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    assert signed.min() > 0
    assert np.allclose(signed, mesh3.areas)


def test_area_converges_to_disc():
    errs = [np.pi - build_disc_mesh(lv).area for lv in (2, 3, 4)]
    assert all(e > 0 for e in errs)  # inscribed polygon
    assert errs[1] < errs[0] / 3
    assert errs[2] < errs[1] / 3


def test_h_max_halves_per_level():
    h = [build_disc_mesh(lv).h_max for lv in (2, 3, 4)]
    assert h[1] == pytest.approx(h[0] / 2, rel=0.05)
    assert h[2] == pytest.approx(h[1] / 2, rel=0.05)


@pytest.mark.parametrize("level", range(8))
def test_geometry_matches_gathered_formulas(level):
    # the geometry is formed from per-corner edge-difference rows (nt,);
    # the same formulas on the (nt, 3, 2) vertex gather give the same
    # bits, and the gradients are C-contiguous
    mesh = build_disc_mesh(level)
    p = mesh.nodes[mesh.triangles]
    u = p[:, 1] - p[:, 0]
    v = p[:, 2] - p[:, 0]
    areas = 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    x, y = p[..., 0], p[..., 1]
    inv2a = 1.0 / (2.0 * areas)
    grad_x = np.stack(
        [y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1
    ) * inv2a[:, None]
    grad_y = np.stack(
        [x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1
    ) * inv2a[:, None]
    edges = np.concatenate(
        [p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    h_max = float(np.sqrt((edges ** 2).sum(axis=1)).max())
    for got, want in ((mesh.areas, areas), (mesh.grad_x, grad_x),
                      (mesh.grad_y, grad_y)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert mesh.grad_x.flags.c_contiguous and mesh.grad_y.flags.c_contiguous
    assert mesh.h_max == h_max


def test_gradient_exact_for_affine(mesh3):
    x, y = mesh3.nodes[:, 0], mesh3.nodes[:, 1]
    g = element_gradient(2.0 * x - 3.0 * y + 1.0, mesh3)
    assert np.allclose(g[:, 0], 2.0, atol=1e-12)
    assert np.allclose(g[:, 1], -3.0, atol=1e-12)


def test_gradient_vector_valued(mesh3):
    x, y = mesh3.nodes[:, 0], mesh3.nodes[:, 1]
    vals = np.stack([x, y, x + y], axis=1)
    g = element_gradient(vals, mesh3)
    assert g.shape == (mesh3.triangle_count, 2, 3)
    assert np.allclose(g[:, 0, 0], 1.0, atol=1e-12)
    assert np.allclose(g[:, 1, 0], 0.0, atol=1e-12)
    assert np.allclose(g[:, 0, 2], 1.0, atol=1e-12)
    assert np.allclose(g[:, 1, 2], 1.0, atol=1e-12)


def test_integrate_quadratic():
    mesh = build_disc_mesh(5)
    # integral of |X|^2 over the unit disc is pi/2
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    v = x ** 2 + y ** 2
    val = integrate(v[mesh.triangles].mean(axis=1), mesh)
    assert val == pytest.approx(np.pi / 2, rel=1e-3)


def test_shape_mismatch_raises(mesh3):
    with pytest.raises(ValueError):
        element_gradient(np.zeros(3), mesh3)
    with pytest.raises(ValueError):
        integrate(np.zeros(3), mesh3)


def test_refinement_guard(monkeypatch):
    # a machine one byte short of a level-6 mesh (6 * 128^2 triangles)
    # refuses level 6 and still builds level 5
    short = BYTES_PER_TRIANGLE * 6 * 128 ** 2 - 1
    monkeypatch.setattr(mesh_module, "physical_memory", lambda: short)
    with pytest.raises(MeshResourceError, match="physical memory"):
        build_disc_mesh(6)
    assert build_disc_mesh(5).triangle_count == 6 * 64 ** 2
    with pytest.raises(ValueError):
        build_disc_mesh(-1)


@pytest.mark.parametrize("level", range(1, 6))
def test_prolongation(level):
    fine, coarse = build_disc_mesh(level), build_disc_mesh(level - 1)
    P = prolongation(fine.rings)
    assert P.shape == (fine.node_count, coarse.node_count)
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-15
    assert P.min() >= 0.0
    # polar-linear: radii interpolate exactly, and each coarse node is
    # injected into the fine node at its place
    assert np.allclose(P @ np.hypot(*coarse.nodes.T),
                       np.hypot(*fine.nodes.T), rtol=0.0, atol=1e-15)
    rows, cols = (P == 1.0).nonzero()
    assert np.array_equal(np.sort(cols), np.arange(coarse.node_count))
    assert np.array_equal(fine.nodes[rows], coarse.nodes[cols])
    # coarse functions vanishing on the boundary prolong to such fine
    # ones, so the Dirichlet restriction drops the boundary columns
    nf, nc = fine.interior_nodes.size, coarse.interior_nodes.size
    assert P[nf:, :nc].count_nonzero() == 0


def _one_shot_prolongation(rings):
    """`prolongation` as one COO of all rows: the oracle of its bands."""
    node, _ = ring_offsets(rings)
    count, start = np.diff(node), node[:-1]
    ring = np.repeat(np.arange(rings + 1), count)
    pos = np.arange(ring.size) - start[ring]
    span = np.maximum(ring, 1)
    cols, vals = [], []
    for c in (ring // 2, (ring + 1) // 2):
        lo, rem = np.divmod(pos * c, span)
        for col, w in ((lo, 1.0 - rem / span), (lo + 1, rem / span)):
            cols.append(start[c] + col % count[c])
            vals.append(0.5 * w)
    P = sp.coo_matrix(
        (np.concatenate(vals),
         (np.tile(np.arange(ring.size), 4), np.concatenate(cols))),
        shape=(ring.size, start[rings // 2 + 1]),
    ).tocsr()
    P.eliminate_zeros()
    return P


@pytest.mark.parametrize("rings", [2 ** k for k in range(1, 9)])
def test_prolongation_matches_one_shot_coo(rings):
    # the bands of whole fine rings leave P as one COO of all rows built
    # it, to the bit; up to 64 rings (12481 rows) P is one band, and
    # 128 and 256 rings end in a ragged band
    P, ref = prolongation(rings), _one_shot_prolongation(rings)
    assert P.format == "csr" and P.shape == ref.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(P, name), getattr(ref, name))
        assert getattr(P, name).dtype == getattr(ref, name).dtype


def test_prolongation_memory_is_banded():
    # each band is copied into P's preallocated arrays and dropped, so
    # the traced rise of P(256) stays near P's own 7.3 MB: 1.58 times
    # measured, against 6.95 (50.5 MB) for one COO of all rows
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        P = prolongation(256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 2 * (P.data.nbytes + P.indices.nbytes
                               + P.indptr.nbytes)


def test_export_mesh_format():
    mesh = build_disc_mesh(1)
    buf = io.StringIO()
    export_mesh(mesh, buf)
    lines = buf.getvalue().splitlines()
    nd, nt = (int(t) for t in lines[0].split())
    assert nd == mesh.node_count and nt == mesh.triangle_count
    assert len(lines) == 1 + nd + nt
    x, y, b = lines[1].split()
    assert (float(x), float(y), int(b)) == (0.0, 0.0, 0)
    tri = [int(t) for t in lines[1 + nd].split()]
    assert len(tri) == 3 and all(0 <= t < nd for t in tri)


def test_mesh_arrays_read_only(mesh3):
    with pytest.raises(ValueError):
        mesh3.nodes[0, 0] = 5.0
