"""Structured triangulations of the closed unit disc and P1 field calculus.

The mesh is a concentric-ring layout: ring j (of m rings) sits at radius
j/m and carries 6j nodes, so triangles are near-equilateral and the
outermost ring lies exactly on |X| = 1.  Refinement doubles the ring
count, which halves the longest edge.
"""

from dataclasses import dataclass, field

import numpy as np

MAX_REFINEMENT_LEVEL = 10


def _radon_rule():
    r = np.sqrt(15.0)
    a1, b1 = (6.0 - r) / 21.0, (9.0 + 2.0 * r) / 21.0
    a2, b2 = (6.0 + r) / 21.0, (9.0 - 2.0 * r) / 21.0
    bary = np.array([
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [b1, a1, a1], [a1, b1, a1], [a1, a1, b1],
        [b2, a2, a2], [a2, b2, a2], [a2, a2, b2],
    ])
    weights = np.array([9.0 / 40.0] + [(155.0 - r) / 1200.0] * 3
                       + [(155.0 + r) / 1200.0] * 3)
    return bary, weights


# Radon's 7-point rule, exact for polynomials of degree 5 on a
# triangle: barycentric points (7, 3) and weights summing to 1.
TRI7_BARY, TRI7_WEIGHTS = _radon_rule()


class MeshResourceError(ValueError):
    """Requested refinement level exceeds the configured guard."""


@dataclass(frozen=True, eq=False)
class DiscMesh:
    """Triangulation of the closed unit disc.

    nodes          : (nn, 2) coordinates
    triangles      : (nt, 3) node indices, positively oriented
    boundary_mask  : (nn,) True where |X| = 1
    areas, centroids, grad_x, grad_y : per-element P1 data; grad_x[t, i]
        is the coefficient of vertex i in d/dx of the linear interpolant
        on triangle t (similarly grad_y).
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_mask: np.ndarray
    areas: np.ndarray = field(repr=False, default=None)
    centroids: np.ndarray = field(repr=False, default=None)
    grad_x: np.ndarray = field(repr=False, default=None)
    grad_y: np.ndarray = field(repr=False, default=None)
    h_max: float = 0.0

    @property
    def node_count(self):
        return self.nodes.shape[0]

    @property
    def triangle_count(self):
        return self.triangles.shape[0]

    @property
    def interior_nodes(self):
        return np.flatnonzero(~self.boundary_mask)

    @property
    def area(self):
        return float(self.areas.sum())


def _ring_offset(j):
    # center node + 6*1 + 6*2 + ... + 6*(j-1)
    return 1 + 3 * j * (j - 1)


def build_disc_mesh(refinement_level):
    """Build the concentric-ring disc triangulation at a refinement level.

    The ring count is 2 * 2**level, so the longest edge is about
    1.05 * 2**-(level+1).  Construction is fully deterministic.
    """
    if refinement_level < 0:
        raise ValueError("refinement_level must be nonnegative")
    if refinement_level > MAX_REFINEMENT_LEVEL:
        raise MeshResourceError(
            f"refinement_level {refinement_level} exceeds guard "
            f"{MAX_REFINEMENT_LEVEL}"
        )
    m = 2 * 2 ** refinement_level

    coords = [np.zeros((1, 2))]
    for j in range(1, m + 1):
        ang = 2.0 * np.pi * np.arange(6 * j) / (6 * j)
        r = j / m
        coords.append(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
    nodes = np.vstack(coords)

    # innermost fan around the center node
    k = _ring_offset(1) + np.arange(6)
    tris = [np.column_stack([k, np.roll(k, -1), np.zeros(6, np.int64)])]
    # strips between ring j-1 and ring j: per sextant s, the j triangles
    # on an edge of ring j, then the j-1 on an edge of ring j-1
    s = np.arange(6)[:, None]
    for j in range(2, m + 1):
        i = np.arange(j + 1)[None, :]
        outer = _ring_offset(j) + (s * j + i) % (6 * j)
        inner = _ring_offset(j - 1) + (s * (j - 1) + i) % (6 * (j - 1))
        strip = np.concatenate([
            np.stack([outer[:, :-1], outer[:, 1:], inner[:, :-1]], axis=2),
            np.stack([inner[:, :-2], outer[:, 1:-1], inner[:, 1:-1]],
                     axis=2),
        ], axis=1)
        tris.append(strip.reshape(-1, 3))
    triangles = np.concatenate(tris, dtype=np.int64)

    p = nodes[triangles]  # (nt, 3, 2)
    u = p[:, 1] - p[:, 0]
    v = p[:, 2] - p[:, 0]
    areas = 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    if np.any(areas <= 0):
        raise RuntimeError("degenerate or inverted triangle in disc mesh "
                           "construction")

    x, y = p[..., 0], p[..., 1]
    inv2a = 1.0 / (2.0 * areas)
    grad_x = np.stack(
        [y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1
    ) * inv2a[:, None]
    grad_y = np.stack(
        [x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1
    ) * inv2a[:, None]

    boundary_mask = np.zeros(nodes.shape[0], dtype=bool)
    boundary_mask[_ring_offset(m):] = True

    edges = np.concatenate(
        [p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]]
    )
    h_max = float(np.sqrt((edges ** 2).sum(axis=1)).max())

    for arr in (nodes, triangles, boundary_mask, areas, grad_x, grad_y):
        arr.setflags(write=False)
    centroids = p.mean(axis=1)
    centroids.setflags(write=False)
    return DiscMesh(
        nodes=nodes,
        triangles=triangles,
        boundary_mask=boundary_mask,
        areas=areas,
        centroids=centroids,
        grad_x=grad_x,
        grad_y=grad_y,
        h_max=h_max,
    )


def element_gradient(values, mesh):
    """Gradient of the P1 interpolant, one 2-vector per triangle.

    `values` has shape (nn,) or (nn, k); the result has shape (nt, 2)
    or (nt, 2, k).  Exact for affine data.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] != mesh.node_count:
        raise ValueError("nodal array length does not match mesh")
    v = values[mesh.triangles]  # (nt, 3, ...)
    gx = np.einsum("ti,ti...->t...", mesh.grad_x, v)
    gy = np.einsum("ti,ti...->t...", mesh.grad_y, v)
    return np.stack([gx, gy], axis=1)


def integrate(element_values, mesh):
    """Integrate a per-element quantity: sum of value times triangle area."""
    element_values = np.asarray(element_values, dtype=float)
    if element_values.shape[0] != mesh.triangle_count:
        raise ValueError("element array length does not match mesh")
    return float(np.tensordot(element_values, mesh.areas, axes=(0, 0)))


def export_mesh(mesh, stream):
    """Write the plain-text mesh format.

    Line 1: `ND NT`; then ND lines `x y b` (b = 1 on the boundary);
    then NT lines `i j k` with 0-based node indices.
    """
    stream.write(f"{mesh.node_count} {mesh.triangle_count}\n")
    for (x, y), b in zip(mesh.nodes, mesh.boundary_mask):
        stream.write(f"{x:.17g} {y:.17g} {int(b)}\n")
    for i, j, k in mesh.triangles:
        stream.write(f"{i} {j} {k}\n")
