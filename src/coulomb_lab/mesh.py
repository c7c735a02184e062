"""Structured triangulations of the closed unit disc and P1 field calculus.

The mesh is a concentric-ring layout: ring j (of m rings) sits at radius
j/m and carries 6j nodes, so triangles are near-equilateral and the
outermost ring lies exactly on |X| = 1.  Refinement doubles the ring
count, which halves the longest edge; `prolongation` carries nodal
values from m/2 rings to m by the ring indices alone.
"""

import os
from dataclasses import dataclass, field

import numpy as np

# Peak bytes per triangle, over the imports, with 37% to spare over
# the heaviest subcommand: `frame`, 747 and 709 at levels 7 and 8
# (`decompose` 546 and 528, `holography` 347 and 333 with its sweep
# ending at level 7 or 8).
# `build_disc_mesh` refuses a mesh of 6 m^2 triangles that would need
# more than the physical memory.
BYTES_PER_TRIANGLE = 1024


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
    """The requested disc mesh or sphere quadrature would not fit in
    physical memory."""


@dataclass(frozen=True, eq=False)
class DiscMesh:
    """Triangulation of the closed unit disc.

    nodes          : (nn, 2) coordinates
    triangles      : (nt, 3) node indices, positively oriented
    boundary_mask  : (nn,) True where |X| = 1
    areas, grad_x, grad_y : per-element P1 data; grad_x[t, i] is the
        coefficient of vertex i in d/dx of the linear interpolant on
        triangle t (similarly grad_y).
    h_max          : the longest edge

    `build_disc_mesh` forms the per-element data from the vertex
    coordinates gathered by corner, one contiguous row (nt,) per
    coordinate and corner.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_mask: np.ndarray
    areas: np.ndarray = field(repr=False)
    grad_x: np.ndarray = field(repr=False)
    grad_y: np.ndarray = field(repr=False)
    h_max: float

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
    def rings(self):
        # ring m, the boundary, carries 6m nodes
        return int(np.count_nonzero(self.boundary_mask)) // 6

    @property
    def area(self):
        return float(self.areas.sum())


def ring_offsets(rings):
    """Node and triangle offsets of the mesh of `rings` rings.

    Ring j (ring 0 is the centre node) holds the nodes
    node[j]:node[j + 1], so node has rings + 2 entries.  Strip j, for
    1 <= j <= rings, holds the triangles strip[j - 1]:strip[j] =
    6 (j - 1)^2 : 6 j^2, those between rings j - 1 and j (strip 1 is
    the fan about the centre node).
    """
    count = np.maximum(6 * np.arange(rings + 1), 1)
    return (np.concatenate([[0], np.cumsum(count)]),
            6 * np.arange(rings + 1) ** 2)


def physical_memory():
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(request, power, items, unit_bytes, unit):
    """Raise MeshResourceError, before allocating, when items * 4^power
    units of unit_bytes bytes exceed the physical memory; the bit length
    test rejects a huge power before 4^power is formed."""
    memory = physical_memory()
    fits = memory // (items * unit_bytes)  # the largest 4^power
    if power >= fits.bit_length() or 4 ** power > fits:
        raise MeshResourceError(
            f"{request} needs more than the {memory / 2 ** 30:.3g} GiB "
            f"of physical memory ({unit_bytes} bytes per {unit})"
        )


def build_disc_mesh(refinement_level):
    """Build the concentric-ring disc triangulation at a refinement level.

    The ring count is 2 * 2**level, so the longest edge is about
    1.05 * 2**-(level+1).  Construction is fully deterministic.
    """
    if refinement_level < 0:
        raise ValueError("refinement_level must be nonnegative")
    # the mesh has 6 m^2 = 6 * 4^(level + 1) triangles
    require_memory(f"refinement_level {refinement_level}",
                   refinement_level + 1, 6, BYTES_PER_TRIANGLE, "triangle")
    m = 2 * 2 ** refinement_level
    node, _ = ring_offsets(m)
    count, start = np.diff(node), node[:-1]

    coords = [np.zeros((1, 2))]
    for j in range(1, m + 1):
        ang = 2.0 * np.pi * np.arange(count[j]) / count[j]
        r = j / m
        coords.append(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
    nodes = np.vstack(coords)

    # strips between ring j-1 and ring j: per sextant s, the j triangles
    # on an edge of ring j, then the j-1 on an edge of ring j-1 (strip 1
    # is the fan about the centre node)
    tris = []
    s = np.arange(6)[:, None]
    for j in range(1, m + 1):
        i = np.arange(j + 1)[None, :]
        outer = start[j] + (s * j + i) % count[j]
        inner = start[j - 1] + (s * (j - 1) + i) % count[j - 1]
        strip = np.concatenate([
            np.stack([outer[:, :-1], outer[:, 1:], inner[:, :-1]], axis=2),
            np.stack([inner[:, :-2], outer[:, 1:-1], inner[:, 1:-1]],
                     axis=2),
        ], axis=1)
        tris.append(strip.reshape(-1, 3))
    triangles = np.concatenate(tris, dtype=np.int64)

    # vertex coordinates as contiguous rows (3, nt), one per corner
    x, y = nodes[:, 0][triangles.T], nodes[:, 1][triangles.T]
    areas = 0.5 * ((x[1] - x[0]) * (y[2] - y[0])
                   - (y[1] - y[0]) * (x[2] - x[0]))
    if np.any(areas <= 0):
        raise RuntimeError("degenerate or inverted triangle in disc mesh "
                           "construction")

    inv2a = 1.0 / (2.0 * areas)
    grad_x = np.stack(
        [y[1] - y[2], y[2] - y[0], y[0] - y[1]], axis=1
    ) * inv2a[:, None]
    grad_y = np.stack(
        [x[2] - x[1], x[0] - x[2], x[1] - x[0]], axis=1
    ) * inv2a[:, None]

    boundary_mask = np.zeros(nodes.shape[0], dtype=bool)
    boundary_mask[start[m]:] = True

    # edges V1 - V0, V2 - V1, V0 - V2; sqrt is monotone and correctly
    # rounded, so the root of the largest square is the largest norm
    dx, dy = x[[1, 2, 0]] - x, y[[1, 2, 0]] - y
    h_max = float(np.sqrt((dx * dx + dy * dy).max()))

    for arr in (nodes, triangles, boundary_mask, areas, grad_x, grad_y):
        arr.setflags(write=False)
    return DiscMesh(
        nodes=nodes,
        triangles=triangles,
        boundary_mask=boundary_mask,
        areas=areas,
        grad_x=grad_x,
        grad_y=grad_y,
        h_max=h_max,
    )


def prolongation(rings):
    """Nodal interpolation from the mesh of rings // 2 rings to the mesh
    of `rings` rings, as a sparse (fine nodes, coarse nodes) matrix.

    Coarse ring c sits at the radius of fine ring 2c and holds its even
    nodes.  A fine node on ring i takes half of the angular linear
    interpolation on coarse ring i // 2 and half of that on ring
    (i + 1) // 2, the same ring when i is even; ring 0 is the centre.
    Every row sums to 1, and the interior nodes of either mesh are a
    prefix of its node order.
    """
    # pde loads scipy.sparse; importing it here keeps the import order
    import scipy.sparse as sp

    node, _ = ring_offsets(rings)
    count, start = np.diff(node), node[:-1]
    ring = np.repeat(np.arange(rings + 1), count)
    pos = np.arange(ring.size) - start[ring]
    span = np.maximum(ring, 1)
    cols, vals = [], []
    for c in (ring // 2, (ring + 1) // 2):
        # angle pos / (6 ring) is position pos c / ring on coarse ring c
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
