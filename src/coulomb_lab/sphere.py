"""Quadrature and regions on the unit sphere.

Nodes come from recursive icosahedral subdivision: each face of the
icosahedron is split into four by projected edge midpoints, and every
face contributes its (normalized) centroid with the spherical-excess
area as weight.  The weights tile the sphere, so they sum to 4*pi up
to rounding at every level.

A region is a `Cap`, its centre and radius with closed forms (the full
sphere is the cap of radius pi), or a `SphereRegion`, a set of
quadrature nodes with their weights.  `PointGrid` finds the points of
a set within a fixed distance of each of a batch of queries.
"""

from dataclasses import dataclass, field

import numpy as np

from .mesh import require_memory

# Peak bytes per face of `sphere_quadrature`, with 19% to spare over
# the 296 it measured (tracemalloc) at levels 4-8.  A level of 20 4^level
# faces that would need more than the physical memory is refused.
BYTES_PER_FACE = 352
# The icosahedron's faces as indices into the vertices that
# `_icosahedron_faces` lists: Qhull's simplices of their convex hull.
_ICOSAHEDRON = [[0, 1, 2], [6, 4, 2], [6, 0, 5], [6, 0, 2], [7, 3, 1],
                [7, 0, 5], [7, 0, 1], [8, 4, 2], [8, 1, 2], [8, 3, 1],
                [8, 9, 3], [8, 9, 4], [10, 9, 4], [10, 6, 4], [10, 6, 5],
                [11, 7, 5], [11, 9, 3], [11, 7, 3], [11, 10, 9],
                [11, 10, 5]]


def _normalize_rows(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _icosahedron_faces():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            verts.extend([(0.0, a, b), (a, b, 0.0), (b, 0.0, a)])
    verts = _normalize_rows(np.asarray(verts))
    faces = verts[_ICOSAHEDRON]  # (20, 3, 3)
    # orient every face outward (counterclockwise seen from outside)
    n = np.cross(faces[:, 1] - faces[:, 0], faces[:, 2] - faces[:, 0])
    inward = np.einsum("fi,fi->f", n, faces.mean(axis=1)) < 0
    faces[inward] = faces[inward][:, [0, 2, 1]]
    return faces


def subdivide_faces(faces):
    """Split each spherical triangle into four via projected midpoints."""
    v0, v1, v2 = faces[:, 0], faces[:, 1], faces[:, 2]
    m01 = _normalize_rows(v0 + v1)
    m12 = _normalize_rows(v1 + v2)
    m02 = _normalize_rows(v0 + v2)
    children = np.stack(
        [
            np.stack([v0, m01, m02], axis=1),
            np.stack([m01, v1, m12], axis=1),
            np.stack([m02, m12, v2], axis=1),
            np.stack([m01, m12, m02], axis=1),
        ],
        axis=1,
    )
    return children.reshape(-1, 3, 3)


def spherical_areas(faces):
    """Solid angle of each spherical triangle (Oosterom-Strackee)."""
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    num = np.einsum("fi,fi->f", a, np.cross(b, c))
    den = (
        1.0
        + np.einsum("fi,fi->f", a, b)
        + np.einsum("fi,fi->f", b, c)
        + np.einsum("fi,fi->f", c, a)
    )
    return 2.0 * np.arctan2(np.abs(num), den)


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    nodes: np.ndarray = field(repr=False)  # (nf, 3) face centroids
    weights: np.ndarray = field(repr=False)  # (nf,) spherical areas
    face_diameter: float  # max vertex-to-vertex distance


_quadrature_cache = {}


def sphere_quadrature(level):
    """Centroid nodes and spherical-excess weights at a subdivision level."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    require_memory(f"sphere level {level}", level, 20, BYTES_PER_FACE,
                   "face")
    if level in _quadrature_cache:
        return _quadrature_cache[level]
    faces = _icosahedron_faces()
    for _ in range(level):
        faces = subdivide_faces(faces)
    nodes = _normalize_rows(faces.mean(axis=1))
    weights = spherical_areas(faces)
    d = np.linalg.norm(faces - faces[:, [1, 2, 0]], axis=2)
    quad = SphereQuadrature(
        nodes=nodes,
        weights=weights,
        face_diameter=float(d.max()),
    )
    for arr in (quad.nodes, quad.weights):
        arr.setflags(write=False)
    _quadrature_cache[level] = quad
    return quad


@dataclass(frozen=True, eq=False)
class SphereRegion:
    """Subset of S2 carried by quadrature nodes: the selected nodes, the
    rule's weights on them and their sum as measure."""

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    measure: float


@dataclass(frozen=True, eq=False)
class Cap:
    """Geodesic cap {s : angle(s, center) <= rho}, with closed forms for
    its measure, boundary distance and logarithmic potential."""

    center: np.ndarray = field(repr=False)
    rho: float

    @property
    def measure(self):
        """Exact measure 2 pi (1 - cos rho)."""
        return 2.0 * np.pi * (1.0 - np.cos(self.rho))

    def boundary_distance(self, points):
        """Signed geodesic distance to the boundary, negative inside.

        The distance is 1-Lipschitz in the geodesic metric, so a set
        of angular radius r around p lies on one side of the boundary
        when |boundary_distance(p)| > r.
        """
        t = np.atleast_2d(np.asarray(points, dtype=float)) @ self.center
        return np.arccos(np.clip(t, -1.0, 1.0)) - self.rho

    def potential_slope(self, t):
        """Membership t >= a and slope q'(t) at cosines t = n.c.

        Q(n) = -(1/mu) integral over the cap of log(1 - n.s) ds, so
        grad Q(n) is the tangential part of (1/mu) int_K s/(1 - n.s) ds.
        For a cap with centre c and cos(rho) = a, Q = q(n.c) with
        (1 - t^2) q'(t) = (1 + t) - (4 pi / mu) (t - a)_+: q' = 1/(1 - t)
        outside and (1 + a)/((1 - a)(1 + t)) inside, and grad Q =
        q'(t) (c - t n).  As (c - t n) x n = c x n, grad Q.(n x xi) =
        q'(t) n.(xi x c).  On the full sphere (a = -1) q' is 0 off -c.
        """
        inside = t >= np.cos(self.rho)
        return inside, self.branch_slope(t, inside)

    def branch_slope(self, t, inside):
        """q'(t) from the branch of the side `inside` (see
        `potential_slope`).  Both branches equal 1/(1 - a) at t = a, and
        each extends smoothly past it."""
        a = np.cos(self.rho)
        return np.where(inside, (1.0 + a) / (1.0 - a), 1.0) / np.where(
            inside, 1.0 + t, 1.0 - t)


def make_region(quad, mask):
    """The quadrature nodes selected by `mask`, with the rule's weights
    and their sum as measure."""
    w = quad.weights[mask]
    return SphereRegion(nodes=quad.nodes[mask], weights=w,
                        measure=float(w.sum()))


def cap(center, rho):
    """Cap about the normalized `center`; rho must lie in (0, pi] with
    a measure 2 pi (1 - cos rho) that does not round to 0."""
    center = np.asarray(center, dtype=float)
    region = Cap(center=center / np.linalg.norm(center), rho=float(rho))
    if not (0.0 < rho <= np.pi and region.measure > 0.0):
        raise ValueError(f"cap radius {rho!r} must lie in (0, pi] with "
                         "positive measure")
    return region


def full_sphere():
    """S2 as the cap of radius pi about -k: cos(pi) is exactly -1, so
    its measure is exactly 4 pi and its potential slope exactly 0
    away from k.  Its boundary is the single point k, which the Enneper
    images (z < (1 - eps^2)/(1 + eps^2)) stay away from, so no element
    straddles it."""
    return cap(np.array([0.0, 0.0, -1.0]), np.pi)


def complement_region(region):
    """Complement cap(-c, pi - rho) of a cap."""
    return cap(-region.center, np.pi - region.rho)


def region_from_predicate(predicate, level):
    """The level's quadrature nodes where `predicate` holds."""
    quad = sphere_quadrature(level)
    return make_region(quad, predicate(quad.nodes))


class PointGrid:
    """Fixed-radius neighbour search over the rows of `points` (n, 3)
    by the cell method (Bentley, Stanat & Williams, Inf. Process. Lett.
    6(6), 1977).

    The points are sorted, stably, by the int64 key of the cube of side
    h that holds them, z varying fastest: so the cubes z0..z1 of one
    column (x, y) hold one run of the sorted points, which two
    `searchsorted` calls find.  A query q at radius r examines the
    cubes that meet the box [q - r, q + r]; `counts` counts the points
    examined, and `pairs` keeps those within r.  The box is widened by
    r 2^-50 + 2^-500, so that no pair whose distance rounds to r or
    below lies outside it: a difference that rounds to at most r
    exceeds r by at most r 2^-53, and one whose square underflows is
    below 2^-511.  A query examines up to 2 r / h + 2 cubes per axis,
    so h should be of the order of r; h is widened where needed so that
    a key fits an int64, and a batch whose (T, columns) runs would not
    fit the physical memory is refused with MeshResourceError.
    """

    def __init__(self, points, h):
        points = np.asarray(points, dtype=float)
        if not np.isfinite(points).all():
            raise ValueError("grid points must be finite")
        self.h = max(float(h), float(np.ptp(points)) * 2.0 ** -20)
        # x -> floor(x / h) is monotone: the least and greatest cubes on
        # each axis hold the least and greatest coordinates
        self.origin = np.floor(points.min(axis=0) / self.h)
        self.dims = (np.floor(points.max(axis=0) / self.h)
                     - self.origin).astype(np.int64) + 1
        keys = np.zeros(len(points), dtype=np.int64)
        for axis, column in enumerate(points.T):
            keys *= self.dims[axis]
            keys += (np.floor(column / self.h)
                     - self.origin[axis]).astype(np.int64)
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]
        # (3, n) contiguous component rows
        self.rows = np.ascontiguousarray(points.T[:, self.order])

    def _runs(self, queries, r):
        """Runs [start, stop) of the sorted points, (T, columns), one per
        column of cubes that meets each query's box; an empty run where
        a column lies outside the box or the grid."""
        reach = r + r * 2.0 ** -50 + 2.0 ** -500
        lo = np.floor((queries - reach) / self.h) - self.origin
        hi = np.floor((queries + reach) / self.h) - self.origin
        lo = np.clip(lo, 0, self.dims).astype(np.int64)
        hi = np.clip(hi, -1, self.dims - 1).astype(np.int64)
        kx, ky = np.maximum(hi - lo + 1, 0)[:, :2].max(axis=0, initial=0)
        # refuse the (T, kx, ky) int64 run bounds before allocating them;
        # require_memory divides by the count, so it is at least 1
        require_memory(f"a query at radius {r:.3g} on a grid of side "
                       f"{self.h:.3g}", 0,
                       max(len(queries) * int(kx) * int(ky), 1), 8,
                       "int64 run bound")
        x = lo[:, 0, None] + np.arange(kx)
        y = lo[:, 1, None] + np.arange(ky)
        base = (x[:, :, None] * self.dims[1] + y[:, None]) * self.dims[2]
        start = np.searchsorted(self.keys, base + lo[:, 2, None, None])
        stop = np.searchsorted(self.keys, base + hi[:, 2, None, None] + 1)
        empty = (x > hi[:, 0, None])[:, :, None] \
            | (y > hi[:, 1, None])[:, None] \
            | (lo[:, 2] > hi[:, 2])[:, None, None]
        shape = len(queries), kx * ky
        return start.reshape(shape), np.where(empty, start, stop).reshape(
            shape)

    def counts(self, queries, r):
        """Points examined for each row of `queries` (T, 3) at radius r,
        (T,): at least the points within r, and no distance computed."""
        start, stop = self._runs(np.asarray(queries, dtype=float), r)
        return (stop - start).sum(axis=1)

    def pairs(self, queries, r):
        """The (query, point) pairs within distance r of the rows of
        `queries` (T, 3): the query index `owner`, the point index
        `index` and the distance `d`, each (k,), ordered by query, cube
        and point.  d = sqrt((dx^2 + dy^2) + dz^2), formed over
        contiguous rows, is np.linalg.norm of the difference row to
        the last bit."""
        queries = np.asarray(queries, dtype=float)
        start, stop = self._runs(queries, r)
        length = stop - start
        owner = np.repeat(np.arange(len(queries)), length.sum(axis=1))
        length = length.ravel()
        pos = np.repeat(start.ravel() - np.cumsum(length) + length, length)
        pos += np.arange(pos.size)
        d = np.zeros(pos.size)
        for row, q in zip(self.rows, queries.T.copy()):
            diff = row[pos]
            diff -= q[owner]
            diff *= diff
            d += diff
        np.sqrt(d, out=d)
        keep = d <= r
        return owner[keep], self.order[pos[keep]], d[keep]
