"""Quadrature and regions on the unit sphere.

Nodes come from recursive icosahedral subdivision: each face of the
icosahedron is split into four by projected edge midpoints, and every
face contributes its (normalized) centroid with the spherical-excess
area as weight.  The weights tile the sphere, so they sum to 4*pi up
to rounding at every level.

A region is a `Cap`, its centre and radius with closed forms (the full
sphere is the cap of radius pi), or a `SphereRegion`, a set of
quadrature nodes with their weights.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull

from .mesh import require_memory

# Peak bytes per face of `sphere_quadrature`, with 19% to spare over
# the 296 it measured (tracemalloc) at levels 4-8.  A level of 20 4^level
# faces that would need more than the physical memory is refused.
BYTES_PER_FACE = 352


def _normalize_rows(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _icosahedron_faces():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            verts.extend([(0.0, a, b), (a, b, 0.0), (b, 0.0, a)])
    verts = _normalize_rows(np.asarray(verts))
    hull = ConvexHull(verts)
    faces = verts[hull.simplices]  # (20, 3, 3)
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
