"""Quadrature and regions on the unit sphere.

Nodes come from recursive icosahedral subdivision: each face of the
icosahedron is split into four by projected edge midpoints, and every
face contributes its (normalized) centroid with the spherical-excess
area as weight.  The weights tile the sphere, so they sum to 4*pi up
to rounding at every level.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull

MAX_SPHERE_LEVEL = 9

FOUR_PI = 4.0 * np.pi


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
    faces: np.ndarray = field(repr=False)  # (nf, 3, 3)
    nodes: np.ndarray = field(repr=False)  # (nf, 3) face centroids
    weights: np.ndarray = field(repr=False)  # (nf,) spherical areas
    face_diameter: float = 0.0  # max vertex-to-vertex distance


_quadrature_cache = {}


def sphere_quadrature(level):
    """Centroid nodes and spherical-excess weights at a subdivision level."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    if level > MAX_SPHERE_LEVEL:
        raise ValueError(f"level {level} exceeds guard {MAX_SPHERE_LEVEL}")
    if level in _quadrature_cache:
        return _quadrature_cache[level]
    faces = _icosahedron_faces()
    for _ in range(level):
        faces = subdivide_faces(faces)
    nodes = _normalize_rows(faces.mean(axis=1))
    weights = spherical_areas(faces)
    d = np.linalg.norm(faces - faces[:, [1, 2, 0]], axis=2)
    quad = SphereQuadrature(
        faces=faces,
        nodes=nodes,
        weights=weights,
        face_diameter=float(d.max()),
    )
    for arr in (quad.faces, quad.nodes, quad.weights):
        arr.setflags(write=False)
    _quadrature_cache[level] = quad
    return quad


@dataclass(frozen=True, eq=False)
class SphereRegion:
    """Subset of S2 carried by filtered quadrature nodes.

    `measure` is exact when a closed form is available (caps, full
    sphere) and otherwise the empirical weight sum.  Weights are
    rescaled so they sum to `measure`.

    `kind` names the shape: "cap" (with `center` and radius `rho`),
    "sphere", "complement" (of `base`) or "predicate".  Caps, the
    sphere and complements of either carry closed forms for the
    boundary distance and the logarithmic potential.
    """

    quadrature: SphereQuadrature
    indices: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    measure: float = 0.0
    empirical_measure: float = 0.0
    predicate: object = None
    kind: str = "predicate"
    center: np.ndarray = field(repr=False, default=None)
    rho: float = None
    base: object = field(repr=False, default=None)

    def contains(self, points):
        if self.predicate is None:
            raise ValueError("region has no membership predicate")
        return self.predicate(np.atleast_2d(np.asarray(points, dtype=float)))

    @property
    def has_closed_form(self):
        if self.kind == "complement":
            return self.base.has_closed_form
        return self.kind in ("cap", "sphere")

    def boundary_distance(self, points):
        """Signed geodesic distance to the boundary, negative inside.

        The distance is 1-Lipschitz in the geodesic metric, so a set
        of angular radius r around p lies on one side of the boundary
        when |boundary_distance(p)| > r.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "cap":
            return np.arccos(np.clip(points @ self.center, -1.0, 1.0)) \
                - self.rho
        if self.kind == "sphere":
            return np.full(points.shape[0], -np.inf)
        if self.kind == "complement":
            return -self.base.boundary_distance(points)
        raise ValueError("region has no closed-form boundary")

    def potential_gradient(self, points):
        """Tangential gradient of the logarithmic potential at points.

        Q(n) = -(1/mu) integral over the region of log(1 - n.s) ds, so
        grad Q(n) is the tangential part of (1/mu) int_K s/(1 - n.s) ds.
        For a cap with centre c and cos(rho) = a, Q = q(n.c) with

            (1 - t^2) q'(t) = (1 + t) - (4 pi / mu) (t - a)_+,

        that is q' = 1/(1 - t) outside and (1 + a)/((1 - a)(1 + t))
        inside, and grad Q = q'(t) (c - t n).  On the full sphere
        grad Q = 0; a complement has mu_c grad Q_c = -mu grad Q.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "cap":
            a = np.cos(self.rho)
            t = points @ self.center
            inside = t >= a
            qp = np.where(inside, (1.0 + a) / (1.0 - a), 1.0) / np.where(
                inside, 1.0 + t, 1.0 - t
            )
            return qp[:, None] * (self.center - t[:, None] * points)
        if self.kind == "sphere":
            return np.zeros_like(points)
        if self.kind == "complement":
            return -(self.base.measure / self.measure) * \
                self.base.potential_gradient(points)
        raise ValueError("region has no closed-form potential")


def make_region(quad, mask, predicate, exact_measure=None, **shape):
    """Region of the quadrature nodes selected by `mask`.

    With `exact_measure` the weights are rescaled to sum to it;
    `shape` holds the `kind` and its closed-form data.
    """
    idx = np.flatnonzero(mask)
    w = quad.weights[idx].copy()
    empirical = float(w.sum())
    if exact_measure is None:
        measure = empirical
    else:
        measure = float(exact_measure)
        if empirical > 0:
            w *= measure / empirical
    return SphereRegion(
        quadrature=quad,
        indices=idx,
        nodes=quad.nodes[idx].copy(),
        weights=w,
        measure=measure,
        empirical_measure=empirical,
        predicate=predicate,
        **shape,
    )


def full_sphere(level):
    quad = sphere_quadrature(level)
    return make_region(
        quad,
        np.ones(quad.nodes.shape[0], dtype=bool),
        lambda p: np.ones(p.shape[0], dtype=bool),
        exact_measure=FOUR_PI,
        kind="sphere",
    )


def cap(center, rho, level):
    """Geodesic cap {s : angle(s, center) <= rho} with exact measure."""
    if not 0.0 < rho < np.pi:
        raise ValueError("cap radius must lie strictly between 0 and pi")
    center = np.asarray(center, dtype=float)
    center = center / np.linalg.norm(center)
    cos_rho = np.cos(rho)

    def predicate(p):
        return p @ center >= cos_rho

    quad = sphere_quadrature(level)
    return make_region(
        quad,
        predicate(quad.nodes),
        predicate,
        exact_measure=2.0 * np.pi * (1.0 - cos_rho),
        kind="cap",
        center=center,
        rho=float(rho),
    )


def complement_region(region):
    """Complement of a region on the same quadrature, measure 4pi - m."""
    quad = region.quadrature
    mask = np.ones(quad.nodes.shape[0], dtype=bool)
    mask[region.indices] = False
    pred = region.predicate

    def predicate(p):
        return ~pred(p)

    return make_region(
        quad, mask, predicate if pred is not None else None,
        exact_measure=FOUR_PI - region.measure,
        kind="complement",
        base=region,
    )


def region_from_predicate(predicate, level=4, exact_measure=None):
    quad = sphere_quadrature(level)
    return make_region(quad, predicate(quad.nodes), predicate, exact_measure)

