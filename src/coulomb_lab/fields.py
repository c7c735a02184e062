"""Sphere-valued fields on the disc: sampling, Jacobian density, energies
and the area margin that the paper's hypothesis needs."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import DiscMesh, element_gradient, integrate

FOUR_PI = 4.0 * np.pi


class SamplingError(ValueError):
    """Closure returned a (near-)zero vector at some node."""


@dataclass(frozen=True, eq=False)
class SphereField:
    """Unit vectors at mesh nodes.

    Derived per-element data is computed once, on first read, and is
    read-only:

    d1, d2 : (nt, 3) derivatives of the affine interpolant
    nbar   : (nt, 3) normalized triangle-centroid value, formed on one
             contiguous row (nt,) per component
    cross  : (nt, 3) d1 x d2

    nbar and the gradient are derived separately, so reading nbar
    alone, as `coarea_check` does, never forms the gradient.
    """

    mesh: DiscMesh
    values: np.ndarray

    @cached_property
    def _gradient(self):
        g = element_gradient(self.values, self.mesh)  # (nt, 2, 3)
        g.setflags(write=False)
        return g

    @cached_property
    def d1(self):
        return self._gradient[:, 0]

    @cached_property
    def d2(self):
        return self._gradient[:, 1]

    @cached_property
    def nbar(self):
        # one contiguous row (nt,) per component: the mean of the three
        # vertex values, then its Euclidean norm, summed in axis order
        i, j, k = self.mesh.triangles.T
        s = [(u[i] + u[j] + u[k]) / 3 for u in self.values.T]
        nbar = np.stack(s, axis=1)
        nbar /= np.sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2])[:, None]
        nbar.setflags(write=False)
        return nbar

    @cached_property
    def cross(self):
        cross = np.cross(self.d1, self.d2)
        cross.setflags(write=False)
        return cross


def field_from_values(values, mesh):
    """Wrap nodal vectors as a SphereField, normalizing to unit length."""
    values = np.array(values, dtype=float)
    if values.shape != (mesh.node_count, 3):
        raise ValueError("values must have shape (node_count, 3)")
    norms = np.linalg.norm(values, axis=1)
    bad = np.flatnonzero(norms < 1e-14)
    if bad.size:
        raise SamplingError(f"zero vector at node {bad[0]}")
    values /= norms[:, None]
    values.setflags(write=False)
    return SphereField(mesh=mesh, values=values)


def sample_field(closure, mesh):
    """Evaluate a closure (X1, X2) -> R^3 at the nodes and normalize.

    The closure must be vectorized over numpy arrays and nonzero at
    every node.
    """
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    raw = np.asarray(closure(x, y), dtype=float)
    if raw.shape == (3, mesh.node_count):
        raw = raw.T
    if raw.shape != (mesh.node_count, 3):
        raise ValueError("closure must return one 3-vector per node")
    return field_from_values(raw, mesh)


def phi(fld):
    """Per-element Jacobian density nbar . (d1 x d2)."""
    return np.einsum("ti,ti->t", fld.nbar, fld.cross)


def dirichlet_energy(fld):
    """Integral of |d1 n|^2 + |d2 n|^2 over the disc."""
    dens = (fld.d1 ** 2).sum(axis=1) + (fld.d2 ** 2).sum(axis=1)
    return integrate(dens, fld.mesh)


class HypothesisViolationError(Exception):
    """Field breaks a hypothesis of the paper: it leaves no area margin
    below 4 pi, or no admissible sphere region."""


def area_margin(fld):
    """The margin delta = 4 pi - area, with area the integral of
    |d1 n x d2 n|, that the paper's hypothesis needs; raises
    HypothesisViolationError unless it is positive."""
    area = integrate(np.linalg.norm(fld.cross, axis=1), fld.mesh)
    delta = FOUR_PI - area
    if delta <= 0:
        raise HypothesisViolationError(
            f"area functional {area:.6f} leaves no margin below 4 pi"
        )
    return delta
