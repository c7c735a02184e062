"""Divergence-form machinery for the Jacobian density.

For a target n' away from the poles, U(n') rotates n' to the north
pole k.  With m = U(n') n, the kernel

    Gamma(n, n', xi) = (m1 (U xi)_2 - m2 (U xi)_1) / (1 - m3)

is linear in xi and bounded by 2|xi| / |n - n'|.  Its numerator is the
third component of U n x U xi = U (n x xi), and the third row of U is
n', so Gamma does not depend on the rotation (identity 1):

    Gamma(n, n', xi) = n'.(n x xi) / (1 - n.n') = (n x xi).G,
    G = n' / (1 - n.n'),

which also holds at n' = +-k.  `gamma_many` evaluates it; on (nbar,
d_i n) it gives per-element potentials (omega_1, omega_2) whose curl
reproduces the Jacobian density weakly.  Averaging
over an admissible sphere region K, a set of quadrature nodes and
weights (`sphere.SphereRegion`), gives square-integrable potentials
with the 8 pi / meas(K) certificate.  Every potential in the package
has the form Omega_i = (n x d_i n).G(n) and differs only in the field
G: the point mass above, its quadrature average over K
(`averaged_omega`) or the gradient q'(t) (c - t n) of the logarithmic
potential of a `sphere.Cap`, t = n.c.  `gradient_pairing` forms it for
the first two; the holography identity uses (c - t n) x n = c x n
instead.
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import FOUR_PI, HypothesisViolationError, area_margin, phi
from .mesh import integrate
from .pde import element_load, flux_load
from .sphere import PointGrid, SphereRegion, make_region, sphere_quadrature

# Chord distance an admissible node keeps from the image.
MARGIN = 0.05
# Chord distance averaged_omega's region must keep from the image.
MIN_MARGIN = 0.025
# Entries of each (elements x nodes) block in averaged_omega; bounds
# its working memory to a few MB whatever the mesh and region size.
_BLOCK_ENTRIES = 1 << 16


class SingularElementError(ValueError):
    """Gamma is undefined (n = n'), or an averaging region touches the
    field image."""


class KernelBoundError(Exception):
    """Averaged potential exceeds its quadrature kernel bound."""


def gradient_pairing(grad, n, *xis):
    """(n x xi).grad for each xi, broadcast over leading axes.

    With grad = n' / (1 - n.n') this is Gamma(n, n', xi); with grad a
    region average of that field it is the averaged potential.  The
    triple product equals (grad x n).xi, so grad x n is formed once, by
    components, and dotted with each xi.
    """
    g1, g2, g3 = grad[..., 0], grad[..., 1], grad[..., 2]
    n1, n2, n3 = n[..., 0], n[..., 1], n[..., 2]
    c1, c2, c3 = g2 * n3 - g3 * n2, g3 * n1 - g1 * n3, g1 * n2 - g2 * n1
    return tuple(c1 * xi[..., 0] + c2 * xi[..., 1] + c3 * xi[..., 2]
                 for xi in xis)


def gamma_many(n, nprime, *xis):
    """Gamma(n, n', xi) for each xi, over matching stacks of (n, n').

    Evaluates identity 1, Gamma = n'.(n x xi) / (1 - n.n'), which
    equals the rotated formula for every rotation U(n'), the poles
    included.  Raises SingularElementError where n = n'.
    """
    n, nprime = np.atleast_2d(n, nprime)
    denom = 1.0 - (n * nprime).sum(axis=1)
    if np.any(denom < 1e-14):
        raise SingularElementError("Gamma undefined at n = n'")
    return gradient_pairing(nprime / denom[:, None], n, *xis)


@dataclass(frozen=True)
class AdmissibleRegionReport:
    region: SphereRegion
    sigma: float          # achieved minimum distance to the image
    delta: float


def admissible_region(fld, level):
    """Sphere-quadrature nodes at distance > MARGIN from the image.

    The image is approximated by the element-centroid values; nodes
    within MARGIN (chord distance) of any of them are discarded.
    Requires a positive area margin delta = 4 pi - area, and reports
    the achieved sigma, the least distance from an admissible node to
    a centroid value.

    The values lie in a `PointGrid` of cubes of side MARGIN / 2, whose
    diagonal is below MARGIN: a node in a cube that holds a value (a
    positive count at radius 0) is discarded with no distance computed,
    and only the other nodes search for values within MARGIN.  sigma
    is the least distance of the admissible nodes' pairs within 2
    MARGIN, the radius doubling, on a grid of its size, until a pair
    appears.
    """
    delta = area_margin(fld)
    quad = sphere_quadrature(level)
    grid = PointGrid(fld.nbar, MARGIN / 2.0)
    mask = np.zeros(quad.nodes.shape[0], dtype=bool)
    free = np.flatnonzero(grid.counts(quad.nodes, 0.0) == 0)
    mask[free] = True
    mask[free[grid.pairs(quad.nodes[free], MARGIN)[0]]] = False
    if not np.any(mask):
        raise HypothesisViolationError(
            "no admissible sphere region: field image too large"
        )
    r = 2.0 * MARGIN
    while not (dist := grid.pairs(quad.nodes[mask], r)[2]).size:
        r *= 2.0
        grid = PointGrid(fld.nbar, r)
    return AdmissibleRegionReport(
        region=make_region(quad, mask),
        sigma=float(dist.min()),
        delta=delta,
    )


@dataclass(frozen=True, eq=False)
class DivergenceForm:
    omega1: np.ndarray = field(repr=False)
    omega2: np.ndarray = field(repr=False)
    l2_omega1: float
    l2_omega2: float
    bound_slack: np.ndarray = field(repr=False)


def averaged_omega(fld, region):
    """Region-averaged potentials Omega_i with bound certificates.

    Omega_i(T) = (1/meas K) sum_q w_q Gamma(nbar_T, s_q, d_i n_T)
    = (nbar_T x d_i n_T).G_T with G_T = (1/meas K) sum_q w_q s_q /
    (1 - nbar_T.s_q).  Raises when a region node lies within
    MIN_MARGIN of a centroid value, and KernelBoundError when an
    element breaks the quadrature bound (2/measK) (sum_q w_q/|nbar-s_q|)
    |d_i n|.  `bound_slack` is the minimum over i = 1, 2 of the slack
    of the closed-form bound 8 pi / meas(K) |d_i n| (positive means
    satisfied).
    """
    mesh = fld.mesh
    nt = mesh.triangle_count
    mu = region.measure
    nodes, w = region.nodes, region.weights
    grad = np.zeros((nt, 3))
    kern1 = np.zeros(nt)
    rows = max(_BLOCK_ENTRIES // max(nodes.shape[0], 1), 1)
    for lo in range(0, nt, rows):
        block = slice(lo, lo + rows)
        D = 1.0 - fld.nbar[block] @ nodes.T
        # |nbar - s|^2 = 2 D for unit vectors
        dist = np.sqrt(np.maximum(2.0 * D, 0.0))
        if dist.min(initial=np.inf) < MIN_MARGIN:
            raise SingularElementError(
                "averaging region touches the field image"
            )
        grad[block] = (w / D) @ nodes / mu
        kern1[block] = (w / dist).sum(axis=1)
    om1, om2 = gradient_pairing(grad, fld.nbar, fld.d1, fld.d2)
    g1 = np.linalg.norm(fld.d1, axis=1)
    g2 = np.linalg.norm(fld.d2, axis=1)
    qbound1 = (2.0 / mu) * kern1 * g1
    qbound2 = (2.0 / mu) * kern1 * g2
    cbound1 = (2.0 * FOUR_PI / mu) * g1
    cbound2 = (2.0 * FOUR_PI / mu) * g2
    slack = np.minimum(cbound1 - np.abs(om1), cbound2 - np.abs(om2))
    if np.any(np.abs(om1) > qbound1 + 1e-9) or np.any(
        np.abs(om2) > qbound2 + 1e-9
    ):
        raise KernelBoundError("averaged potential violates its kernel bound")
    return DivergenceForm(
        omega1=om1,
        omega2=om2,
        l2_omega1=float(np.sqrt(integrate(om1 ** 2, mesh))),
        l2_omega2=float(np.sqrt(integrate(om2 ** 2, mesh))),
        bound_slack=slack,
    )


def weak_identity_load(fld, form):
    """Load vector of the weak identity: b . zeta is the integral of
    Phi zeta minus the integral of Omega_2 d1(zeta) - Omega_1 d2(zeta)."""
    flux = np.stack([form.omega2, -form.omega1], axis=1)
    return element_load(phi(fld), fld.mesh) - flux_load(flux, fld.mesh)

