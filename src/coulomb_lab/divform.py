"""Divergence-form machinery for the Jacobian density.

For a target n' away from the poles, U(n') rotates n' to the north
pole k.  With m = U(n') n, the kernel

    Gamma(n, n', xi) = (m1 (U xi)_2 - m2 (U xi)_1) / (1 - m3)

is linear in xi and bounded by 2|xi| / |n - n'|.  Its numerator is the
third component of U n x U xi = U (n x xi), and the third row of U is
n', so Gamma does not depend on the rotation (identity 1):

    Gamma(n, n', xi) = n'.(n x xi) / (1 - n.n') = (n x xi).G,
    G = n' / (1 - n.n'),

which also holds at n' = +-k.  Evaluating Gamma on the element
derivatives of a field gives per-element potentials (omega_1, omega_2)
whose curl reproduces the Jacobian density weakly; averaging over an
admissible sphere region K gives square-integrable potentials with the
8 pi / meas(K) certificate.  Every potential in the package has the form
Omega_i = (n x d_i n).G(n) and differs only in the field G: the point
mass above (`omega`), its quadrature average over K
(`averaged_omega`) or the gradient of K's logarithmic potential
(`SphereRegion.potential_gradient`, used by the holography identity).
`gradient_pairing` is the one place that forms this product.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .fields import area_functional, phi
from .mesh import integrate
from .pde import element_load, flux_load
from .sphere import SphereRegion, make_region, sphere_quadrature

FOUR_PI = 4.0 * np.pi
POLE_TOL = 1e-12
# omega raises when a centroid value lies this close to its target.
SINGULAR_TOL = 1e-9
# Chord distance an admissible node keeps from the image and the poles.
MARGIN = 0.05
# Chord distance averaged_omega's region must keep from the image.
MIN_MARGIN = 0.025
# Entries of each (elements x nodes) block in averaged_omega; bounds
# its working memory to a few MB whatever the mesh and region size.
_BLOCK_ENTRIES = 1 << 16


class PoleDegeneracyError(Exception):
    """Rotation requested at n' = +-k where the family degenerates."""


class SingularElementError(Exception):
    """Element centroid value coincides with the target n'."""


class HypothesisViolationError(Exception):
    """Field violates the area margin needed for an admissible region."""


class KernelBoundError(Exception):
    """Averaged potential exceeds its quadrature kernel bound."""


def rotation_matrix(nprime):
    """Rotation U with U(n') n' = k, smooth away from the poles."""
    nprime = np.asarray(nprime, dtype=float)
    return rotation_matrices(nprime[None])[0]


def rotation_matrices(nprimes):
    """Batched rotation family, one 3x3 matrix per target."""
    nprimes = np.asarray(nprimes, dtype=float)
    n1, n2, n3 = nprimes[:, 0], nprimes[:, 1], nprimes[:, 2]
    lam = n1 ** 2 + n2 ** 2
    if np.any(lam < POLE_TOL):
        raise PoleDegeneracyError("rotation family degenerates at +-k")
    s = np.sqrt(lam)
    U = np.empty(nprimes.shape[:1] + (3, 3))
    U[:, 0, 0] = n1 * n3 / s
    U[:, 0, 1] = n2 * n3 / s
    U[:, 0, 2] = -s
    U[:, 1, 0] = -n2 / s
    U[:, 1, 1] = n1 / s
    U[:, 1, 2] = 0.0
    U[:, 2, 0] = n1
    U[:, 2, 1] = n2
    U[:, 2, 2] = n3
    return U


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


def gamma_many(n, nprime, xi):
    """Vectorized Gamma over matching stacks of (n, n', xi).

    Evaluates identity 1, Gamma = n'.(n x xi) / (1 - n.n'), which
    equals the rotated formula for every rotation U(n').
    """
    n = np.atleast_2d(np.asarray(n, dtype=float))
    nprime = np.atleast_2d(np.asarray(nprime, dtype=float))
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    denom = 1.0 - (n * nprime).sum(axis=1)
    if np.any(denom < 1e-14):
        raise ValueError("Gamma undefined at n = n'")
    return gradient_pairing(nprime / denom[:, None], n, xi)[0]


def omega(fld, nprime):
    """Per-element potentials (omega1, omega2), omega_i = Gamma(nbar,
    n', d_i n).  A centroid value within SINGULAR_TOL of n' raises."""
    nprime = np.asarray(nprime, dtype=float)
    dist2 = ((fld.nbar - nprime) ** 2).sum(axis=1)
    singular = np.flatnonzero(dist2 < SINGULAR_TOL ** 2)
    if singular.size:
        raise SingularElementError(
            f"element {int(singular[0])} has centroid value at n'"
        )
    denom = 1.0 - fld.nbar @ nprime
    return gradient_pairing(nprime / denom[:, None], fld.nbar,
                            fld.d1, fld.d2)


@dataclass(frozen=True)
class AdmissibleRegionReport:
    region: SphereRegion
    sigma: float          # achieved minimum distance to image and poles
    delta: float


def admissible_region(fld, level):
    """Sphere-quadrature nodes at distance > MARGIN from the image.

    The image is approximated by the element-centroid values; nodes
    within MARGIN (chord distance) of any of them or of +-k are
    discarded.  Requires a positive area margin delta = 4 pi - area,
    and reports the achieved sigma.
    """
    area = area_functional(fld)
    if area.delta <= 0:
        raise HypothesisViolationError(
            f"area functional {area.value:.6f} >= 4 pi; no margin"
        )
    quad = sphere_quadrature(level)
    tree = cKDTree(fld.nbar)
    dist, _ = tree.query(quad.nodes, k=1)
    pole = np.minimum(
        np.linalg.norm(quad.nodes - np.array([0.0, 0.0, 1.0]), axis=1),
        np.linalg.norm(quad.nodes + np.array([0.0, 0.0, 1.0]), axis=1),
    )
    dist = np.minimum(dist, pole)
    mask = dist > MARGIN
    if not np.any(mask):
        raise HypothesisViolationError(
            "no admissible sphere region: field image too large"
        )
    return AdmissibleRegionReport(
        region=make_region(quad, mask, None),
        sigma=float(dist[mask].min()),
        delta=area.delta,
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

