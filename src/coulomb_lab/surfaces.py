"""The scaled Enneper family: closed-form reference values and the
self-intersection pairs of its immersion.

Throughout, lambda(X) = eps^2 + |X|^2 and the Gauss map of the
immersion Psi_eps is
n(X) = (2 eps X1, 2 eps X2, |X|^2 - eps^2) / lambda(X).
"""

from dataclasses import dataclass

import numpy as np

# The coincidence sweep: N_RADII circles, N_ANGLES seeds on each, pairs
# closer than MIN_SEPARATION * r rejected, and a refined gap of at most
# GAP_TOL counted as an intersection.
N_RADII = 120
N_ANGLES = 720
MIN_SEPARATION = 0.1
GAP_TOL = 1e-10


def lam(eps, x, y):
    return eps ** 2 + x ** 2 + y ** 2


def enneper_psi_closure(eps):
    """Position closure of the scaled Enneper immersion."""

    def psi(x, y):
        s = 1.0 / (1.0 + eps ** 2)
        return np.stack(
            [
                s * (eps ** 2 * x - (x ** 3 - 3 * x * y ** 2) / 3.0),
                s * (-(eps ** 2) * y + (y ** 3 - 3 * x ** 2 * y) / 3.0),
                s * (eps * x ** 2 - eps * y ** 2),
            ],
            axis=-1,
        )

    return psi


def enneper_gauss_closure(eps):
    """Un-normalized Gauss-map closure c with |c| = lambda."""

    def c(x, y):
        return np.stack(
            [2 * eps * x, 2 * eps * y, x ** 2 + y ** 2 - eps ** 2],
            axis=-1,
        )

    return c


@dataclass(frozen=True)
class ClosedFormTable:
    eps: float
    int_abs_phi: float     # integral of |Phi| over the disc
    int_grad_n2: float     # Dirichlet energy of the Gauss map
    grad_f2: float         # squared L2 norm of grad f
    f_at_origin: float
    delta_norm: float      # Delta(eps) = sqrt(grad_f2)


def closed_form_table(eps):
    """Exact reference values for the Enneper/stereographic family."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    e2 = eps ** 2
    grad_f2 = 4.0 * np.pi * (np.log(1.0 / e2 + 1.0) - 1.0 / (1.0 + e2))
    return ClosedFormTable(
        eps=eps,
        int_abs_phi=4.0 * np.pi / (1.0 + e2),
        int_grad_n2=8.0 * np.pi / (1.0 + e2),
        grad_f2=grad_f2,
        f_at_origin=np.log(e2) - np.log(1.0 + e2),
        delta_norm=float(np.sqrt(grad_f2)),
    )


def f_eps(eps, x, y):
    """f_eps = log lambda - log(1 + eps^2): zero on the unit circle, with
    Laplacian 4 eps^2 / lambda^2 = |Phi| of the Gauss map."""
    return np.log(lam(eps, x, y)) - np.log(1.0 + eps ** 2)


def zeta_eps(eps, mesh):
    """Normalized closed-form test function f_eps / Delta(eps)."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    table = closed_form_table(eps)
    return f_eps(eps, *mesh.nodes.T) / table.delta_norm


@dataclass(frozen=True)
class IntersectionPair:
    family: str
    x_hat: np.ndarray
    x_tilde: np.ndarray
    radius: float


def self_intersections(eps):
    """Closed-form self-intersection pairs of the Enneper immersion.

    All solutions share |X_hat| = |X_tilde| = r with r^2 >= 3 eps^2.
    The four families: axis pairs at r = sqrt(3) eps (phi = 3pi/2 vs
    pi/2, and pi vs 0), plus the reflection curves phi -> -phi with
    sin^2 phi = (3/4)(1 + eps^2/r^2) and phi -> pi - phi with
    cos^2 phi = (3/4)(1 + eps^2/r^2), sampled at the representative
    radius r = (sqrt(3) eps + 1) / 2, at least sqrt(3) eps.  Returns the
    tuple of pairs, empty when sqrt(3) eps exceeds the disc radius 1;
    criterion 10 (`self-intersect`) checks each gap under Psi_eps.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    r0 = np.sqrt(3.0) * eps
    if r0 > 1.0:
        return ()
    pairs = [
        IntersectionPair(
            family="vertical_axis",
            x_hat=np.array([0.0, -r0]),
            x_tilde=np.array([0.0, r0]),
            radius=r0,
        ),
        IntersectionPair(
            family="horizontal_axis",
            x_hat=np.array([-r0, 0.0]),
            x_tilde=np.array([r0, 0.0]),
            radius=r0,
        ),
    ]
    r = 0.5 * (r0 + 1.0)
    s2 = 0.75 * (1.0 + eps ** 2 / r ** 2)
    if s2 <= 1.0 + 1e-12:
        s = np.sqrt(min(s2, 1.0))
        ph = np.arcsin(s)
        pairs.append(
            IntersectionPair(
                family="reflection_sin",
                x_hat=r * np.array([np.cos(ph), np.sin(ph)]),
                x_tilde=r * np.array([np.cos(ph), -np.sin(ph)]),
                radius=r,
            )
        )
        phc = np.arccos(s)
        pairs.append(
            IntersectionPair(
                family="reflection_cos",
                x_hat=r * np.array([np.cos(phc), np.sin(phc)]),
                x_tilde=r * np.array([-np.cos(phc), np.sin(phc)]),
                radius=r,
            )
        )
    return tuple(pairs)


def _best_circle_pair(psi, r, close):
    """Angle pair, not `close`, minimizing the Psi gap on the circle of
    radius r, from squared gaps |p_i|^2 + |p_j|^2 - 2 p_i.p_j."""
    ang = 2.0 * np.pi * np.arange(N_ANGLES) / N_ANGLES
    pts = psi(r * np.cos(ang), r * np.sin(ang))  # (n_angles, 3)
    sq = np.vecdot(pts, pts)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    d2[close] = np.inf
    i, j = np.unravel_index(int(np.argmin(d2)), d2.shape)
    return ang[i], ang[j]


def refine_intersection(eps, r, phi_hat, phi_tilde):
    """Locally minimize the pair gap over angles at fixed radius.

    On the circle, psi(a) = s (eps^2 r cos a - r^3 cos 3a / 3,
    -eps^2 r sin a - r^3 sin 3a / 3, eps r^2 cos 2a), s = 1 / (1 + eps^2),
    so the Jacobian of the gap psi(a) - psi(b) is [psi'(a), -psi'(b)].
    Returns the converged gap, or None when the optimizer collapses
    onto a pair closer than the separation floor.
    """
    from scipy.optimize import least_squares

    psi = enneper_psi_closure(eps)

    def res(v):
        a, b = v
        return psi(r * np.cos(a), r * np.sin(a)) - psi(
            r * np.cos(b), r * np.sin(b)
        )

    s = 1.0 / (1.0 + eps ** 2)

    def dpsi(a):
        return s * np.array([
            -eps ** 2 * r * np.sin(a) + r ** 3 * np.sin(3 * a),
            -eps ** 2 * r * np.cos(a) - r ** 3 * np.cos(3 * a),
            -2.0 * eps * r ** 2 * np.sin(2 * a)])

    sol = least_squares(
        res, [phi_hat, phi_tilde],
        jac=lambda v: np.stack([dpsi(v[0]), -dpsi(v[1])], axis=1),
        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    sep = r * np.hypot(
        np.cos(sol.x[0]) - np.cos(sol.x[1]),
        np.sin(sol.x[0]) - np.sin(sol.x[1]),
    )
    if sep < MIN_SEPARATION * r:
        return None
    return float(np.linalg.norm(res(sol.x)))


def coincidence_radii(eps):
    """Radii whose circles carry a genuine intersection pair.

    The coarse per-circle minimum is only a seed: the gap decays
    continuously to zero as r approaches sqrt(3) eps from below, so
    each candidate pair is refined by local least squares at fixed
    radius and accepted only when the converged gap is at solver
    precision (circles slightly below the critical radius bottom out
    around 4e-7 per 1e-6 of r^2, well above GAP_TOL).
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    psi = enneper_psi_closure(eps)
    radii = np.linspace(1.0 / N_RADII, 1.0, N_RADII)
    # angle pairs closer than MIN_SEPARATION * r on any circle: their
    # chord over r is 2 |sin(pi (i - j) / N_ANGLES)|
    k = np.arange(N_ANGLES)
    steps = np.subtract.outer(k, k) % N_ANGLES
    close = 2.0 * np.abs(np.sin(np.pi * steps / N_ANGLES)) < MIN_SEPARATION
    hits = []
    for r in radii:
        a, b = _best_circle_pair(psi, r, close)
        gap = refine_intersection(eps, r, a, b)
        if gap is not None and gap <= GAP_TOL:
            hits.append(r)
    return np.array(hits)
