"""Example immersions: the scaled Enneper family and stereographic
bubbles, with their closed-form geometry.

Throughout, lambda(X) = eps^2 + |X|^2 and the common Gauss map is
n(X) = (2 eps X1, 2 eps X2, |X|^2 - eps^2) / lambda(X).
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import sample_field
from .mesh import element_gradient

FD_STEP = 1e-5


class ClosureCheckError(Exception):
    """A closed-form self-intersection pair fails its check under Psi_eps."""


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


def enneper_tangents_closure(eps):
    """Unscaled tangents a, b with |a| = |b| = lambda, a . b = 0."""

    def tangents(x, y):
        a = np.stack(
            [eps ** 2 - (x ** 2 - y ** 2), -2 * x * y, 2 * eps * x],
            axis=-1,
        )
        b = np.stack(
            [2 * x * y, -(eps ** 2) - (x ** 2 - y ** 2), -2 * eps * y],
            axis=-1,
        )
        return a, b

    return tangents


def enneper_gauss_closure(eps):
    """Un-normalized Gauss-map closure c with |c| = lambda."""

    def c(x, y):
        return np.stack(
            [2 * eps * x, 2 * eps * y, x ** 2 + y ** 2 - eps ** 2],
            axis=-1,
        )

    return c


def stereographic_closure(eps, sign):
    def psi(x, y):
        ll = lam(eps, x, y)
        return np.stack(
            [
                2 * eps * x / ll,
                2 * eps * y / ll,
                sign * (x ** 2 + y ** 2 - eps ** 2) / ll,
            ],
            axis=-1,
        )

    return psi


def stereographic_tangents_closure(eps, sign):
    """Analytic first derivatives of the stereographic immersion."""

    def tangents(x, y):
        ll = lam(eps, x, y)
        l2 = ll ** 2
        d1 = np.stack(
            [
                2 * eps * (eps ** 2 - x ** 2 + y ** 2) / l2,
                -4 * eps * x * y / l2,
                sign * 4 * eps ** 2 * x / l2,
            ],
            axis=-1,
        )
        d2 = np.stack(
            [
                -4 * eps * x * y / l2,
                2 * eps * (eps ** 2 + x ** 2 - y ** 2) / l2,
                sign * 4 * eps ** 2 * y / l2,
            ],
            axis=-1,
        )
        return d1, d2

    return tangents


@dataclass(frozen=True, eq=False)
class Immersion:
    mesh: object
    psi: np.ndarray = field(repr=False)
    family: str = "custom"
    eps: float = float("nan")
    sign: int = 0
    psi_closure: object = None
    tangents_closure: object = None
    second_closure: object = None
    # sign s in Phi = s * K * exp(2f) for the family's Gauss map
    orientation_sign: int = 0


def enneper(eps, mesh):
    """Scaled Enneper immersion with analytic derivative closures."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    psi_c = enneper_psi_closure(eps)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    s = 1.0 / (1.0 + eps ** 2)
    raw = enneper_tangents_closure(eps)

    def tangents(x, y):
        a, b = raw(x, y)
        return s * a, s * b

    def second(x, y):
        one = np.ones_like(x)
        d11 = s * np.stack([-2 * x, -2 * y, 2 * eps * one], axis=-1)
        d12 = s * np.stack([2 * y, -2 * x, 0 * one], axis=-1)
        d22 = s * np.stack([2 * x, 2 * y, -2 * eps * one], axis=-1)
        return d11, d12, d22

    return Immersion(
        mesh=mesh,
        psi=psi_c(x, y),
        family="enneper",
        eps=eps,
        psi_closure=psi_c,
        tangents_closure=tangents,
        second_closure=second,
        orientation_sign=+1,
    )


def stereographic(eps, sign, mesh):
    """Sphere-covering immersion Psi = (2 eps X, +-(|X|^2 - eps^2))/lam."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    psi_c = stereographic_closure(eps, sign)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    tang = stereographic_tangents_closure(eps, sign)

    def second(x, y):
        h = FD_STEP
        d1p, d2p = tang(x + h, y)
        d1m, d2m = tang(x - h, y)
        d11 = (d1p - d1m) / (2 * h)
        _, d2q = tang(x, y + h)
        _, d2r = tang(x, y - h)
        d22 = (d2q - d2r) / (2 * h)
        d12 = (d2p - d2m) / (2 * h)
        return d11, d12, d22

    return Immersion(
        mesh=mesh,
        psi=psi_c(x, y),
        family="stereographic_plus" if sign > 0 else "stereographic_minus",
        eps=eps,
        sign=sign,
        psi_closure=psi_c,
        tangents_closure=tang,
        second_closure=second,
        orientation_sign=-1 if sign > 0 else +1,
    )


def custom_immersion(psi_closure, mesh):
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    return Immersion(mesh=mesh, psi=np.asarray(psi_closure(x, y), float),
                     family="custom", psi_closure=psi_closure)


def gauss_map(imm):
    """Gauss map as a SphereField with an exact closure."""
    if imm.family == "enneper":
        return sample_field(enneper_gauss_closure(imm.eps), imm.mesh)
    if imm.family.startswith("stereographic"):
        # the map covers the sphere, so it is its own Gauss map
        return sample_field(
            stereographic_closure(imm.eps, imm.sign), imm.mesh
        )
    raise ValueError("gauss_map requires a family immersion")


def _first_derivatives(imm):
    """Per-element first derivatives at centroids."""
    cx, cy = imm.mesh.centroids[:, 0], imm.mesh.centroids[:, 1]
    if imm.tangents_closure is not None:
        return imm.tangents_closure(cx, cy)
    g = element_gradient(imm.psi, imm.mesh)  # (nt, 2, 3)
    return g[:, 0], g[:, 1]


def _second_derivatives(imm):
    cx, cy = imm.mesh.centroids[:, 0], imm.mesh.centroids[:, 1]
    if imm.second_closure is not None:
        return imm.second_closure(cx, cy), "analytic"
    # least-squares quadratic fit of each component over the nodes,
    # evaluated once globally; adequate for smooth custom test maps
    x, y = imm.mesh.nodes[:, 0], imm.mesh.nodes[:, 1]
    basis = np.stack(
        [np.ones_like(x), x, y, 0.5 * x ** 2, x * y, 0.5 * y ** 2],
        axis=1,
    )
    coef, *_ = np.linalg.lstsq(basis, imm.psi, rcond=None)
    nt = imm.mesh.triangle_count
    d11 = np.broadcast_to(coef[3], (nt, 3)).copy()
    d12 = np.broadcast_to(coef[4], (nt, 3)).copy()
    d22 = np.broadcast_to(coef[5], (nt, 3)).copy()
    return (d11, d12, d22), "numerical"


@dataclass(frozen=True, eq=False)
class FundamentalForms:
    E: np.ndarray = field(repr=False)
    F: np.ndarray = field(repr=False)
    G: np.ndarray = field(repr=False)
    L: np.ndarray = field(repr=False)
    M: np.ndarray = field(repr=False)
    N: np.ndarray = field(repr=False)
    K: np.ndarray = field(repr=False)
    H: np.ndarray = field(repr=False)
    A2: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)
    degenerate: np.ndarray = field(repr=False)
    mode: str = "analytic"
    orientation_sign: int = 0


def fundamental_forms(imm):
    """First and second fundamental forms, K, H, |A|^2 per element."""
    d1, d2 = _first_derivatives(imm)
    (d11, d12, d22), mode = _second_derivatives(imm)
    E = np.einsum("ti,ti->t", d1, d1)
    F = np.einsum("ti,ti->t", d1, d2)
    G = np.einsum("ti,ti->t", d2, d2)
    normal = np.cross(d1, d2)
    det = E * G - F ** 2
    degenerate = det <= 1e-14
    safe = np.where(degenerate, 1.0, det)
    normal = normal / np.sqrt(safe)[:, None]
    L = np.einsum("ti,ti->t", d11, normal)
    M = np.einsum("ti,ti->t", d12, normal)
    N = np.einsum("ti,ti->t", d22, normal)
    K = (L * N - M ** 2) / safe
    H = (L * G - 2 * M * F + N * E) / (2.0 * safe)
    A2 = 4.0 * H ** 2 - 2.0 * K
    f = 0.5 * np.log(np.maximum(0.5 * (E + G), 1e-300))
    return FundamentalForms(
        E=E, F=F, G=G, L=L, M=M, N=N, K=K, H=H, A2=A2, f=f,
        degenerate=degenerate, mode=mode,
        orientation_sign=imm.orientation_sign,
    )


@dataclass(frozen=True, eq=False)
class ConformalReport:
    max_defect_EG: float
    max_defect_F: float
    l2_defect: float
    f: np.ndarray = field(repr=False, default=None)
    f_reference_max_err: float = float("nan")
    f_boundary_max: float = float("nan")


def family_f_closure(imm):
    """Closed-form log conformal factor for the family immersions."""
    eps = imm.eps
    if imm.family == "enneper":
        return lambda x, y: np.log(lam(eps, x, y)) - np.log(1 + eps ** 2)
    if imm.family.startswith("stereographic"):
        return lambda x, y: np.log(2 * eps) - np.log(lam(eps, x, y))
    return None


def conformal_check(imm):
    """Conformality defects |E - G|/E, |F|/E and recovered f."""
    forms = fundamental_forms(imm)
    E = np.maximum(forms.E, 1e-300)
    d_eg = np.abs(forms.E - forms.G) / E
    d_f = np.abs(forms.F) / E
    l2 = float(np.sqrt(np.mean(d_eg ** 2 + d_f ** 2)))
    ref = family_f_closure(imm)
    err = float("nan")
    fb = float("nan")
    if ref is not None:
        cx, cy = imm.mesh.centroids[:, 0], imm.mesh.centroids[:, 1]
        err = float(np.abs(forms.f - ref(cx, cy)).max())
        bx = imm.mesh.nodes[imm.mesh.boundary_mask]
        fb = float(np.abs(ref(bx[:, 0], bx[:, 1])).max())
    return ConformalReport(
        max_defect_EG=float(d_eg.max()),
        max_defect_F=float(d_f.max()),
        l2_defect=l2,
        f=forms.f,
        f_reference_max_err=err,
        f_boundary_max=fb,
    )


@dataclass(frozen=True)
class ClosedFormTable:
    eps: float
    int_abs_phi: float     # integral of |Phi| over the disc
    int_grad_n2: float     # Dirichlet energy of the Gauss map
    grad_f2: float         # squared L2 norm of grad f
    f_at_origin: float
    delta_norm: float      # Delta(eps) = sqrt(grad_f2)

    def phi_at(self, x, y):
        return -4.0 * self.eps ** 2 / lam(self.eps, x, y) ** 2


def closed_form_table(eps):
    """Exact reference values for the Enneper/stereographic family."""
    if eps <= 0:
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


def zeta_eps(eps, mesh):
    """Normalized closed-form test function f_eps / Delta(eps)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    table = closed_form_table(eps)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    f = np.log(lam(eps, x, y)) - np.log(1.0 + eps ** 2)
    return f / table.delta_norm


@dataclass(frozen=True)
class IntersectionPair:
    family: str
    x_hat: np.ndarray
    x_tilde: np.ndarray
    radius: float


@dataclass(frozen=True)
class SelfIntersections:
    pairs: tuple
    reason: str = ""


def self_intersections(eps, representative_radius=None):
    """Closed-form self-intersection pairs of the Enneper immersion.

    All solutions share |X_hat| = |X_tilde| = r with r^2 >= 3 eps^2.
    The four families: axis pairs at r = sqrt(3) eps (phi = 3pi/2 vs
    pi/2, and pi vs 0), plus the reflection curves phi -> -phi with
    sin^2 phi = (3/4)(1 + eps^2/r^2) and phi -> pi - phi with
    cos^2 phi = (3/4)(1 + eps^2/r^2), sampled at a representative
    radius.  Every returned pair is verified under Psi_eps to 1e-10.
    """
    r0 = np.sqrt(3.0) * eps
    if r0 > 1.0:
        return SelfIntersections(
            pairs=(), reason="intersection radius exceeds D1"
        )
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
    r = representative_radius
    if r is None:
        r = min(1.0, 0.5 * (r0 + 1.0))
    if r < r0 - 1e-12:
        raise ValueError("representative radius below sqrt(3) eps")
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
    psi = enneper_psi_closure(eps)
    for p in pairs:
        gap = np.linalg.norm(
            psi(*p.x_hat) - psi(*p.x_tilde)
        )
        if gap > 1e-10:
            raise ClosureCheckError(
                f"family {p.family} pair fails closure check: gap {gap:g}"
            )
    return SelfIntersections(pairs=tuple(pairs))


def _best_circle_pair(psi, r, n_angles, min_separation):
    """Best-separated angle pair minimizing |Psi gap| on one circle."""
    ang = 2.0 * np.pi * np.arange(n_angles) / n_angles
    ca, sa = np.cos(ang), np.sin(ang)
    pts = psi(r * ca, r * sa)  # (n_angles, 3)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    xy = np.stack([r * ca, r * sa], axis=1)
    sep2 = ((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2)
    d2[sep2 < (min_separation * r) ** 2] = np.inf
    i, j = np.unravel_index(int(np.argmin(d2)), d2.shape)
    return float(np.sqrt(d2[i, j])), ang[i], ang[j]


def intersection_sweep(eps, n_radii=120, n_angles=720, min_separation=0.1):
    """Scan radii for approximate coincidences Psi(X_hat) = Psi(X_tilde).

    Polar4 forces equal radii at an intersection, so for each radius
    the sweep takes the minimum of |Psi(X_hat) - Psi(X_tilde)| over
    well-separated angle pairs on that circle.  Returns (radii, gaps);
    the gap dips toward zero exactly on circles carrying intersection
    pairs (r^2 >= 3 eps^2) and stays bounded away from zero below.
    """
    psi = enneper_psi_closure(eps)
    radii = np.linspace(1.0 / n_radii, 1.0, n_radii)
    gaps = np.empty(n_radii)
    for i, r in enumerate(radii):
        gaps[i], _, _ = _best_circle_pair(psi, r, n_angles, min_separation)
    return radii, gaps


def refine_intersection(eps, r, phi_hat, phi_tilde, min_separation=0.1):
    """Locally minimize the pair gap over angles at fixed radius.

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

    sol = least_squares(res, [phi_hat, phi_tilde],
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    sep = r * np.hypot(
        np.cos(sol.x[0]) - np.cos(sol.x[1]),
        np.sin(sol.x[0]) - np.sin(sol.x[1]),
    )
    if sep < min_separation * r:
        return None
    return float(np.linalg.norm(res(sol.x)))


def coincidence_radii(eps, gap_tol=1e-10, n_radii=120, n_angles=720,
                      min_separation=0.1):
    """Radii whose circles carry a genuine intersection pair.

    The coarse per-circle minimum is only a seed: the gap decays
    continuously to zero as r approaches sqrt(3) eps from below, so
    each candidate pair is refined by local least squares at fixed
    radius and accepted only when the converged gap is at solver
    precision (circles slightly below the critical radius bottom out
    around 4e-7 per 1e-6 of r^2, well above the default tolerance).
    """
    psi = enneper_psi_closure(eps)
    radii = np.linspace(1.0 / n_radii, 1.0, n_radii)
    hits = []
    for r in radii:
        _, a, b = _best_circle_pair(psi, r, n_angles, min_separation)
        gap = refine_intersection(eps, r, a, b, min_separation)
        if gap is not None and gap <= gap_tol:
            hits.append(r)
    return np.array(hits)
