"""Preimage counting, regular-value filtering, coarea and holography.

The preimage census solves, per triangle, the 3x3 linear system that
makes the affine interpolant of the nodal sphere values parallel to
the target direction (with positive ray orientation) in barycentric
coordinates.  A k-d tree over element centroid values prunes the
candidate triangles, so a census costs O(hits), not O(elements).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .divform import gradient_pairing
from .fields import phi
from .mesh import TRI7_BARY, TRI7_WEIGHTS, element_gradient

FOUR_PI = 4.0 * np.pi
BARY_TOL = 1e-9
# Accuracy that holography_identity promises for caps, the full sphere
# and their complements: |residual| stays below it.
HOLOGRAPHY_TOL = 1e-4
# Recursive splits of elements whose image straddles the region boundary.
SPLIT_DEPTH = 10
# Elements per vectorized batch (bounds the working memory) of
# holography_identity and of coarea_check's lhs.
_CHUNK = 1 << 16
_COAREA_CHUNK = 1 << 12
# The reasons regular_filter gives, in the order it tests them.
FILTER_REASONS = ("pole", "degenerate", "zero_jacobian", "count",
                  "boundary", "separation", "integral")


def _tangent_basis(nprime):
    """Unit t1 = e_i x n' / |e_i x n'|, for the axis e_i least aligned
    with n', and t2 = n' x t1, written out as np.cross computes them."""
    x, y, z = nprime.tolist()
    i = min(range(3), key=lambda k: abs((x, y, z)[k]))
    t1 = np.array(((0.0, -z, y), (z, 0.0, -x), (-y, x, 0.0))[i])
    t1 /= np.linalg.norm(t1)
    a, b, c = t1.tolist()
    return t1, np.array([y * c - z * b, z * a - x * c, x * b - y * a])


@dataclass(frozen=True)
class Hit:
    point: np.ndarray
    sign: int
    element: int


@dataclass(frozen=True)
class PreimageCensus:
    hits: tuple
    degenerate_elements: tuple

    @property
    def card(self):
        return len(self.hits)


class PreimageSolver:
    """Reusable census context: centroid tree plus per-element radii."""

    def __init__(self, fld):
        self.fld = fld
        self.phi = phi(fld)
        verts = fld.values[fld.mesh.triangles]  # (nt, 3, 3)
        self.radius = np.linalg.norm(
            verts - fld.nbar[:, None, :], axis=2
        ).max(axis=1)
        self.max_radius = float(self.radius.max())
        self.tree = cKDTree(fld.nbar)
        self.area = fld.mesh.area

    def candidates(self, nprime):
        idx = self.tree.query_ball_point(
            np.asarray(nprime, dtype=float),
            2.0 * self.max_radius + 1e-9,
        )
        idx = np.sort(np.asarray(idx, dtype=np.int64))
        if idx.size == 0:
            return idx
        d = np.linalg.norm(self.fld.nbar[idx] - nprime, axis=1)
        return idx[d <= 2.0 * self.radius[idx] + 1e-9]

    def census(self, nprime):
        """Census of {X : n(X) = n'} for the element-affine interpolant."""
        fld = self.fld
        nprime = np.asarray(nprime, dtype=float)
        nprime = nprime / np.linalg.norm(nprime)
        cand = self.candidates(nprime)
        if cand.size == 0:
            return PreimageCensus(hits=(), degenerate_elements=())
        hits, degenerate = [], []
        t1, t2 = _tangent_basis(nprime)
        verts = fld.values[fld.mesh.triangles[cand]]  # (m, 3, 3)
        A = np.empty((cand.size, 3, 3))
        A[:, 0] = verts @ t1
        A[:, 1] = verts @ t2
        A[:, 2] = 1.0
        rhs = np.array([0.0, 0.0, 1.0])
        dets = np.linalg.det(A)
        solvable = np.abs(dets) > 1e-12
        degenerate_mask = ~solvable & (
            np.linalg.norm(fld.nbar[cand] - nprime, axis=1)
            <= 2.0 * self.radius[cand] + 1e-9
        )
        degenerate.extend(int(e) for e in cand[degenerate_mask])
        idx = np.flatnonzero(solvable)
        if idx.size:
            alpha = np.linalg.solve(
                A[idx],
                np.broadcast_to(rhs[:, None], (idx.size, 3, 1)).copy()
            )[..., 0]
            m = np.einsum("ki,kij->kj", alpha, verts[idx])
            ray_ok = m @ nprime > 0.0
            amin = alpha.min(axis=1)
            # closed-element solutions; edge/vertex hits are duplicated
            # by the neighbouring elements and deduplicated below
            inside = np.flatnonzero(ray_ok & (amin > -BARY_TOL))
            tri_pts = fld.mesh.nodes[fld.mesh.triangles[cand[idx]]]
            pts = np.einsum("ki,kij->kj", alpha, tri_pts)
            # Copies of one edge or vertex point agree to rounding and
            # distinct hits lie about a mesh width apart, so keeping
            # each solution with no earlier one within 1e-9 keeps the
            # first copy.
            found = pts[inside]
            close = np.linalg.norm(found[:, None] - found[None],
                                   axis=2) < 1e-9
            inside = inside[~np.triu(close, 1).any(axis=0)]
            elems = cand[idx[inside]]
            signs = np.sign(self.phi[elems]).astype(int)
            degenerate.extend(elems[signs == 0].tolist())
            # cand is sorted, so the hits come in element order
            hits = [Hit(point=p, sign=int(sg), element=int(e))
                    for p, sg, e in zip(pts[inside], signs, elems)]
        return PreimageCensus(
            hits=tuple(hits),
            degenerate_elements=tuple(sorted(set(degenerate))),
        )

    def kernel_integral(self, nprime):
        """Discrete integral of dX / |nbar(X) - n'| over the disc."""
        d = np.linalg.norm(self.fld.nbar - nprime, axis=1)
        d = np.maximum(d, 1e-300)
        return float((self.fld.mesh.areas / d).sum())

    def kernel_integral_exceeds(self, nprime, N):
        """Whether kernel_integral(nprime) > N, decided from a bound.

        With r = 2 area / N, the elements with |nbar - n'| > r add less
        than their area over r, so at most N / 2 in all.  The exact sum
        over the near elements (those within r, from the centroid tree)
        plus (area - near area) / r bounds the integral from above;
        when the bound, widened by 1e-12 against rounding, is at most
        N, the answer is no.  Otherwise the exact sum decides; so it
        does at once when r >= 2, where every element is near and the
        bound is the exact sum.
        """
        r = 2.0 * self.area / N
        if r < 2.0:
            near = np.asarray(self.tree.query_ball_point(nprime, r),
                              dtype=np.int64)
            d = np.linalg.norm(self.fld.nbar[near] - nprime, axis=1)
            a = self.fld.mesh.areas[near]
            bound = float((a / np.maximum(d, 1e-300)).sum()) \
                + (self.area - float(a.sum())) / r
            if bound * (1.0 + 1e-12) <= N:
                return False
        return self.kernel_integral(nprime) > N


@dataclass(frozen=True)
class FilterResult:
    accepted: bool
    reasons: tuple
    census: PreimageCensus


def regular_filter(solver, nprime, N):
    """Regular-value test of a target direction for `solver`'s field.

    Rejects targets near the poles, with degenerate or zero-sign hits,
    with more than N hits, with hits too close to the boundary or to
    each other (within one mesh width), or with a discrete kernel
    integral of dX / |nbar - n'| above N; the reasons are named in
    FILTER_REASONS.  The integral test is decided by
    `PreimageSolver.kernel_integral_exceeds`: the exact sum over the
    elements within r = 2 area / N of n' plus (far area) / r bounds
    the integral, and only a target whose bound exceeds N pays for
    the exact sum over every element.  Either way the decision is the
    exact one.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    nprime = np.asarray(nprime, dtype=float)
    nprime = nprime / np.linalg.norm(nprime)
    reasons = []
    k = np.array([0.0, 0.0, 1.0])
    if min(np.linalg.norm(nprime - k), np.linalg.norm(nprime + k)) < 1.0 / N:
        reasons.append("pole")
    census = solver.census(nprime)
    if census.degenerate_elements:
        reasons.append("degenerate")
    if any(h.sign == 0 for h in census.hits):
        reasons.append("zero_jacobian")
    if census.card > N:
        reasons.append("count")
    h_mesh = solver.fld.mesh.h_max
    pts = np.array([h.point for h in census.hits]).reshape(-1, 2)
    if pts.size and np.linalg.norm(pts, axis=1).max() > 1.0 - h_mesh:
        reasons.append("boundary")
    if pts.shape[0] >= 2:
        dd = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        np.fill_diagonal(dd, np.inf)
        if dd.min() < h_mesh:
            reasons.append("separation")
    if solver.kernel_integral_exceeds(nprime, N):
        reasons.append("integral")
    return FilterResult(
        accepted=not reasons, reasons=tuple(reasons), census=census
    )


@dataclass(frozen=True, eq=False)
class CoareaReport:
    lhs: float
    rhs: float
    gap: float
    excluded_measure: float
    cards: np.ndarray = field(repr=False)
    accepted: np.ndarray = field(repr=False)
    signed_sums: np.ndarray = field(repr=False)
    # How many quadrature nodes the filter rejected for each reason of
    # FILTER_REASONS (a node may have several).
    rejections: dict = field(repr=False)


def coarea_check(fld, g, region, N):
    """Both sides of the coarea identity over a sphere region.

    g is constant on each element.  lhs integrates g |Phi(n_h)| 1_K(n_h)
    for n_h = P/|P|, the map whose preimages the census counts, with
    the rule and boundary splitting of holography_identity; so the
    region must be a cap, the full sphere or a complement of either.
    rhs sums, over accepted quadrature nodes, the hit-wise total of g.
    Nodes failing the regular filter contribute to the reported
    excluded measure instead, and their reasons to `rejections`.
    """
    g = np.asarray(g, dtype=float)
    _require_closed_form(region, "coarea_check")

    def weighted(elems, points, n, r, phi_h, member):
        return (np.where(member, g[elems, None] * np.abs(phi_h), 0.0),)

    _, (lhs,) = _integrate_nh(fld, region, weighted, _COAREA_CHUNK)
    lhs = float(lhs)
    rhs = 0.0
    excluded = 0.0
    cards = np.zeros(region.nodes.shape[0], dtype=int)
    accepted = np.zeros(region.nodes.shape[0], dtype=bool)
    signed = np.zeros(region.nodes.shape[0], dtype=int)
    rejections = dict.fromkeys(FILTER_REASONS, 0)
    solver = PreimageSolver(fld)
    for q in range(region.nodes.shape[0]):
        res = regular_filter(solver, region.nodes[q], N)
        cards[q] = res.census.card
        signed[q] = sum(h.sign for h in res.census.hits)
        for reason in res.reasons:
            rejections[reason] += 1
        if res.accepted:
            accepted[q] = True
            rhs += region.weights[q] * sum(
                g[h.element] for h in res.census.hits
            )
        else:
            excluded += region.weights[q]
    return CoareaReport(
        lhs=lhs,
        rhs=rhs,
        gap=lhs - rhs,
        excluded_measure=excluded,
        cards=cards,
        accepted=accepted,
        signed_sums=signed,
        rejections=rejections,
    )


@dataclass(frozen=True, eq=False)
class HolographyReport:
    raw_term: float
    f_term: float
    omega_term: float
    residual: float
    mu: float
    omega_l2: float


def _straddles(region, images):
    """Sub-triangles whose image may meet the region boundary.

    `images` (k, 3, 3) are the unit images of the vertices; n_h maps a
    sub-triangle onto the geodesic triangle they span, which lies in
    the cap of angular radius r about their normalized mean m.  The
    image stays on one side when |boundary_distance(m)| > r.
    """
    m = images.sum(axis=1)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    cos_r = (images @ m[:, :, None])[..., 0].min(axis=1)
    radius = np.arccos(np.clip(cos_r, -1.0, 1.0))
    return (np.abs(region.boundary_distance(m)) <= radius) | (cos_r <= 0.0)


def _split(bary):
    """Four midpoint children of each sub-triangle (k, 3, 3)."""
    b0, b1, b2 = bary[:, 0], bary[:, 1], bary[:, 2]
    m01, m12, m02 = 0.5 * (b0 + b1), 0.5 * (b1 + b2), 0.5 * (b0 + b2)
    children = np.stack([
        np.stack([b0, m01, m02], axis=1),
        np.stack([m01, b1, m12], axis=1),
        np.stack([m02, m12, b2], axis=1),
        np.stack([m01, m12, m02], axis=1),
    ], axis=1)
    return children.reshape(-1, 3, 3)


def _rule_sums(fld, region, integrand, cross, elems, bary):
    """Element-rule averages of an integrand over sub-triangles.

    `bary` (k, 3, 3) holds the element barycentrics of the vertices of
    sub-triangles of the elements `elems`.  At the rule points P is the
    P1 interpolant, n_h = P/|P| and, with d_i the derivatives of P,
    Phi(n_h) = n_h.(d1 x d2) / |P|^2, with `cross` = d1 x d2 per
    element.  `integrand(elems, points, n, r, phi_h, member)` gets, per
    rule point, the barycentrics, n_h, |P|, Phi(n_h) and 1_K(n_h), and
    returns a tuple of (k, 7) values; returns their rule averages per
    unit area.
    """
    points = TRI7_BARY @ bary
    P = points @ fld.values[fld.mesh.triangles[elems]]
    r = np.linalg.norm(P, axis=2)
    n = P / r[..., None]
    phi_h = (n @ cross[elems, :, None])[..., 0] / r ** 2
    member = region.contains(n.reshape(-1, 3)).reshape(r.shape)
    return tuple(v @ TRI7_WEIGHTS
                 for v in integrand(elems, points, n, r, phi_h, member))


def _split_integral(fld, region, integrand, cross, elems):
    """Integrals of the integrand over elements met by the boundary.

    Sub-triangles whose image may meet the region boundary are split
    SPLIT_DEPTH times; the others take the element rule whole, and the
    leaves use the pointwise indicator.  Splitting resolves both the
    indicator and any kink of the integrand across the boundary
    preimage.
    """

    def integral(elems, bary):
        a = fld.mesh.areas[elems]
        return np.array([a @ v for v in _rule_sums(
            fld, region, integrand, cross, elems, bary)])

    bary = np.broadcast_to(np.eye(3), (elems.size, 3, 3))
    sums = 0.0
    frac = 1.0
    for _ in range(SPLIT_DEPTH):
        bary = _split(bary)
        elems = np.repeat(elems, 4)
        frac *= 0.25
        images = bary @ fld.values[fld.mesh.triangles[elems]]
        images /= np.linalg.norm(images, axis=2, keepdims=True)
        straddles = _straddles(region, images)
        sums += frac * integral(elems[~straddles], bary[~straddles])
        bary, elems = bary[straddles], elems[straddles]
    return sums + frac * integral(elems, bary)


def _integrate_nh(fld, region, integrand, chunk):
    """Disc integrals of the integrand's values, for n_h: (whole, split).

    `whole` applies the element rule to every element.  `split` does so
    where the element's image stays on one side of the region boundary
    and integrates the other elements with `_split_integral`, which
    resolves 1_K(n_h).  Elements go `chunk` at a time, and those met by
    the boundary chunk >> SPLIT_DEPTH at a time, to bound the memory.
    """
    mesh = fld.mesh
    cross = np.cross(fld.d1, fld.d2)
    whole = split = 0.0
    straddling = []
    for lo in range(0, mesh.triangle_count, chunk):
        elems = np.arange(lo, min(lo + chunk, mesh.triangle_count))
        sums = _rule_sums(fld, region, integrand, cross, elems,
                          np.broadcast_to(np.eye(3), (elems.size, 3, 3)))
        straddles = _straddles(region, fld.values[mesh.triangles[elems]])
        a = mesh.areas[elems]
        whole += np.array([a @ v for v in sums])
        split += np.array([a[~straddles] @ v[~straddles] for v in sums])
        straddling.append(elems[straddles])
    straddling = np.concatenate(straddling)
    step = max(chunk >> SPLIT_DEPTH, 1)
    for lo in range(0, straddling.size, step):
        split += _split_integral(fld, region, integrand, cross,
                                 straddling[lo:lo + step])
    return whole, split


def _require_closed_form(region, what):
    if region.predicate is None:
        raise ValueError("region needs a membership predicate")
    if not region.has_closed_form:
        raise ValueError(
            f"{what} needs a cap, the full sphere or a complement of "
            "either"
        )


def holography_identity(fld, region, zeta):
    """Terms and residual of the region-holography identity.

    The terms are evaluated for the Lipschitz map n_h = P/|P|, where P
    is the P1 interpolant of the nodal values (the map whose preimages
    `PreimageSolver.census` solves for).  For n_h and the P1 test function zeta,
    vanishing on the boundary,

        int Phi zeta = (4 pi / mu) int_{n_h in K} Phi zeta
                       + int (Omega_2 d1 zeta - Omega_1 d2 zeta)

    holds exactly, with Omega_i = grad Q(n_h).(n_h x d_i n_h) and Q
    the logarithmic potential of the region (see
    `SphereRegion.potential_gradient`).  raw = int Phi zeta; f_term
    and omega_term are the two right-hand terms, all three from the
    same 7-point degree-5 element rule.  Elements whose image may meet
    the region boundary are split recursively SPLIT_DEPTH times, to
    resolve the indicator and the kink of Omega there.

    The region must have a closed-form potential and boundary: a cap,
    the full sphere or a complement of either.  Then |residual| <=
    HOLOGRAPHY_TOL.  Any other region raises ValueError.
    """
    mu = region.measure
    if mu <= 0:
        raise ValueError("region must have positive measure")
    _require_closed_form(region, "holography_identity")
    mesh = fld.mesh
    zeta = np.asarray(zeta, dtype=float)
    zv = zeta[mesh.triangles]
    gz = element_gradient(zeta, mesh)

    def terms(elems, points, n, r, phi_h, member):
        # Phi zeta, its part over K, the pairing Omega_2 d1 zeta -
        # Omega_1 d2 zeta and |Omega|^2.  Since n_h x d_i n_h =
        # n_h x d_i / |P|, Omega_i = grad Q(n_h).(n_h x d_i) / |P|.
        pz = phi_h * (points @ zv[elems, :, None])[..., 0]
        grad_q = region.potential_gradient(n.reshape(-1, 3)).reshape(n.shape)
        grad_q /= r[..., None]
        om1, om2 = gradient_pairing(grad_q, n, fld.d1[elems, None],
                                    fld.d2[elems, None])
        pairing = om2 * gz[elems, 0, None] - om1 * gz[elems, 1, None]
        return pz, np.where(member, pz, 0.0), pairing, om1 ** 2 + om2 ** 2

    whole, split = _integrate_nh(fld, region, terms, _CHUNK)
    raw, omega_sq = float(whole[0]), float(whole[3])
    f_term, omega_term = float(split[1]), float(split[2])
    f_term *= FOUR_PI / mu
    return HolographyReport(
        raw_term=raw,
        f_term=f_term,
        omega_term=omega_term,
        residual=raw - f_term - omega_term,
        mu=mu,
        omega_l2=float(np.sqrt(omega_sq)),
    )
