"""Preimage counting, regular-value filtering, coarea and holography.

The preimage census finds, per triangle with vertex values v_i, where
the affine interpolant P is a positive multiple of the target n'.  With
c_i = v_j x v_k (i, j, k cyclic) and S = n'.(c_0 + c_1 + c_2), the
barycentrics are n'.c_i / S and P = (v0.c_0 / S) n' (Cramer's rule, as
in Moller & Trumbore 1997).  S alone decides solvability and, the
triangles being positively oriented, the sign of Phi(n_h) at the hit.
A grid of cubes over the element centroid values (`sphere.PointGrid`)
prunes the candidate triangles, so a census costs O(hits), not
O(elements), per target; one grid search (`PreimageSolver.grid`)
serves a batch of targets.
The regular-value filter takes its census candidates and its bound on
the kernel integral from the same search (`regular_filter`).

The coarea check counts hits at the nodes of a `SphereQuadrature`; the
holography identity reads only the centre, radius and measure of a `Cap`.
It takes each element whole by one 7-point rule, except where the image
meets the cap boundary: there a ray rule sweeps the element from one
vertex and splits each ray exactly at the boundary, whose preimage is a
conic in the element (see `holography_identity`).
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import FOUR_PI
from .mesh import TRI7_BARY, TRI7_WEIGHTS, element_gradient
from .sphere import PointGrid, spherical_areas

BARY_TOL = 1e-9
# Accuracy that holography_identity promises for caps (the full sphere
# is the cap of radius pi): |residual| stays below it.
HOLOGRAPHY_TOL = 1e-4
# Gauss-Legendre points per theta interval and per u segment of the
# ray rule for elements whose image meets the region boundary.
RAY_RULE_POINTS = 12
# Elements per vectorized batch of holography_identity (bounds the
# working memory); elements met by the region boundary go _CHUNK >> 6
# at a time, each with up to 5 x 3 x RAY_RULE_POINTS^2 points.
_CHUNK = 1 << 12
# Most (target, element) candidates that regular_filter's grid search
# examines per block of coarea_check (bounds the working memory); a
# block holds at least one target.
_PAIR_BLOCK = 1 << 15
# The reasons regular_filter gives, in the order it tests them.
FILTER_REASONS = ("pole", "degenerate", "count", "boundary", "separation",
                  "integral")


def _norms(v):
    """Row norms of v (k, d), rounded as np.linalg.norm rounds one row."""
    return np.sqrt(np.vecdot(v, v))


def _near_earlier(owner, points, tol, targets):
    """Whether each point lies within tol of an earlier point of the
    same target, with `owner` (k,) the sorted target index of each
    point; compared in padded (targets, most points per target)
    arrays."""
    rank = np.arange(owner.size) - np.searchsorted(owner, owner)
    padded = np.full((targets, rank.max(initial=-1) + 1, points.shape[1]),
                     np.nan)
    padded[owner, rank] = points
    d = np.linalg.norm(padded[:, :, None] - padded[:, None], axis=3)
    return np.triu(d < tol, 1).any(axis=1)[owner, rank]


@dataclass(frozen=True, eq=False)
class PreimageCensus:
    """The hits of a batch of `targets` targets, ordered by target and
    then element: their target index in the batch `owner` (k,), points
    (k, 2) and signs (k,), the sign of Phi(n_h) at each hit; and the
    sorted pair codes (see `PreimageSolver.candidates`) of the elements
    whose system is singular, |S| <= 1e-12 (`degenerate`)."""

    owner: np.ndarray
    points: np.ndarray
    signs: np.ndarray
    degenerate: np.ndarray
    targets: int

    @property
    def card(self):
        """Hits in the whole batch."""
        return int(self.signs.size)

    @property
    def cards(self):
        """Hits per target (targets,)."""
        return np.bincount(self.owner, minlength=self.targets)


class PreimageSolver:
    """Reusable census context: a grid of the centroid values per search
    radius, plus per-element radii."""

    def __init__(self, fld):
        self.fld = fld
        # one vertex at a time: (nt, 3, 3) temporaries would raise the
        # peak memory of coarea_check
        self.radius = np.max([
            np.linalg.norm(fld.values[corner] - fld.nbar, axis=1)
            for corner in fld.mesh.triangles.T], axis=0)
        self.grids = {}
        self.reach = 2.0 * float(self.radius.max()) + 1e-9
        # exact kernel integrals summed so far (see kernel_integral)
        self.kernel_sums = 0

    def grid(self, r):
        """The `PointGrid` of the centroid values with cubes of side r,
        built on first use."""
        if r not in self.grids:
            self.grids[r] = PointGrid(self.fld.nbar, r)
        return self.grids[r]

    def candidates(self, nprimes, near):
        """Codes q * triangle_count + e of the (target, element) pairs
        to solve: element e lies within twice its radius of target q
        of `nprimes` (T, 3).  The codes are sorted, so the pairs come
        by target and then element.  `near` is the caller's search
        `grid(r).pairs(nprimes, r)` for the (target, element) pairs at
        a radius r of at least `reach`, or None to search at `reach`."""
        if near is None:
            near = self.grid(self.reach).pairs(nprimes, self.reach)
        owner, elems, d = near
        keep = d <= 2.0 * self.radius[elems] + 1e-9
        return np.sort(owner[keep] * self.fld.mesh.triangle_count
                       + elems[keep])

    def census(self, nprimes, near):
        """Census of {X : n(X) = n'} for the element-affine interpolant,
        for each row n' of `nprimes` (T, 3), in the closed form of the
        module docstring; `near` goes to `candidates`."""
        fld = self.fld
        nprimes = np.asarray(nprimes, dtype=float)
        nprimes = nprimes / _norms(nprimes)[:, None]
        codes = self.candidates(nprimes, near)
        owner, cand = np.divmod(codes, fld.mesh.triangle_count)
        verts = fld.values[fld.mesh.triangles[cand]]  # (m, 3, 3)
        v0, v1, v2 = verts[:, 0], verts[:, 1], verts[:, 2]
        c = np.stack([np.cross(v1, v2), np.cross(v2, v0),
                      np.cross(v0, v1)], axis=1)
        tp = (c @ nprimes[owner, :, None])[..., 0]
        S = tp.sum(axis=1)
        solvable = np.abs(S) > 1e-12
        idx = np.flatnonzero(solvable)
        alpha = tp[idx] / S[idx, None]
        ray_ok = np.vecdot(verts[idx, 0], c[idx, 0]) / S[idx] > 0.0
        # closed-element solutions; edge/vertex hits are duplicated by
        # the neighbouring elements and deduplicated below
        inside = np.flatnonzero(ray_ok & (alpha.min(axis=1) > -BARY_TOL))
        tri_pts = fld.mesh.nodes[fld.mesh.triangles[cand[idx]]]
        pts = np.einsum("ki,kij->kj", alpha, tri_pts)[inside]
        # Copies of one edge or vertex point agree to rounding and
        # distinct hits lie about a mesh width apart, so keeping each
        # solution with no earlier one of its target within 1e-9 keeps
        # the first copy.
        hits = idx[inside]
        first = ~_near_earlier(owner[hits], pts, 1e-9, nprimes.shape[0])
        hits = hits[first]
        return PreimageCensus(
            owner=owner[hits], points=pts[first],
            signs=np.sign(S[hits]).astype(int),
            degenerate=codes[~solvable], targets=nprimes.shape[0],
        )

    def kernel_integral(self, nprime):
        """Discrete integral of dX / |nbar(X) - n'| over the disc."""
        self.kernel_sums += 1
        d = np.linalg.norm(self.fld.nbar - nprime, axis=1)
        d = np.maximum(d, 1e-300)
        return float((self.fld.mesh.areas / d).sum())


def _filter_radius(solver, N):
    """The bound radius r = 2 area / N of `regular_filter`, and the
    radius of its one grid search: the census reach, widened to r
    while r < 2."""
    if N < 2:
        raise ValueError("N must be at least 2")
    r = 2.0 * solver.fld.mesh.area / N
    return r, max(solver.reach, r) if r < 2.0 else solver.reach


def regular_filter(solver, nprimes, N):
    """Regular-value test of target directions for `solver`'s field.

    Rejects targets near the poles, with a degenerate element (a
    singular system, where a hit would have zero Jacobian), with more
    than N hits, with hits too close to the boundary or to each other
    (within one mesh width), or with a discrete kernel integral of
    dX / |nbar - n'| above N.  Returns (flags, census) for the rows of
    `nprimes` (T, 3): flags (T, 6), one column per FILTER_REASONS
    entry, says which reasons reject each target, so a row of False is
    an accepted target; census is the batch's census.

    One grid search (`PreimageSolver.grid`) serves the census and the
    integral test.  With r = 2 area / N, the elements with |nbar - n'|
    > r add less than their area over r to the integral, so at most
    N / 2 in all.  The exact sum over the elements within r plus (area
    - their area) / r bounds the integral from above, for every target
    at once; when the bound, widened by 1e-12 against rounding, is at
    most N, the answer is no.  Only a target whose bound exceeds N
    pays for the exact sum over every element, and so does every
    target when r >= 2, where every element is within r and the bound
    is the exact sum.  Either way the decision is the exact one.  The
    search radius (`_filter_radius`) covers both the census candidates
    and, while r < 2, the elements within r.
    """
    r, radius = _filter_radius(solver, N)
    nprimes = np.asarray(nprimes, dtype=float)
    nprimes = nprimes / _norms(nprimes)[:, None]
    owner, elems, d = near = solver.grid(radius).pairs(nprimes, radius)
    census = solver.census(nprimes, near)
    mesh = solver.fld.mesh
    count = nprimes.shape[0]
    undecided = np.arange(count)
    if r < 2.0:
        close = d <= r
        at, a = owner[close], mesh.areas[elems[close]]
        bound = np.bincount(at, a / np.maximum(d[close], 1e-300), count) \
            + (mesh.area - np.bincount(at, a, count)) / r
        undecided = np.flatnonzero(bound * (1.0 + 1e-12) > N)
    integral = np.zeros(count, dtype=bool)
    integral[undecided] = [solver.kernel_integral(nprimes[q]) > N
                           for q in undecided]
    k = np.array([0.0, 0.0, 1.0])

    def any_hit(mask):
        return np.bincount(census.owner[mask],
                           minlength=census.targets) > 0

    pts = census.points
    flags = np.column_stack([
        np.minimum(_norms(nprimes - k), _norms(nprimes + k)) < 1.0 / N,
        np.bincount(census.degenerate // mesh.triangle_count,
                    minlength=census.targets) > 0,
        census.cards > N,
        any_hit(np.linalg.norm(pts, axis=1) > 1.0 - mesh.h_max),
        any_hit(_near_earlier(census.owner, pts, mesh.h_max,
                              census.targets)),
        integral,
    ])
    return flags, census


@dataclass(frozen=True, eq=False)
class CoareaReport:
    lhs: float
    rhs: float
    excluded_measure: float
    cards: np.ndarray = field(repr=False)
    accepted: np.ndarray = field(repr=False)
    signed_sums: np.ndarray = field(repr=False)
    # How many quadrature nodes the filter rejected for each reason of
    # FILTER_REASONS (a node may have several).
    rejections: dict = field(repr=False)
    # Targets whose kernel-integral bound left the decision to the exact
    # sum over every element (see regular_filter).
    exact_kernel_sums: int


def coarea_check(fld, quad, N):
    """Both sides of the coarea identity over the whole sphere.

    lhs integrates |Phi(n_h)| for n_h = P/|P|, the map whose preimages
    the census counts.  n_h maps each element onto the geodesic
    triangle spanned by its vertex values, and Phi(n_h) = P.(d1 x d2) /
    |P|^3 has one sign there; so the element's integral is that
    triangle's solid angle, in closed form (`spherical_areas`).  rhs
    sums, over the accepted nodes of the sphere quadrature `quad`, the
    weight times the number of hits.  Nodes failing the regular filter
    contribute to the reported excluded measure instead, and their
    reasons to `rejections`.  The filter takes the nodes in blocks of
    consecutive nodes whose grid search examines at most _PAIR_BLOCK
    candidates, or of one node; the block sizes come from the grid's
    count of candidates, which computes no distance.
    """
    lhs = float(spherical_areas(fld.values[fld.mesh.triangles]).sum())
    count = quad.nodes.shape[0]
    flags = np.zeros((count, len(FILTER_REASONS)), dtype=bool)
    cards = np.zeros(count, dtype=int)
    signed = np.zeros(count, dtype=int)
    solver = PreimageSolver(fld)
    radius = _filter_radius(solver, N)[1]
    # candidates of the nodes up to and including each node
    examined = np.cumsum(solver.grid(radius).counts(quad.nodes, radius))
    lo = 0
    while lo < count:
        done = examined[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(examined, done + _PAIR_BLOCK,
                                     "right")), lo + 1)
        flags[lo:hi], census = regular_filter(solver, quad.nodes[lo:hi], N)
        cards[lo:hi] = census.cards
        signed[lo:hi] = np.bincount(census.owner, census.signs, hi - lo)
        lo = hi
    accepted = ~flags.any(axis=1)
    # sequential sums, in node order
    rhs = sum((quad.weights * cards)[accepted].tolist(), 0.0)
    excluded = sum(quad.weights[~accepted].tolist(), 0.0)
    return CoareaReport(
        lhs=lhs,
        rhs=rhs,
        excluded_measure=excluded,
        cards=cards,
        accepted=accepted,
        signed_sums=signed,
        rejections=dict(zip(FILTER_REASONS, flags.sum(axis=0).tolist())),
        exact_kernel_sums=solver.kernel_sums,
    )


@dataclass(frozen=True, eq=False)
class HolographyReport:
    raw_term: float
    f_term: float
    omega_term: float
    residual: float
    mu: float
    omega_l2: float
    boundary_elements: int


def _straddles(region, images):
    """Elements whose image may meet the region boundary.

    `images` (3, 3, k) are the unit images of the vertices, one row
    (k,) per component and vertex; n_h maps an element onto the
    geodesic triangle they span, which lies in the cap of angular
    radius r about their normalized mean m.  The image stays on one
    side when |boundary_distance(m)| > r.
    """
    m = images[:, 0] + images[:, 1] + images[:, 2]
    m /= np.sqrt(m[0] ** 2 + m[1] ** 2 + m[2] ** 2)
    cos = images[0] * m[0] + images[1] * m[1] + images[2] * m[2]
    cos_r = np.minimum(np.minimum(cos[0], cos[1]), cos[2])
    radius = np.arccos(np.clip(cos_r, -1.0, 1.0))
    return (np.abs(region.boundary_distance(m.T)) <= radius) \
        | (cos_r <= 0.0)


def _vertex_values(fld, region, zeta, gz, elems):
    """Vertex values on `elems` (m,) as channels (9, 3, m), one
    contiguous row (m,) per channel and vertex: P, P.c, P.(d1 x d2),
    the pairing P.(d1 zeta (d2 x c) - d2 zeta (d1 x c)), zeta, and for
    |Omega|^2 P.(d1 x c) and P.(d2 x c); the ray rule reads the first
    7.  `gz` (nt, 2) is grad zeta."""
    tri = fld.mesh.triangles[elems].T
    cx = np.cross(np.eye(3), region.center)  # d @ cx = d x c
    d1c, d2c = (fld.d1[elems] @ cx).T, (fld.d2[elems] @ cx).T
    pair = gz[elems, 0] * d2c - gz[elems, 1] * d1c
    # (3, 5, 1, m): per component, the rows of c, d1 x d2, the pairing
    # vector, d1 x c and d2 x c
    w = np.stack([np.broadcast_to(region.center[:, None], d1c.shape),
                  fld.cross[elems].T, pair, d1c, d2c], axis=1)[:, :, None]
    channels = np.empty((9, 3, elems.size))
    channels[:3] = fld.values.T[:, tri]
    P = channels[:3]
    channels[[3, 4, 5, 7, 8]] = P[0] * w[0] + P[1] * w[1] + P[2] * w[2]
    channels[6] = zeta[tri]
    return channels


def _element_sums(fld, region, zeta, gz, elems):
    """Element-rule averages on `elems` (m,) of 1_K Phi zeta, the
    pairing, Phi zeta and |Omega|^2, and whether each element's image
    may meet the region boundary (`_straddles`).  `TRI7_BARY @
    _vertex_values(...)` gives every channel at the rule points as
    contiguous rows (9, 7, m)."""
    channels = _vertex_values(fld, region, zeta, gz, elems)
    s = TRI7_BARY @ channels
    r = np.sqrt(s[0] ** 2 + s[1] ** 2 + s[2] ** 2)
    inside, slope = region.potential_slope(s[3] / r)
    scale = slope / r ** 2
    pz = s[4] / r ** 3 * s[6]
    terms = [np.where(inside, pz, 0.0), scale * s[5], pz,
             scale ** 2 * (s[7] ** 2 + s[8] ** 2)]
    return ([TRI7_WEIGHTS @ v for v in terms],
            _straddles(region, channels[:3]))


def _smoothstep_rule(points):
    """Gauss-Legendre nodes and weights on [0, 1], mapped through the
    smoothstep 3 x^2 - 2 x^3.  Its derivative vanishes at both ends, so
    an integrand that behaves like the square root of the distance to
    an end becomes smooth."""
    x, w = np.polynomial.legendre.leggauss(points)
    x = 0.5 * (x + 1.0)
    return x * x * (3.0 - 2.0 * x), 3.0 * x * (1.0 - x) * w


def _rule_points(cuts, x, w):
    """Rule nodes `x` and weights `w` (n,) on [0, 1] placed on each
    interval of positive width into which the row of `cuts` (k, p),
    each in [0, 1], cuts [0, 1]: the row of each interval (K,), and its
    points and weights (K, n)."""
    breaks = np.sort(np.pad(cuts, ((0, 0), (1, 1)), constant_values=(0, 1)),
                     axis=1)
    lo, hi = breaks[:, :-1], breaks[:, 1:]
    row, col = np.nonzero(hi > lo)
    width = (hi - lo)[row, col, None]
    return row, lo[row, col, None] + width * x, width * w


def _cone_roots(c, a, p, q):
    """(k, 2) parameters x in (0, 1) where the lines P = p + x q, rows
    of (k, 3), meet the cone (P.c)^2 = a^2 |P|^2, and 1 in place of
    each other root.

    On a line (P.c)^2 - a^2 |P|^2 is C + 2 B x + A x^2, and B^2 - A C
    = a^2 ((1 - a^2) |n|^2 - (c.n)^2) with n = p x q: formed so, it
    keeps its digits where the two nappes P.c = +-a|P| meet (a -> 0).
    With s = -(B + sign(B) sqrt(B^2 - A C)) the roots are s / A and
    C / s.
    """
    pc, qc, n = p @ c, q @ c, np.cross(p, q)
    a2 = a * a
    C = pc * pc - a2 * np.vecdot(p, p)
    B = pc * qc - a2 * np.vecdot(p, q)
    A = qc * qc - a2 * np.vecdot(q, q)
    disc = a2 * ((1.0 - a2) * np.vecdot(n, n) - (n @ c) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -(B + np.copysign(np.sqrt(disc), B))
        roots = np.stack([s / A, C / s], axis=-1)
    return np.where((roots > 0.0) & (roots < 1.0), roots, 1.0)


def _ray_roots(c, a, v0, ray):
    """(R, 2) parameters u in (0, 1) where the rays P = v0 + u ray,
    rows of (R, 3), meet the cap boundary P.c = a|P|, and 1 in place of
    each other root.  A root on the mirror nappe, P.c = -a|P|, has P.c
    of the sign of -a; it is dropped unless |P.c| <= 1e-12 |P|, where
    the nappes cannot be told apart and a split does no harm."""
    roots = _cone_roots(c, a, v0, ray)
    P = v0[:, None] + roots[..., None] * ray[:, None]
    mirror = np.copysign(1.0, a) * (P @ c) < -1e-12 * np.sqrt(
        np.vecdot(P, P))
    return np.where(mirror, 1.0, roots)


def _boundary_sums(fld, region, zeta, gz, elems, rule):
    """Integrals of 1_K Phi zeta and the pairing over each of the
    elements `elems` (m, 2), whose image may meet the cap boundary,
    by the ray rule of `holography_identity` with the nodes and weights
    `rule` of `_smoothstep_rule`."""
    x, w = rule
    c, a = region.center, np.cos(region.rho)
    m = elems.size
    values = _vertex_values(fld, region, zeta, gz, elems)[:7].T
    # sweep from the vertex farthest from the boundary (the vertex
    # values are unit vectors), the others in cyclic order
    far = np.argmax(np.abs(values[..., 3] - a), axis=1)
    values = values[np.arange(m)[:, None], (far[:, None] + np.arange(3)) % 3]
    v0 = values[:, 0]
    d, e = values[:, 1] - v0, values[:, 2] - values[:, 1]
    # theta breaks where the boundary crosses the opposite edge v1 +
    # theta e, and at the tangent rays, whose discriminant vanishes
    # where the normal n = v0 x (d + theta e) of the ray's plane has
    # (n.c)^2 = sin^2 rho |n|^2.  A break from the mirror nappe is
    # harmless.
    normals = np.cross(v0[:, :3], d[:, :3]), np.cross(v0[:, :3], e[:, :3])
    elem, theta, w_theta = _rule_points(np.hstack([
        _cone_roots(c, a, values[:, 1, :3], e[:, :3]),
        _cone_roots(c, np.sin(region.rho), *normals)]), x, w)
    elem, theta, w_theta = (np.repeat(elem, x.size), theta.ravel(),
                            w_theta.ravel())
    ray = d[elem] + theta[:, None] * e[elem]
    seg, u, w_u = _rule_points(_ray_roots(c, a, v0[elem, :3], ray[:, :3]),
                               x, w)
    s = v0[elem[seg]].T[:, :, None] + u * ray[seg].T[:, :, None]
    r = np.sqrt(s[0] ** 2 + s[1] ** 2 + s[2] ** 2)
    t = s[3] / r
    # a segment lies on one side; read which at its middle node
    inside = t[:, x.size // 2, None] >= a
    slope = region.branch_slope(t, inside)
    # the collapsed map (theta, u) -> X has Jacobian 2 |T| u
    weight = w_theta[seg, None] * w_u * u
    terms = (np.where(inside, s[4] / r ** 3 * s[-1], 0.0),
             slope / r ** 2 * s[5])
    sums = np.column_stack([
        np.bincount(elem[seg], (weight * v).sum(axis=1), m) for v in terms])
    return 2.0 * fld.mesh.areas[elems, None] * sums


def holography_identity(fld, region, zeta):
    """Terms and residual of the region-holography identity.

    The terms are evaluated for the Lipschitz map n_h = P/|P|, where P
    is the P1 interpolant of the nodal values (the map whose preimages
    `PreimageSolver.census` solves for).  For n_h and the P1 test
    function zeta, vanishing on the boundary,

        int Phi zeta = (4 pi / mu) int_{n_h in K} Phi zeta
                       + int (Omega_2 d1 zeta - Omega_1 d2 zeta)

    holds exactly, with Omega_i = grad Q(n_h).(n_h x d_i n_h) and Q
    the logarithmic potential of the region.  raw = int Phi zeta;
    f_term and omega_term are the two right-hand terms.  Raw and
    |Omega|^2 take every element whole, and the other two terms every
    element whose image stays on one side of the boundary, by the
    7-point degree-5 element rule: each element's rule average times
    its area.  Elements go _CHUNK at a time.

    Each integrand comes from scalars affine on each element, known at
    the rule points from their vertex values (`_vertex_values`).  These
    are laid out by component: one contiguous row of _CHUNK elements
    per channel and vertex, so every product, the rule points
    (`_element_sums`) and the straddle test run on whole rows.  With d_i
    the derivatives of P, Phi(n_h) = P.(d1 x d2) / |P|^3; t = P.c / |P|
    gives 1_K(n_h) and q'(t), with grad Q = q'(t) (c - t n_h).  As
    n_h x d_i n_h = n_h x d_i / |P| and (c - t n_h) x n_h = c x n_h,
    Omega_i = q'(t) / |P|^2 P.(d_i x c): the pairing is P.(d1 zeta
    (d2 x c) - d2 zeta (d1 x c)), d_i zeta constant per element, times
    q'(t) / |P|^2.

    An element whose image may meet the boundary (`_straddles`) takes
    the ray rule (`_boundary_sums`), _CHUNK >> 6 at a time.  It sweeps
    the element from the vertex V farthest from the boundary, along
    the rays b(u) = e_V + u (W(theta) - e_V) to the points W(theta) of
    the opposite edge: a collapsed map with Jacobian 2 |T| u (Duffy,
    SIAM J. Numer. Anal. 19(6), 1982).  P is affine, so on each ray the
    boundary (P.c)^2 = a^2 |P|^2, a = cos rho, is a quadratic in u;
    its roots on the mirror nappe P.c = -a|P| are dropped.  theta
    breaks where the boundary crosses the opposite edge and at the
    tangent rays, the zeros of the ray discriminant: both are roots of
    quadratics in theta.  On each theta interval, and on each of the
    at most 3 u segments between a ray's roots, the rule is
    RAY_RULE_POINTS Gauss-Legendre points through the smoothstep
    (`_smoothstep_rule`), which also smooths the square-root
    behaviour of the roots at a tangent ray.  Each segment lies on one
    side, and 1_K Phi zeta and the pairing with that side's branch of
    q' are smooth there: Omega is continuous across the boundary, and
    only its derivative jumps.

    The region is a `sphere.Cap`, whose potential and boundary have
    closed forms; the full sphere is the cap of radius pi.  Then
    |residual| <= HOLOGRAPHY_TOL.  `boundary_elements` counts the
    elements that took the ray rule.
    """
    mu = region.measure
    mesh = fld.mesh
    zeta = np.asarray(zeta, dtype=float)
    gz = element_gradient(zeta, mesh)
    whole = kept = 0.0
    straddling = []
    for lo in range(0, mesh.triangle_count, _CHUNK):
        elems = np.arange(lo, min(lo + _CHUNK, mesh.triangle_count))
        terms, straddles = _element_sums(fld, region, zeta, gz, elems)
        a = mesh.areas[elems]
        whole += np.array([a @ v for v in terms[2:]])
        kept += np.array([a[~straddles] @ v[~straddles]
                          for v in terms[:2]])
        straddling.append(elems[straddles])
    straddling = np.concatenate(straddling)
    rule = _smoothstep_rule(RAY_RULE_POINTS)
    step = max(_CHUNK >> 6, 1)
    for lo in range(0, straddling.size, step):
        kept += _boundary_sums(fld, region, zeta, gz,
                               straddling[lo:lo + step], rule).sum(axis=0)
    raw, omega_sq = float(whole[0]), float(whole[1])
    f_term, omega_term = float(kept[0]), float(kept[1])
    f_term *= FOUR_PI / mu
    return HolographyReport(
        raw_term=raw,
        f_term=f_term,
        omega_term=omega_term,
        residual=raw - f_term - omega_term,
        mu=mu,
        omega_l2=float(np.sqrt(omega_sq)),
        boundary_elements=int(straddling.size),
    )
