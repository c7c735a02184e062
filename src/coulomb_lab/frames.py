"""Coulomb moving frames by continuation in the dilation parameter.

Starting from a constant frame on the constant field n(0), the field
n_lambda(X) = n(lambda X) is walked from lambda = 0 to 1.  Each step
projects the previous frame onto the new tangent planes, Gram-Schmidt
orthonormalizes, solves the gauge Neumann problem for the rotation
angle that kills the divergence of e1 de2, rotates, and recovers the
log-conformal factor f from the rotated connection form.  The frame
vectors are read as unit fields (`frame_fields`), so their element
derivatives and centroid directions come from `fields.SphereField`.
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import SphereField, area_functional, area_margin, sample_field
from .pde import (curl_load, element_load, flux_load, gradient_l2,
                  smooth_test_functions, solve_gauge_neumann, solve_pinned,
                  stiffness_matrix, weak_residual)

PROJECTOR_STEP_LIMIT = 0.125  # max allowed ||P_new - P_old|| per step
MIN_PROJECTION = 0.5
MIN_STEP = 1e-4
# Continuation steps from lambda = 0 to 1 before any halving.
CONTINUATION_STEPS = 16


class StepTooLargeError(Exception):
    """The field moved too far or the frame projection collapsed; the
    continuation step must shrink."""


class ContinuationError(Exception):
    """Adaptive step fell below the underflow limit."""


@dataclass(frozen=True, eq=False)
class Frame:
    e1: np.ndarray = field(repr=False)
    e2: np.ndarray = field(repr=False)
    field_n: SphereField
    f: np.ndarray = field(repr=False)
    boundary_std: float
    log: tuple


def project_frame(prev, n_new):
    """Project a frame (e1, e2) onto the tangent planes of a field and
    re-orthonormalize."""
    e1, e2 = (np.asarray(e, dtype=float) for e in prev)
    n_values = n_new.values
    dot1 = np.einsum("ni,ni->n", n_values, e1)
    dot2 = np.einsum("ni,ni->n", n_values, e2)
    b1 = e1 - dot1[:, None] * n_values
    b2 = e2 - dot2[:, None] * n_values
    len1 = np.linalg.norm(b1, axis=1)
    if len1.min() < MIN_PROJECTION:
        raise StepTooLargeError(
            f"frame projection length {len1.min():.3f} below threshold"
        )
    e1s = b1 / len1[:, None]
    b2 = b2 - np.einsum("ni,ni->n", b2, e1s)[:, None] * e1s
    len2 = np.linalg.norm(b2, axis=1)
    if len2.min() < MIN_PROJECTION:
        raise StepTooLargeError("secondary frame vector collapsed")
    e2s = b2 / len2[:, None]
    orient = np.einsum(
        "ni,ni->n", n_values, np.cross(e1s, e2s)
    )
    if orient.min() <= 0:
        raise StepTooLargeError("frame orientation flipped during projection")
    return e1s, e2s


def gauge_rotate(e1, e2, theta):
    """Nodewise rotation e1 + i e2 -> exp(i theta)(e1 + i e2)."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    return c * e1 - s * e2, s * e1 + c * e2


def frame_fields(e1, e2, mesh):
    """The frame vectors as unit fields, whose element derivatives and
    centroid directions are derived on first read."""
    return tuple(SphereField(mesh=mesh, values=e, closure=None)
                 for e in (e1, e2))


def frame_h(f1, f2):
    """Connection form h = (e1 . d1 e2, e1 . d2 e2) per element, with e1
    at the normalized centroid, from the `frame_fields` f1, f2."""
    return np.stack([np.einsum("ti,ti->t", f1.nbar, f2.d1),
                     np.einsum("ti,ti->t", f1.nbar, f2.d2)], axis=1)


@dataclass(frozen=True)
class RecoveredF:
    f: np.ndarray
    boundary_std: float


def recover_f(h, mesh):
    """Scalar potential with (d2 f, -d1 f) matching h in least squares.

    Solves the weak curl equation with natural boundary conditions
    (pinned node), then shifts so the boundary mean is zero; the
    standard deviation of the pre-shift boundary values measures how
    far h is from an exact rotated gradient.
    """
    f = solve_pinned(curl_load(h, mesh), mesh)
    bvals = f[mesh.boundary_mask]
    f = f - bvals.mean()
    return RecoveredF(f=f, boundary_std=float(bvals.std()))


def coulomb_weak_residual(h, mesh, tests):
    """max over test functions of |integral h . grad zeta| / |grad zeta|.

    Half of the test functions take non-vanishing boundary values, so
    this probes the natural boundary condition too.
    """
    return weak_residual(flux_load(h, mesh), tests, boundary_zero=False)


def _orth_defect(e1, e2, n_values):
    d = np.abs(np.einsum("ni,ni->n", e1, e1) - 1.0)
    d = np.maximum(d, np.abs(np.einsum("ni,ni->n", e2, e2) - 1.0))
    d = np.maximum(d, np.abs(np.einsum("ni,ni->n", e1, e2)))
    t = np.abs(np.einsum("ni,ni->n", e1, n_values))
    t = np.maximum(t, np.abs(np.einsum("ni,ni->n", e2, n_values)))
    return float(d.max()), float(t.max())


def coulomb_continuation(fld, seed):
    """Coulomb frame at lambda = 1 via adaptive dilation continuation."""
    if fld.closure is None:
        raise ValueError(
            "continuation needs a field with an analytic closure"
        )
    area_margin(fld)
    mesh = fld.mesh
    closure = fld.closure

    def at_lambda(lam):
        return sample_field(
            lambda x, y: closure(lam * x, lam * y), mesh
        )

    cur = at_lambda(0.0)
    n0 = cur.values[0]
    axis = np.array([1.0, 0.0, 0.0])
    if abs(n0 @ axis) > 0.9:
        axis = np.array([0.0, 1.0, 0.0])
    e1 = axis - (n0 @ axis) * n0
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n0, e1)
    e1 = np.tile(e1, (mesh.node_count, 1))
    e2 = np.tile(e2, (mesh.node_count, 1))

    tests = smooth_test_functions(mesh, seed)
    base = 1.0 / CONTINUATION_STEPS
    lam, step = 0.0, base
    log = []
    while lam < 1.0 - 1e-15:
        target = min(lam + step, 1.0)
        new = at_lambda(target)
        dots = np.einsum("ni,ni->n", cur.values, new.values)
        change = np.linalg.norm(
            np.cross(cur.values, new.values), axis=1
        ).max()
        try:
            if dots.min() <= 0 or change > PROJECTOR_STEP_LIMIT:
                raise StepTooLargeError("field moved too far in one step")
            e1s, e2s = project_frame((e1, e2), new)
        except StepTooLargeError:
            step *= 0.5
            if step < MIN_STEP:
                raise ContinuationError("continuation step underflow")
            continue
        h = frame_h(*frame_fields(e1s, e2s, mesh))
        theta = solve_gauge_neumann(h, mesh)
        e1, e2 = gauge_rotate(e1s, e2s, theta)
        cur, lam = new, target
        h = frame_h(*frame_fields(e1, e2, mesh))
        rec = recover_f(h, mesh)
        od, _ = _orth_defect(e1, e2, cur.values)
        log.append(
            {
                "lambda": lam,
                "step": step,
                "orth_defect": od,
                "coulomb_residual": coulomb_weak_residual(h, mesh, tests),
                "f_max": float(np.abs(rec.f).max()),
                "grad_f_norm": gradient_l2(rec.f, mesh),
            }
        )
        step = base
    for arr in (e1, e2, rec.f):
        arr.setflags(write=False)
    return Frame(e1=e1, e2=e2, field_n=cur, f=rec.f,
                 boundary_std=rec.boundary_std, log=tuple(log))


@dataclass(frozen=True)
class FrameReport:
    orth_defect: float
    tangency_defect: float
    coulomb_residual: float
    weak_poisson_residual: float  # weak form of -Laplace f = {e1, e2}
    f_max: float
    delta: float                  # 4 pi - area, the paper's margin


def frame_residuals(frame, seed):
    """Pointwise defects and PDE residuals of a frame."""
    mesh = frame.field_n.mesh
    e1, e2, f = frame.e1, frame.e2, frame.f
    od, td = _orth_defect(e1, e2, frame.field_n.values)
    f1, f2 = frame_fields(e1, e2, mesh)
    h = frame_h(f1, f2)
    rhs = (np.einsum("ti,ti->t", f1.d1, f2.d2)
           - np.einsum("ti,ti->t", f1.d2, f2.d1))
    tests = smooth_test_functions(mesh, seed)
    poisson_load = stiffness_matrix(mesh) @ f - element_load(rhs, mesh)
    return FrameReport(
        orth_defect=od,
        tangency_defect=td,
        coulomb_residual=coulomb_weak_residual(h, mesh, tests),
        weak_poisson_residual=weak_residual(poisson_load, tests,
                                            boundary_zero=True),
        f_max=float(np.abs(f).max()),
        delta=area_functional(frame.field_n).delta,
    )

