"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
`criterion N: PASS/FAIL` line directly to the original stdout so the
verdicts survive pytest's capture.
"""

import sys
import time

import numpy as np
import pytest

from coulomb_lab.cli import main, weak_identity_worst
from coulomb_lab.divform import admissible_region, gamma_many, omega
from coulomb_lab.fields import (dirichlet_energy, field_from_values, phi,
                                sample_field)
from coulomb_lab.frames import coulomb_continuation, frame_residuals
from coulomb_lab.mesh import build_disc_mesh, integrate
from coulomb_lab.pde import dual_norm, gradient_l2, solve_poisson_dirichlet
from coulomb_lab.preimage import (HOLOGRAPHY_TOL, coarea_check,
                                  holography_identity)
from coulomb_lab.sphere import cap, full_sphere
from coulomb_lab.surfaces import (closed_form_table, coincidence_radii,
                                  enneper_gauss_closure, enneper_psi_closure,
                                  lam, self_intersections, zeta_eps)

SEED = 1234
SWEEP = ((0.3, 6), (0.1, 7), (0.03, 8))


def _verdict(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status} - {detail}",
          file=sys.__stdout__, flush=True)
    return ok


@pytest.fixture(scope="module")
def enneper_level6():
    """Closed-form comparisons for eps in {1, 0.5, 0.25} at level 6."""
    mesh = build_disc_mesh(6)
    t0 = time.perf_counter()
    rows = {}
    for eps in (1.0, 0.5, 0.25):
        fld = sample_field(enneper_gauss_closure(eps), mesh)
        table = closed_form_table(eps)
        abs_phi = integrate(np.abs(phi(fld)), mesh)
        energy = dirichlet_energy(fld)
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        f = np.log(lam(eps, x, y)) - np.log(1.0 + eps ** 2)
        grad_f2 = gradient_l2(f, mesh) ** 2
        rows[eps] = (abs_phi, energy, grad_f2, table)
    elapsed = time.perf_counter() - t0
    return rows, elapsed


@pytest.fixture(scope="module")
def sweep():
    """Holography identity and dual norms for the small-eps sweep."""
    region = cap([0.0, 0.0, -1.0], np.pi / 4.0, level=4)
    out = {}
    for eps, level in SWEEP:
        mesh = build_disc_mesh(level)
        fld = sample_field(enneper_gauss_closure(eps), mesh)
        rep = holography_identity(fld, region, zeta_eps(eps, mesh))
        out[eps] = (rep, dual_norm(phi(fld), mesh))
    return out


def test_criterion_01_closed_forms(enneper_level6):
    rows, elapsed = enneper_level6
    worst = 0.0
    for eps, (abs_phi, energy, grad_f2, table) in rows.items():
        worst = max(
            worst,
            abs(abs_phi - table.int_abs_phi) / table.int_abs_phi,
            abs(energy - table.int_grad_n2) / table.int_grad_n2,
            abs(grad_f2 - table.grad_f2) / table.grad_f2,
        )
    ok = worst <= 0.01 and elapsed < 120.0
    _verdict(1, ok, f"closed-form rel err {worst:.2e} (tol 1e-2), "
                    f"runtime {elapsed:.1f}s (limit 120s)")
    assert worst <= 0.01
    assert elapsed < 120.0


def test_criterion_02_minimal_surface_equality(enneper_level6):
    rows, _ = enneper_level6
    worst = max(
        abs(2.0 * abs_phi - energy) / energy
        for abs_phi, energy, _, _ in rows.values()
    )
    ok = worst <= 0.01
    _verdict(2, ok, f"|2 int|Phi| - energy| rel err {worst:.2e} (tol 1e-2)")
    assert ok


def test_criterion_03_decomposition_pipeline():
    base = sample_field(enneper_gauss_closure(0.5), build_disc_mesh(6))
    report = admissible_region(base, level=4)
    grad_n = np.sqrt(dirichlet_energy(base))
    worst, form = weak_identity_worst(base, report.region, SEED)
    coarse, _ = weak_identity_worst(
        sample_field(enneper_gauss_closure(0.5), build_disc_mesh(5)),
        report.region, SEED,
    )
    cert = (8.0 * np.pi / report.measure) * grad_n
    omega_ok = max(form.l2_omega1, form.l2_omega2) <= cert
    ratio = coarse / worst
    ok = (report.measure > 0 and omega_ok and worst <= 0.05
          and ratio >= 1.5)
    _verdict(3, ok, f"meas(K)={report.measure:.3f}, weak residual "
                    f"{worst:.2e} (tol 5e-2), refinement ratio "
                    f"{ratio:.2f} (min 1.5)")
    assert report.measure > 0
    assert omega_ok
    assert worst <= 0.05
    assert ratio >= 1.5


def test_criterion_04_kernel_bounds():
    rng = np.random.default_rng(SEED)

    def unit(k):
        v = rng.standard_normal((k, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    n, npr = unit(100000), unit(100000)
    xi = rng.standard_normal((100000, 3))
    keep = (npr[:, 0] ** 2 + npr[:, 1] ** 2 > 1e-8) & (
        np.linalg.norm(n - npr, axis=1) > 1e-6
    )
    g = gamma_many(n[keep], npr[keep], xi[keep])
    bound = 2.0 * np.linalg.norm(xi[keep], axis=1) / np.linalg.norm(
        n[keep] - npr[keep], axis=1
    )
    violations = int(np.sum(np.abs(g) > bound + 1e-12))
    fld = sample_field(enneper_gauss_closure(0.5), build_disc_mesh(5))
    report = admissible_region(fld)
    targets = report.region.nodes[
        rng.integers(0, report.region.nodes.shape[0], size=5)
    ]
    for t in targets:
        w1, w2, _ = omega(fld, t)
        dist = np.linalg.norm(fld.nbar - t, axis=1)
        violations += int(np.sum(
            np.abs(w1) > 2.0 * np.linalg.norm(fld.d1, axis=1) / dist + 1e-12
        ))
        violations += int(np.sum(
            np.abs(w2) > 2.0 * np.linalg.norm(fld.d2, axis=1) / dist + 1e-12
        ))
    ok = violations == 0
    _verdict(4, ok, f"{violations} bound violations over 1e5 samples "
                    f"plus all field elements")
    assert ok


def test_criterion_05_symmetry():
    mesh = build_disc_mesh(5)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for eps in (0.5, 0.25):
        fld = sample_field(enneper_gauss_closure(eps), mesh)
        base = phi(fld)
        for _ in range(5):
            q, _r = np.linalg.qr(rng.standard_normal((3, 3)))
            sign = float(np.linalg.det(q))
            moved = field_from_values(fld.values @ q.T, mesh)
            worst = max(worst,
                        float(np.abs(phi(moved) - sign * base).max()))
    ok = worst <= 1e-12
    _verdict(5, ok, f"orthogonal-transform defect {worst:.2e} (tol 1e-12)")
    assert ok


def test_criterion_06_coulomb_frame():
    residuals = {}
    frame = None
    fld = None
    for level in (4, 5, 6):
        fld = sample_field(enneper_gauss_closure(0.5),
                           build_disc_mesh(level))
        frame = coulomb_continuation(fld, seed=SEED)
        residuals[level] = frame_residuals(frame, seed=SEED)
    final = residuals[6]
    poisson = solve_poisson_dirichlet(phi(fld), fld.mesh)
    f_gap = float(np.abs(frame.f - poisson.f).max())
    table = closed_form_table(0.5)
    halving = (residuals[4].coulomb_residual / residuals[5].coulomb_residual,
               residuals[5].coulomb_residual / residuals[6].coulomb_residual)
    f_max_err = abs(final.f_max - abs(table.f_at_origin)) / abs(
        table.f_at_origin
    )
    ok = (final.orth_defect <= 1e-10 and final.tangency_defect <= 1e-10
          and min(halving) >= 2.0 and f_gap <= 0.02 * poisson.max_abs
          and f_max_err <= 0.02)
    _verdict(6, ok, f"defects {max(final.orth_defect, final.tangency_defect):.1e} "
                    f"(tol 1e-10), halving {halving[0]:.1f}/{halving[1]:.1f}, "
                    f"f gap {f_gap:.2e}, max|f| err {f_max_err:.2e}")
    assert final.orth_defect <= 1e-10
    assert final.tangency_defect <= 1e-10
    assert min(halving) >= 2.0
    assert f_gap <= 0.02 * poisson.max_abs
    assert f_max_err <= 0.02


def test_criterion_07_coarea():
    eps = 0.5
    fld = sample_field(enneper_gauss_closure(eps), build_disc_mesh(6))
    region = full_sphere(4)
    g = np.ones(fld.mesh.triangle_count)
    rep = coarea_check(fld, g, region, N=64)
    gap = abs(rep.gap) / rep.lhs
    excl = rep.excluded_measure / region.measure
    cap_height = (1.0 - eps ** 2) / (1.0 + eps ** 2)
    margin = region.quadrature.face_diameter
    inner = rep.accepted & (region.nodes[:, 2] < cap_height - margin)
    outer = rep.accepted & (region.nodes[:, 2] > cap_height + margin)
    card1 = float(np.mean(rep.cards[inner] == 1))
    card0 = int(np.sum(rep.cards[outer] != 0))
    ok = gap <= 0.02 and excl <= 0.05 and card1 >= 0.95 and card0 == 0
    _verdict(7, ok, f"gap {gap:.2e} (tol 2e-2), excluded {excl:.2e} "
                    f"(tol 5e-2), card1 {card1:.3f} (min 0.95), "
                    f"card0 misses {card0}")
    assert gap <= 0.02
    assert excl <= 0.05
    assert card1 >= 0.95
    assert card0 == 0


def test_criterion_08_holography_sharpness(sweep):
    raws, resids = [], []
    raw_ok = True
    for eps, _level in SWEEP:
        rep, _ = sweep[eps]
        ref = closed_form_table(eps).delta_norm
        raws.append(abs(rep.raw_term))
        resids.append(abs(rep.residual))
        raw_ok &= abs(abs(rep.raw_term) - ref) / ref <= 0.05
    increasing = all(b > a for a, b in zip(raws, raws[1:]))
    bounded = max(resids) <= 0.5
    # non-increasing within the accuracy holography_identity promises
    mono = all(b <= a + HOLOGRAPHY_TOL for a, b in zip(resids, resids[1:]))
    ok = raw_ok and increasing and bounded and mono
    _verdict(8, ok, f"raw within 5% and increasing: "
                    f"{raw_ok and increasing}, residuals "
                    f"{'/'.join(f'{r:.1e}' for r in resids)} "
                    f"(bound 0.5, non-increasing within "
                    f"{HOLOGRAPHY_TOL:g} required)")
    assert raw_ok
    assert increasing
    assert bounded
    assert mono


def test_criterion_09_dual_norm(sweep):
    duals, errs = [], []
    for eps, _level in SWEEP:
        _, dn = sweep[eps]
        ref = closed_form_table(eps).delta_norm
        duals.append(dn)
        errs.append(abs(dn - ref) / ref)
    increasing = all(b > a for a, b in zip(duals, duals[1:]))
    ok = increasing and max(errs) <= 0.05
    _verdict(9, ok, f"dual norms {'/'.join(f'{d:.3f}' for d in duals)} "
                    f"strictly increasing, rel err max {max(errs):.2e} "
                    f"(tol 5e-2)")
    assert increasing
    assert max(errs) <= 0.05


def test_criterion_10_self_intersection():
    eps = 0.4
    result = self_intersections(eps)
    psi = enneper_psi_closure(eps)
    worst = max(
        float(np.linalg.norm(psi(*p.x_hat) - psi(*p.x_tilde)))
        for p in result.pairs
    )
    radii = coincidence_radii(eps)
    min_r2 = float((radii ** 2).min())
    floor = 3.0 * eps ** 2 - 1e-6
    ok = (len(result.pairs) == 4 and worst <= 1e-10 and min_r2 >= floor)
    _verdict(10, ok, f"{len(result.pairs)} pairs, worst gap {worst:.1e} "
                     f"(tol 1e-10), sweep min r^2 {min_r2:.3f} "
                     f"(floor {floor:.3f})")
    assert len(result.pairs) == 4
    assert worst <= 1e-10
    assert min_r2 >= floor


def test_criterion_11_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["convergence", "--levels", "3,4", "--eps", "0.5",
                     "--out", str(out)])
        assert code == 0
        outs.append(out)
    same = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("convergence.csv", "summary.json")
    )
    _verdict(11, same, "repeated runs byte-identical")
    assert same
