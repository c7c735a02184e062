"""Experiment runner.

Each subcommand reproduces one of the package's headline checks and
writes its artifacts (CSV tables plus a summary.json listing every
check with its measured value, reference, tolerance, rule and pass
flag) into the output directory.  The rule alone decides the pass
flag, from the recorded fields: "<=" is value <= tol, ">=" value >=
reference, ">" value > reference, "==" value == reference, and "rel"
|value - reference| / |reference| <= tol.  So the summary is the
single definition of each acceptance criterion: the acceptance tests
run these subcommands and assert their checks by name.  Exit status:
0 when all checks pass, 1 when a check fails, 2 on usage errors.

Configuration comes from command-line flags, optionally seeded from a
key=value file given with --config (flags override the file).  A
subcommand takes the keys of its `_DEFAULTS` entry plus seed and out,
as flags and as config keys.  All randomness flows from a single seed
recorded in summary.json, and a repeated run with the same
configuration is byte-identical.
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .divform import (admissible_region, averaged_omega, gamma_many,
                      weak_identity_load)
from .fields import (FOUR_PI, dirichlet_energy, field_from_values, phi,
                     sample_field)
from .frames import coulomb_continuation, frame_residuals
from .mesh import build_disc_mesh, export_mesh, integrate
from .pde import (gradient_l2, smooth_test_functions,
                  solve_poisson_dirichlet, weak_residual)
from .preimage import HOLOGRAPHY_TOL, coarea_check, holography_identity
from .sphere import cap, sphere_quadrature
from .surfaces import (closed_form_table, coincidence_radii,
                       enneper_gauss_closure, enneper_psi_closure, f_eps,
                       self_intersections, zeta_eps)

# Rows per format operation of _write_csv (bounds the working memory).
_CSV_CHUNK = 1 << 8
# Rows per block of decompose's kernel-bound samples.
_SAMPLE_BLOCK = 1 << 13


# How each rule decides a check, from the fields summary.json records.
RULES = {
    "<=": lambda c: c.value <= c.tol,
    ">=": lambda c: c.value >= c.reference,
    ">": lambda c: c.value > c.reference,
    "==": lambda c: c.value == c.reference,
    "rel": lambda c: abs(c.value - c.reference) / abs(c.reference) <= c.tol,
}


@dataclass(frozen=True)
class Check:
    """One acceptance check, decided by its rule (a key of RULES)."""

    name: str
    value: float
    reference: float
    tol: float
    rule: str

    @property
    def ok(self):
        return bool(RULES[self.rule](self))

    def as_dict(self):
        return {**asdict(self), "pass": self.ok}


def _number_list(convert, text):
    # argparse prints an ArgumentTypeError's message as it stands
    try:
        values = [convert(t) for t in text.split(",") if t]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of {convert.__name__}s: {text!r}")
    return values


def _parse_cap(text):
    """Cap string `center,rho` with center one of k, -k, or `x:y:z`."""
    head, *rest = text.split(",")
    coords = {"k": "0:0:1", "-k": "0:0:-1"}.get(head, head).split(":")
    if len(rest) != 1 or len(coords) != 3:
        raise ValueError(f"bad cap {text!r}: expected center,rho with "
                         "center k, -k or x:y:z")
    center = np.array([float(t) for t in coords])
    norm = np.linalg.norm(center)
    if not (np.isfinite(norm) and norm > 0.0):
        raise ValueError(f"cap centre {head!r} is not a finite "
                         "nonzero vector")
    return center / norm, float(rest[0])


def _load_config_file(path):
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _write_csv(path, header, rows):
    """One CSV line per row; numbers as %.17g, so the file round-trips.

    Each _CSV_CHUNK rows are one format operation, with the line
    template of their first row (%s where it holds a string).
    """
    rows = iter(rows)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        while chunk := list(islice(rows, _CSV_CHUNK)):
            line = ",".join("%s" if isinstance(v, str) else "%.17g"
                            for v in chunk[0]) + "\n"
            fh.write(line * len(chunk) % tuple(chain.from_iterable(chunk)))


def _write_summary(outdir, command, config, checks, info):
    payload = {
        "command": command,
        "config": config,
        "checks": [c.as_dict() for c in checks],
        "pass": all(c.ok for c in checks),
    }
    if info:
        payload["info"] = info
    text = json.dumps(payload, indent=2, sort_keys=True)
    (outdir / "summary.json").write_text(text + "\n")


def _report(checks):
    for c in checks:
        status = "pass" if c.ok else "FAIL"
        bound = c.tol if c.rule in ("<=", "rel") else c.reference
        of = f" of {c.reference:.6g}" if c.rule == "rel" else ""
        print(f"[{status}] {c.name}: {c.value:.6g} ({c.rule} {bound:.6g}{of})")
    return 0 if all(c.ok for c in checks) else 1


def _one_eps(args):
    """The eps of a command that reads one; several are a usage error."""
    if len(args.eps) > 1:
        raise ValueError(f"this command reads one eps, not {len(args.eps)}")
    return args.eps[0]


def _enneper_field(eps, level):
    return sample_field(enneper_gauss_closure(eps), build_disc_mesh(level))


def _closed_form_errors(fld, eps, table):
    """Measured int|Phi|, Dirichlet energy and |grad f|^2, and their
    relative errors against the closed forms in `table`."""
    mesh = fld.mesh
    abs_phi = integrate(np.abs(phi(fld)), mesh)
    energy = dirichlet_energy(fld)
    grad_f2 = gradient_l2(f_eps(eps, *mesh.nodes.T), mesh) ** 2
    errs = [
        abs(abs_phi - table.int_abs_phi) / table.int_abs_phi,
        abs(energy - table.int_grad_n2) / table.int_grad_n2,
        abs(grad_f2 - table.grad_f2) / table.grad_f2,
    ]
    return abs_phi, energy, grad_f2, errs


def _weak_identity_worst(fld, region, seed):
    """Max normalized weak-identity residual over random bumps.

    Returns (worst, form) with form the region-averaged potentials.
    """
    form = averaged_omega(fld, region)
    tests = smooth_test_functions(fld.mesh, seed)
    return weak_residual(weak_identity_load(fld, form), tests,
                         boundary_zero=True), form


# ----------------------------------------------------------------- commands
# Each command writes its artifacts into outdir and returns
# (checks, info); `main` writes summary.json and reports the checks.


def cmd_mesh_info(args, outdir):
    mesh = build_disc_mesh(args.level)
    with open(outdir / "mesh.txt", "w") as fh:
        export_mesh(mesh, fh)
    checks = [
        Check("disc_area", mesh.area, np.pi, 0.01, "rel"),
        Check("min_element_area", float(mesh.areas.min()), 0.0, None, ">"),
    ]
    info = {
        "level": args.level,
        "nodes": mesh.node_count,
        "triangles": mesh.triangle_count,
        "h_max": mesh.h_max,
    }
    return checks, info


def cmd_enneper_table(args, outdir):
    mesh = build_disc_mesh(args.level)
    checks = []
    rows = []
    for eps in args.eps:
        fld = sample_field(enneper_gauss_closure(eps), mesh)
        table = closed_form_table(eps)
        abs_phi, energy, grad_f2, errs = _closed_form_errors(fld, eps, table)
        rows.append((eps, abs_phi, table.int_abs_phi, energy,
                     table.int_grad_n2, grad_f2, table.grad_f2, max(errs)))
        minimal = abs(2.0 * abs_phi - energy) / energy
        checks += [
            Check(f"closed_forms_eps_{eps:g}", max(errs), 0.0, 0.01, "<="),
            Check(f"minimal_surface_eps_{eps:g}", minimal, 0.0, 0.01, "<="),
        ]
    _write_csv(outdir / "enneper_table.csv",
               "eps,int_abs_phi,ref_phi,int_grad_n2,ref_grad_n2,"
               "grad_f2,ref_grad_f2,rel_err_max", rows)
    return checks, None


def cmd_decompose(args, outdir):
    eps = _one_eps(args)
    rng = np.random.default_rng(args.seed)
    fld = _enneper_field(eps, args.level)
    report = admissible_region(fld, level=args.sphere_level)
    measure = report.region.measure
    checks = [Check("region_measure", measure, 0.0, None, ">")]
    worst, form = _weak_identity_worst(fld, report.region, args.seed)
    coarse, _ = _weak_identity_worst(
        _enneper_field(eps, args.level - 1), report.region, args.seed
    )
    grad_n = np.sqrt(dirichlet_energy(fld))
    cert = (8.0 * np.pi / measure) * grad_n
    checks += [
        Check("omega_l2_certificate", max(form.l2_omega1, form.l2_omega2),
              None, cert, "<="),
        Check("weak_residual", worst, 0.0, 0.05, "<="),
        Check("residual_refinement_ratio", coarse / worst, 1.5, None, ">="),
        Check("kernel_bound_slack", float(form.bound_slack.min()), 0.0,
              None, ">="),
    ]
    # kernel bound on 1e5 random samples
    def unit(k):
        v = rng.standard_normal((k, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    n = unit(100000)
    np_ = unit(100000)
    xi = rng.standard_normal((100000, 3))
    violations = 0
    # every step is row-wise, so the blocks count what one pass would
    for b in range(0, 100000, _SAMPLE_BLOCK):
        nb, pb, xb = (a[b:b + _SAMPLE_BLOCK] for a in (n, np_, xi))
        sep = np.linalg.norm(nb - pb, axis=1)
        ok = sep > 1e-6
        (g,) = gamma_many(nb[ok], pb[ok], xb[ok])
        bound = 2.0 * np.linalg.norm(xb[ok], axis=1) / sep[ok]
        violations += int(np.sum(np.abs(g) > bound + 1e-12))
    checks.append(Check("gamma_bound_violations", violations, 0, None, "=="))
    # elementwise omega bound at random admissible targets
    targets = report.region.nodes[
        rng.integers(0, report.region.nodes.shape[0], size=5)
    ]
    bad = 0
    g1 = 2.0 * np.linalg.norm(fld.d1, axis=1)
    g2 = 2.0 * np.linalg.norm(fld.d2, axis=1)
    for t in targets:
        w1, w2 = gamma_many(fld.nbar, t, fld.d1, fld.d2)
        dist = np.linalg.norm(fld.nbar - t, axis=1)
        b1, b2 = g1 / dist, g2 / dist
        bad += int(np.sum(np.abs(w1) > b1 + 1e-12))
        bad += int(np.sum(np.abs(w2) > b2 + 1e-12))
    checks.append(Check("omega_bound_violations", bad, 0, None, "=="))
    _write_csv(outdir / "divform.csv",
               "element,phi,omega1,omega2,bound_slack",
               zip(range(fld.mesh.triangle_count), phi(fld), form.omega1,
                   form.omega2, form.bound_slack))
    return checks, {"sigma": report.sigma, "delta": report.delta}


def _cg_report(sol):
    """What a Dirichlet solve's stopping rule left, for summary.json."""
    return {"iterations": sol.iterations, "residual": sol.residual}


def cmd_frame(args, outdir):
    eps = _one_eps(args)
    # each coarser frame is dropped, with its mesh, once its Coulomb
    # residual (the last gauge residual) is read
    r_lo, r_mid = (coulomb_continuation(_enneper_field(eps, level),
                                        seed=args.seed).gauge_residuals[-1]
                   for level in (args.level - 2, args.level - 1))
    fld = _enneper_field(eps, args.level)
    frame = coulomb_continuation(fld, seed=args.seed)
    final = frame_residuals(frame)
    keys = ("lambda", "step", "orth_defect", "coulomb_residual", "f_max",
            "grad_f_norm")
    _write_csv(outdir / "frame_log.csv", ",".join(keys),
               ([row[k] for k in keys] for row in frame.log))
    table = closed_form_table(eps)
    poisson = solve_poisson_dirichlet(phi(fld), fld.mesh)
    f_gap = float(np.abs(frame.f - poisson.f).max())
    r_hi = frame.gauge_residuals[-1]
    checks = [
        Check("orthonormality_defect", final.orth_defect, 0.0, 1e-10, "<="),
        Check("tangency_defect", final.tangency_defect, 0.0, 1e-10, "<="),
        Check("residual_halving_1", r_lo / r_mid, 2.0, None, ">="),
        Check("residual_halving_2", r_mid / r_hi, 2.0, None, ">="),
        Check("f_recovery_gap", f_gap, 0.0, 0.02 * poisson.max_abs, "<="),
        Check("f_max", frame.log[-1]["f_max"], abs(table.f_at_origin),
              0.02, "rel"),
    ]
    return checks, {"boundary_std": frame.boundary_std,
                    "delta": final.delta,
                    "poisson": _cg_report(poisson),
                    "gauge_residuals": frame.gauge_residuals,
                    "weak_poisson_residual": final.weak_poisson_residual}


def cmd_coarea(args, outdir):
    eps = _one_eps(args)
    fld = _enneper_field(eps, args.level)
    quad = sphere_quadrature(args.sphere_level)
    rep = coarea_check(fld, quad, N=args.filter_n)
    gap = abs(rep.lhs - rep.rhs) / rep.lhs
    excl = rep.excluded_measure / FOUR_PI
    cap_height = (1.0 - eps ** 2) / (1.0 + eps ** 2)
    margin = quad.face_diameter
    inner = rep.accepted & (quad.nodes[:, 2] < cap_height - margin)
    outer = rep.accepted & (quad.nodes[:, 2] > cap_height + margin)
    card1 = float(np.mean(rep.cards[inner] == 1)) if inner.any() else 0.0
    card0 = int(np.sum(rep.cards[outer] != 0))
    checks = [
        Check("coarea_gap", gap, 0.0, 0.02, "<="),
        Check("excluded_measure", excl, 0.0, 0.05, "<="),
        Check("card1_fraction", card1, 0.95, None, ">="),
        Check("card0_outside_image", card0, 0, None, "=="),
    ]
    _write_csv(outdir / "coarea.csv", "node,n1,n2,n3,card,signed_sum,accepted",
               zip(range(quad.nodes.shape[0]), *quad.nodes.T, rep.cards,
                   rep.signed_sums, rep.accepted.astype(int)))
    return checks, {"lhs": rep.lhs, "rhs": rep.rhs,
                    "rejections": rep.rejections,
                    "exact_kernel_sums": rep.exact_kernel_sums}


def _holography_level(eps, level, region):
    """One level of the holography sweep: the identity's report and the
    Dirichlet solve of -Laplace f = Phi.  The field is dropped before
    the solve, so its per-element arrays are gone while the multigrid
    hierarchy is built, and the mesh when this returns, before the next
    level's mesh is built."""
    fld = _enneper_field(eps, level)
    rep = holography_identity(fld, region, zeta_eps(eps, fld.mesh))
    mesh, rhs = fld.mesh, phi(fld)
    del fld
    return rep, solve_poisson_dirichlet(rhs, mesh)


def cmd_holography(args, outdir):
    center, rho = _parse_cap(args.cap)
    region = cap(center, rho)
    levels = args.levels
    if len(levels) == 1:
        levels = levels * len(args.eps)
    if len(levels) != len(args.eps):
        raise ValueError("need one refinement level per eps")
    rows, checks = [], []
    raws, resids, duals = [], [], []
    poisson, boundary = {}, {}
    for eps, level in zip(args.eps, levels):
        rep, sol = _holography_level(eps, level, region)
        boundary[f"{eps:g}"] = rep.boundary_elements
        duals.append(sol.gradient_norm)
        poisson[f"{eps:g}"] = _cg_report(sol)
        raws.append(abs(rep.raw_term))
        resids.append(abs(rep.residual))
        rows.append((eps, rep.mu, rep.raw_term, rep.residual,
                     rep.omega_l2))
        ref = closed_form_table(eps).delta_norm
        checks += [
            Check(f"raw_term_eps_{eps:g}", raws[-1], ref, 0.05, "rel"),
            Check(f"dual_norm_eps_{eps:g}", duals[-1], ref, 0.05, "rel"),
        ]
    inc_raw = all(b > a for a, b in zip(raws, raws[1:]))
    inc_dual = all(b > a for a, b in zip(duals, duals[1:]))
    rise = max((b - a for a, b in zip(resids, resids[1:])), default=0.0)
    checks += [
        Check("raw_term_increasing", float(inc_raw), 1.0, None, "=="),
        Check("dual_norm_increasing", float(inc_dual), 1.0, None, "=="),
        Check("residual_max", max(resids), 0.0, 0.5, "<="),
        # non-increasing within the accuracy holography_identity promises
        Check("residual_non_increasing", rise, 0.0, HOLOGRAPHY_TOL, "<="),
    ]
    _write_csv(outdir / "holography.csv",
               "eps,mu,raw_term,corrected_residual,omega_l2", rows)
    return checks, {"levels": levels, "poisson": poisson,
                    "boundary_elements": boundary}


def cmd_self_intersect(args, outdir):
    eps = _one_eps(args)
    pairs = self_intersections(eps)
    psi = enneper_psi_closure(eps)
    rows = []
    worst = 0.0
    for p in pairs:
        gap = float(np.linalg.norm(psi(*p.x_hat) - psi(*p.x_tilde)))
        worst = max(worst, gap)
        rows.append((p.family, *p.x_hat, *p.x_tilde, p.radius, gap))
    radii = coincidence_radii(eps)
    min_r2 = float((radii ** 2).min()) if radii.size else float("inf")
    checks = [
        Check("pair_count", len(pairs), 4, None, "=="),
        Check("pair_gap_max", worst, 0.0, 1e-10, "<="),
        Check("sweep_min_radius_sq", min_r2, 3.0 * eps ** 2 - 1e-6, None,
              ">="),
    ]
    _write_csv(outdir / "self_intersect.csv",
               "family,x_hat1,x_hat2,x_tilde1,x_tilde2,radius,gap", rows)
    return checks, None


def cmd_convergence(args, outdir):
    eps = _one_eps(args)
    table = closed_form_table(eps)
    rows = []
    for i, level in enumerate(args.levels):
        fld = _enneper_field(eps, level)
        *_, errs = _closed_form_errors(fld, eps, table)
        rows.append((level, *errs, max(errs)))
        if i == len(args.levels) // 2:  # the O(3) check reads it
            middle = fld
    worst_by_level = [row[-1] for row in rows]
    decreasing = all(b < a for a, b in
                     zip(worst_by_level, worst_by_level[1:]))
    checks = [Check("errors_decreasing", float(decreasing), 1.0, None, "==")]
    # orientation symmetry of the Jacobian density under O(3)
    rng = np.random.default_rng(args.seed)
    fld = middle
    base = phi(fld)
    worst_sym = 0.0
    for _ in range(5):
        q, _r = np.linalg.qr(rng.standard_normal((3, 3)))
        sign = float(np.linalg.det(q))
        rotated = field_from_values(fld.values @ q.T, fld.mesh)
        worst_sym = max(
            worst_sym, float(np.abs(phi(rotated) - sign * base).max())
        )
    checks.append(Check("rotation_symmetry_defect", worst_sym, 0.0, 1e-12,
                        "<="))
    _write_csv(outdir / "convergence.csv",
               "level,rel_err_phi,rel_err_energy,rel_err_gradf2,max_rel_err",
               rows)
    return checks, None


_COMMANDS = {
    "mesh-info": cmd_mesh_info,
    "enneper-table": cmd_enneper_table,
    "decompose": cmd_decompose,
    "frame": cmd_frame,
    "coarea": cmd_coarea,
    "holography": cmd_holography,
    "self-intersect": cmd_self_intersect,
    "convergence": cmd_convergence,
}

# The keys each command reads besides seed and out, with their defaults.
_DEFAULTS = {
    "mesh-info": {"level": 5},
    "enneper-table": {"level": 6, "eps": [1.0, 0.5, 0.25]},
    "decompose": {"level": 6, "eps": [0.5], "sphere_level": 4},
    "frame": {"level": 6, "eps": [0.5]},
    "coarea": {"level": 6, "eps": [0.5], "sphere_level": 4,
               "filter_n": 64},
    "holography": {"eps": [0.3, 0.1, 0.03], "levels": [6, 7, 8],
                   "sphere_level": 4, "cap": "-k,0.7853981633974483"},
    "self-intersect": {"eps": [0.4]},
    "convergence": {"eps": [0.5], "levels": [4, 5, 6]},
}

# Every key: how its value is parsed, and its help text.
_KEYS = {
    "level": (int, "mesh refinement level"),
    "levels": (partial(_number_list, int),
               "comma-separated refinement levels"),
    "eps": (partial(_number_list, float), "comma-separated parameter values"),
    "sphere_level": (int, "sphere quadrature subdivision level"),
    "filter_n": (int, "regular-value filter bound N"),
    "cap": (str, "cap region `center,rho`"),
    "seed": (int, "random seed (default 1234)"),
    "out": (str, "output directory (default: current directory)"),
}


def _build_parser():
    # A flag value that does not parse raises argparse.ArgumentError,
    # which `main` reports as a usage error.
    parser = argparse.ArgumentParser(
        prog="coulomb-lab",
        description="Experiment runner for disc-to-sphere field "
                    "decompositions.",
        exit_on_error=False,
    )
    parser.add_argument("--config", help="key=value configuration file")
    sub = parser.add_subparsers(dest="command")
    for name, defaults in _DEFAULTS.items():
        p = sub.add_parser(name, exit_on_error=False)
        for key in (*defaults, "seed", "out"):
            convert, text = _KEYS[key]
            p.add_argument("--" + key.replace("_", "-"), type=convert,
                           help=text)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            raise argparse.ArgumentError(
                None, f"unrecognized arguments: {' '.join(extra)}")
    except argparse.ArgumentError as exc:
        print(f"coulomb-lab: {exc}", file=sys.stderr)
        return 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    opts = {"seed": 1234, "out": ".", **_DEFAULTS[args.command]}
    if args.config:
        try:
            for key, val in _load_config_file(args.config).items():
                if key not in opts:
                    raise ValueError(f"unknown config key {key!r} for "
                                     f"{args.command}")
                opts[key] = _KEYS[key][0](val)
        except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
            print(f"coulomb-lab: bad config: {exc}", file=sys.stderr)
            return 2
    for key in opts:
        if getattr(args, key) is not None:
            opts[key] = getattr(args, key)
    outdir = Path(opts.pop("out"))
    created = [p for p in (outdir, *outdir.parents) if not p.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        checks, info = _COMMANDS[args.command](argparse.Namespace(**opts),
                                               outdir)
    except ValueError as exc:
        print(f"coulomb-lab: {exc}", file=sys.stderr)
        # leave no directory this run made and wrote nothing into
        for p in created:
            if any(p.iterdir()):
                break
            p.rmdir()
        return 2
    _write_summary(outdir, args.command, opts, checks, info)
    return _report(checks)


if __name__ == "__main__":
    sys.exit(main())
