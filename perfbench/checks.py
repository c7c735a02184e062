"""Checks of each experiment's artifacts, computed apart from the program.

Each `check_*` function reads `summary.json` and the CSV tables an
experiment wrote into `outdir` and returns a list of failures (empty
when every check holds).  Reference values come from closed forms
evaluated here, or from properties of the method; nothing is compared
with a stored copy of earlier output, and no threshold is imported from
coulomb_lab.
"""

import csv
import json
import math
from pathlib import Path

# Accuracy that holography_identity promises for caps (|residual|).
HOLOGRAPHY_RESIDUAL = 1e-4


def delta(eps):
    """Delta(eps) = |grad f_eps|, the H^-1 size of Phi for Enneper."""
    e2 = eps * eps
    return math.sqrt(4.0 * math.pi * (math.log(1.0 / e2 + 1.0)
                                      - 1.0 / (1.0 + e2)))


def _rows(path):
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def _summary(outdir):
    payload = json.loads((Path(outdir) / "summary.json").read_text())
    values = {c["name"]: c["value"] for c in payload["checks"]}
    return values, payload.get("info", {})


def _within(value, reference, rel):
    return abs(value - reference) <= rel * abs(reference)


def check_holography(outdir, eps_list, rho):
    """Criteria 8-9: raw term and dual norm against Delta(eps)."""
    values, _ = _summary(outdir)
    rows = _rows(Path(outdir) / "holography.csv")
    errors = []
    if [r["eps"] for r in rows] != list(eps_list):
        return [f"holography.csv has eps {[r['eps'] for r in rows]}, "
                f"expected {list(eps_list)}"]
    mu = 2.0 * math.pi * (1.0 - math.cos(rho))
    for r in rows:
        eps, ref = r["eps"], delta(r["eps"])
        raw, dual = abs(r["raw_term"]), values[f"dual_norm_eps_{eps:g}"]
        if not _within(raw, ref, 0.05):
            errors.append(f"eps={eps:g}: |raw| {raw:.6g} not within 5% "
                          f"of Delta {ref:.6g}")
        if not _within(dual, ref, 0.05):
            errors.append(f"eps={eps:g}: dual norm {dual:.6g} not within "
                          f"5% of Delta {ref:.6g}")
        if not abs(r["corrected_residual"]) <= HOLOGRAPHY_RESIDUAL:
            errors.append(f"eps={eps:g}: |residual| "
                          f"{abs(r['corrected_residual']):.3g} > "
                          f"{HOLOGRAPHY_RESIDUAL:g}")
        if not _within(r["mu"], mu, 1e-12):
            errors.append(f"eps={eps:g}: mu {r['mu']!r} != {mu!r}")
    raws = [abs(r["raw_term"]) for r in rows]
    if not all(b > a for a, b in zip(raws, raws[1:])):
        errors.append(f"raw terms not increasing: {raws}")
    return errors


def check_coarea(outdir, eps, sphere_level):
    """Criterion 7 on the full sphere, with the Enneper Gauss map."""
    _, info = _summary(outdir)
    rows = _rows(Path(outdir) / "coarea.csv")
    errors = []
    targets = 20 * 4 ** sphere_level
    if len(rows) != targets:
        return [f"coarea.csv has {len(rows)} nodes, expected {targets}"]
    ref = 4.0 * math.pi / (1.0 + eps * eps)
    if not _within(info["lhs"], ref, 0.02):
        errors.append(f"lhs {info['lhs']:.6g} not within 2% of "
                      f"4 pi/(1 + eps^2) = {ref:.6g}")
    flipped = [int(r["node"]) for r in rows
               if r["signed_sum"] != -r["card"]]
    if flipped:
        errors.append(f"signed_sum != -card at nodes {flipped[:10]}")
    # The faces of the level-L icosahedral grid have diameter below
    # 4/3 * 2^-L: the icosahedron's edge over its inradius, halved
    # per level.
    margin = 4.0 / 3.0 * 2.0 ** -sphere_level
    edge = (1.0 - eps * eps) / (1.0 + eps * eps)
    below = [r for r in rows if r["accepted"] and r["n3"] < edge - margin]
    above = [r for r in rows if r["accepted"] and r["n3"] > edge + margin]
    if not below or not above:
        errors.append("no accepted node clear of the image edge")
    wrong = [int(r["node"]) for r in below if r["card"] != 1]
    wrong += [int(r["node"]) for r in above if r["card"] != 0]
    if wrong:
        errors.append(f"card is not 1 below / 0 above the image edge at "
                      f"nodes {wrong[:10]}")
    return errors


def check_frame(outdir, eps):
    """Criterion 6: Coulomb frame and the recovered conformal factor."""
    values, _ = _summary(outdir)
    errors = []
    for name in ("orthonormality_defect", "tangency_defect"):
        if not values[name] <= 1e-10:
            errors.append(f"{name} {values[name]:.3g} > 1e-10")
    ref = abs(math.log(eps * eps / (1.0 + eps * eps)))
    if not _within(values["f_max"], ref, 0.02):
        errors.append(f"max|f| {values['f_max']:.6g} not within 2% of "
                      f"|log(eps^2/(1 + eps^2))| = {ref:.6g}")
    for name in ("residual_halving_1", "residual_halving_2"):
        if not values[name] >= 2.0:
            errors.append(f"{name}: residual ratio {values[name]:.3g} < 2")
    lams = [r["lambda"] for r in _rows(Path(outdir) / "frame_log.csv")]
    if not lams or lams[-1] != 1.0 or lams[0] <= 0.0 or not all(
            b > a for a, b in zip(lams, lams[1:])):
        errors.append("lambda does not increase strictly to 1")
    return errors


def check_decompose(outdir, level):
    """Criterion 3: divergence form of Phi on an admissible region."""
    values, _ = _summary(outdir)
    rows = _rows(Path(outdir) / "divform.csv")
    errors = []
    triangles = 6 * 4 ** (level + 1)
    if len(rows) != triangles:
        return [f"divform.csv has {len(rows)} elements, expected "
                f"{triangles}"]
    slack = [int(r["element"]) for r in rows if not r["bound_slack"] >= 0]
    if slack:
        errors.append(f"bound_slack < 0 on elements {slack[:10]}")
    positive = [int(r["element"]) for r in rows if not r["phi"] < 0]
    if positive:
        errors.append(f"Phi >= 0 on elements {positive[:10]}")
    if not values["weak_residual"] <= 0.05:
        errors.append(f"weak residual {values['weak_residual']:.3g} > 0.05")
    if not values["residual_refinement_ratio"] >= 1.5:
        errors.append(f"residual falls only "
                      f"{values['residual_refinement_ratio']:.3g}x "
                      f"from level {level - 1} to {level}")
    return errors
