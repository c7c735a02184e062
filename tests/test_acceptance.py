"""End-to-end acceptance checks.

Each criterion is defined once, by the `coulomb-lab` subcommand that
checks it: a test runs that subcommand at its defaults (seed 1234),
reads the summary.json it writes, and asserts that every check the
criterion owns is present and passes.  Each test prints a single
`criterion N: PASS/FAIL` line, with the bounds it read from that
summary; `tests/conftest.py` repeats the captured lines at the end of
the run, so every run shows the verdicts.
"""

import json
import time

import pytest

from coulomb_lab.cli import main

# Wall-time limit of the enneper-table run (criterion 1).
RUNTIME_LIMIT_S = 120.0


def _run(out, *argv):
    """Run one subcommand into `out`; return its checks by name."""
    code = main([*argv, "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    assert code == (0 if summary["pass"] else 1)
    return {c["name"]: c for c in summary["checks"]}


def _failed(checks, names):
    """The names in `names` whose check is missing or fails."""
    return [n for n in names if not checks.get(n, {}).get("pass")]


def _verdict(num, failed, detail):
    """Print criterion `num`'s verdict; fail the test if `failed`."""
    status = "FAIL" if failed else "PASS"
    print(f"criterion {num:2d}: {status} - {detail}")
    assert not failed, f"failed: {failed}"


def _values(checks, names):
    return [checks[n]["value"] for n in names]


def _bound(check):
    """The rule and bound that decide `check`, as summary.json records
    them."""
    rule = check["rule"]
    if rule == "rel":
        return f"rel err <= {check['tol']:g}"
    return f"{rule} {check['tol' if rule == '<=' else 'reference']:g}"


def _rel_errs(checks, names):
    return [abs(checks[n]["value"] - checks[n]["reference"])
            / abs(checks[n]["reference"]) for n in names]


@pytest.fixture(scope="module")
def enneper_table(tmp_path_factory):
    t0 = time.perf_counter()
    checks = _run(tmp_path_factory.mktemp("enneper"), "enneper-table")
    return checks, time.perf_counter() - t0


@pytest.fixture(scope="module")
def decompose(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("decompose"), "decompose")


@pytest.fixture(scope="module")
def holography(tmp_path_factory):
    out = tmp_path_factory.mktemp("holography")
    checks = _run(out, "holography")
    rows = (out / "holography.csv").read_text().splitlines()[1:]
    resids = [abs(float(row.split(",")[3])) for row in rows]
    return checks, resids


def test_criterion_01_closed_forms(enneper_table):
    checks, elapsed = enneper_table
    names = ["closed_forms_eps_1", "closed_forms_eps_0.5",
             "closed_forms_eps_0.25"]
    worst = max(_values(checks, names))
    _verdict(1, _failed(checks, names),
             f"closed-form rel err {worst:.2e} "
             f"({_bound(checks[names[0]])}), runtime {elapsed:.1f}s "
             f"(limit {RUNTIME_LIMIT_S:g}s)")
    assert elapsed < RUNTIME_LIMIT_S


def test_criterion_02_minimal_surface_equality(enneper_table):
    checks, _ = enneper_table
    names = ["minimal_surface_eps_1", "minimal_surface_eps_0.5",
             "minimal_surface_eps_0.25"]
    worst = max(_values(checks, names))
    _verdict(2, _failed(checks, names),
             f"|2 int|Phi| - energy| rel err {worst:.2e} "
             f"({_bound(checks[names[0]])})")


def test_criterion_03_decomposition_pipeline(decompose):
    names = ["region_measure", "omega_l2_certificate", "weak_residual",
             "residual_refinement_ratio", "kernel_bound_slack"]
    measure, _, worst, ratio, _ = _values(decompose, names)
    _verdict(3, _failed(decompose, names),
             f"meas(K)={measure:.3f} "
             f"({_bound(decompose['region_measure'])}), weak residual "
             f"{worst:.2e} ({_bound(decompose['weak_residual'])}), "
             f"refinement ratio {ratio:.2f} "
             f"({_bound(decompose['residual_refinement_ratio'])})")


def test_criterion_04_kernel_bounds(decompose):
    names = ["gamma_bound_violations", "omega_bound_violations"]
    violations = sum(_values(decompose, names))
    _verdict(4, _failed(decompose, names),
             f"{violations} bound violations over 1e5 samples plus all "
             f"field elements ({_bound(decompose[names[0]])} each)")


def test_criterion_05_symmetry(tmp_path):
    names = ["errors_decreasing", "rotation_symmetry_defect"]
    runs = [_run(tmp_path / eps, "convergence", "--eps", eps)
            for eps in ("0.5", "0.25")]
    worst = max(c["rotation_symmetry_defect"]["value"] for c in runs)
    _verdict(5, _failed(runs[0], names) + _failed(runs[1], names),
             f"orthogonal-transform defect {worst:.2e} "
             f"({_bound(runs[0]['rotation_symmetry_defect'])})")


def test_criterion_06_coulomb_frame(tmp_path):
    checks = _run(tmp_path, "frame")
    names = ["orthonormality_defect", "tangency_defect",
             "residual_halving_1", "residual_halving_2", "f_recovery_gap",
             "f_max"]
    orth, tang, half1, half2, f_gap, _ = _values(checks, names)
    (f_max_err,) = _rel_errs(checks, ["f_max"])
    _verdict(6, _failed(checks, names),
             f"defects {max(orth, tang):.1e} "
             f"({_bound(checks['orthonormality_defect'])}), halving "
             f"{half1:.1f}/{half2:.1f} "
             f"({_bound(checks['residual_halving_1'])}), f gap "
             f"{f_gap:.2e} ({_bound(checks['f_recovery_gap'])}), "
             f"max|f| err {f_max_err:.2e} ({_bound(checks['f_max'])})")


def test_criterion_07_coarea(tmp_path):
    checks = _run(tmp_path, "coarea")
    names = ["coarea_gap", "excluded_measure", "card1_fraction",
             "card0_outside_image"]
    gap, excl, card1, card0 = _values(checks, names)
    _verdict(7, _failed(checks, names),
             f"gap {gap:.2e} ({_bound(checks['coarea_gap'])}), excluded "
             f"{excl:.2e} ({_bound(checks['excluded_measure'])}), card1 "
             f"{card1:.3f} ({_bound(checks['card1_fraction'])}), card0 "
             f"misses {card0} ({_bound(checks['card0_outside_image'])})")


def test_criterion_08_holography_sharpness(holography):
    checks, resids = holography
    raw = ["raw_term_eps_0.3", "raw_term_eps_0.1", "raw_term_eps_0.03",
           "raw_term_increasing"]
    names = raw + ["residual_max", "residual_non_increasing"]
    raw_ok = not _failed(checks, raw)
    _verdict(8, _failed(checks, names),
             f"raw ({_bound(checks[raw[0]])}) and increasing: {raw_ok}, "
             f"residuals {'/'.join(f'{r:.1e}' for r in resids)} "
             f"({_bound(checks['residual_max'])}), largest rise "
             f"{checks['residual_non_increasing']['value']:.1e} "
             f"({_bound(checks['residual_non_increasing'])})")


def test_criterion_09_dual_norm(holography):
    checks, _ = holography
    duals = ["dual_norm_eps_0.3", "dual_norm_eps_0.1", "dual_norm_eps_0.03"]
    names = duals + ["dual_norm_increasing"]
    norms = "/".join(f"{d:.3f}" for d in _values(checks, duals))
    _verdict(9, _failed(checks, names),
             f"dual norms {norms} strictly increasing, rel err max "
             f"{max(_rel_errs(checks, duals)):.2e} "
             f"({_bound(checks[duals[0]])})")


def test_criterion_10_self_intersection(tmp_path):
    checks = _run(tmp_path, "self-intersect")
    names = ["pair_count", "pair_gap_max", "sweep_min_radius_sq"]
    pairs, worst, min_r2 = _values(checks, names)
    _verdict(10, _failed(checks, names),
             f"{pairs} pairs ({_bound(checks['pair_count'])}), worst gap "
             f"{worst:.1e} ({_bound(checks['pair_gap_max'])}), sweep min "
             f"r^2 {min_r2:.3f} ({_bound(checks['sweep_min_radius_sq'])})")
    rows = (tmp_path / "self_intersect.csv").read_text().splitlines()
    assert len(rows) == 5


def test_criterion_11_determinism(tmp_path):
    # convergence, holography (the rule kernel, and at level 4 the
    # multigrid-preconditioned CG of the dual norm) and coarea (the
    # census and the solid-angle lhs; at eps 0.5, level 3 is too coarse
    # for the gap check)
    runs = {
        "convergence": (["--levels", "3,4", "--eps", "0.5"],
                        "convergence.csv"),
        "holography": (["--eps", "0.3", "--levels", "4",
                        "--sphere-level", "2"], "holography.csv"),
        "coarea": (["--level", "3", "--eps", "0.3"], "coarea.csv"),
    }
    differ = []
    for command, (flags, artifact) in runs.items():
        outs = []
        for name in ("a", "b"):
            out = tmp_path / command / name
            assert main([command, *flags, "--out", str(out)]) == 0
            outs.append(out)
        differ += [f"{command}/{f}" for f in (artifact, "summary.json")
                   if (outs[0] / f).read_bytes()
                   != (outs[1] / f).read_bytes()]
    _verdict(11, differ, "repeated runs byte-identical")
