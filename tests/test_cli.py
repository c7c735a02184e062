import dataclasses
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from coulomb_lab import cli
from coulomb_lab.cli import _load_config_file, _parse_cap, main
from coulomb_lab.fields import sample_field
from coulomb_lab.mesh import build_disc_mesh
from coulomb_lab.pde import solve_poisson_dirichlet

# The rules of summary.json, each from the fields it reads: a copy of
# the definition in the cli module docstring, not an import of it.
RULES = {
    "<=": lambda c: c["value"] <= c["tol"],
    ">=": lambda c: c["value"] >= c["reference"],
    ">": lambda c: c["value"] > c["reference"],
    "==": lambda c: c["value"] == c["reference"],
    "rel": lambda c: (abs(c["value"] - c["reference"])
                      / abs(c["reference"]) <= c["tol"]),
}


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    return code, out, summary


def test_mesh_info(tmp_path, capsys):
    code, out, summary = run(tmp_path, "mesh-info", "--level", "3")
    assert code == 0
    assert summary["pass"] is True
    assert summary["command"] == "mesh-info"
    assert summary["info"]["nodes"] == 817
    assert (out / "mesh.txt").exists()
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("[pass] disc_area:") for line in lines)


def test_enneper_table(tmp_path):
    code, out, summary = run(
        tmp_path, "enneper-table", "--level", "4", "--eps", "1.0,0.5"
    )
    assert code == 0
    rows = (out / "enneper_table.csv").read_text().splitlines()
    assert rows[0].startswith("eps,int_abs_phi")
    assert len(rows) == 3
    names = [c["name"] for c in summary["checks"]]
    assert "closed_forms_eps_0.5" in names
    assert all(c["pass"] for c in summary["checks"])


def test_convergence(tmp_path):
    code, out, summary = run(
        tmp_path, "convergence", "--levels", "2,3,4", "--eps", "0.5"
    )
    assert code == 0
    table = (out / "convergence.csv").read_text().splitlines()
    assert len(table) == 4
    errs = [float(line.split(",")[-1]) for line in table[1:]]
    assert errs[0] > errs[1] > errs[2]


def test_coarea_reports_rejections(tmp_path):
    _, out, summary = run(tmp_path, "coarea", "--level", "4",
                          "--sphere-level", "2")
    counts = summary["info"]["rejections"]
    assert set(counts) == {"pole", "degenerate", "count", "boundary",
                           "separation", "integral"}
    rows = (out / "coarea.csv").read_text().splitlines()[1:]
    rejected = sum(row.endswith(",0") for row in rows)
    assert rejected > 0
    assert max(counts.values()) <= rejected <= sum(counts.values())
    # at the default N = 64 the bound decides every node's integral
    assert summary["info"]["exact_kernel_sums"] == 0


def test_holography_reports_boundary_elements(tmp_path):
    # per eps, the elements whose image may meet the cap boundary, which
    # the ray rule integrates
    _, _, summary = run(tmp_path, "holography", "--eps", "0.3,0.1",
                        "--levels", "4,5", "--cap=-k,0.7853981633974483")
    assert summary["info"]["boundary_elements"] == {"0.3": 78, "0.1": 42}


def test_holography_drops_each_field_before_its_solve(tmp_path,
                                                      monkeypatch):
    # no field is alive when its level's Poisson solve starts, and no
    # mesh of a previous level when the next mesh is built
    fields, meshes = [], []

    def build(level):
        assert all(ref() is None for ref in meshes)
        mesh = build_disc_mesh(level)
        meshes.append(weakref.ref(mesh))
        return mesh

    def sample(closure, mesh):
        fld = sample_field(closure, mesh)
        fields.append(weakref.ref(fld))
        return fld

    def solve(rhs, mesh):
        assert fields and all(ref() is None for ref in fields)
        return solve_poisson_dirichlet(rhs, mesh)

    monkeypatch.setattr(cli, "build_disc_mesh", build)
    monkeypatch.setattr(cli, "sample_field", sample)
    monkeypatch.setattr(cli, "solve_poisson_dirichlet", solve)
    code, _, _ = run(tmp_path, "holography", "--eps", "0.3,0.1",
                     "--levels", "3,4", "--sphere-level", "2")
    assert code in (0, 1) and len(fields) == len(meshes) == 2


def test_summary_structure(tmp_path):
    _, _, summary = run(tmp_path, "mesh-info", "--level", "2")
    assert set(summary) == {"command", "config", "checks", "pass", "info"}
    for c in summary["checks"]:
        assert set(c) == {"name", "value", "reference", "tol", "rule",
                          "pass"}
    assert summary["config"]["seed"] == 1234


def test_rules_decide_every_check(tmp_path):
    # every subcommand at small flags (self-intersect, which has none
    # that shrink its sweep, at its defaults); at these levels some
    # checks fail, so both outcomes are recomputed
    runs = [
        ["mesh-info", "--level", "2"],
        ["enneper-table", "--level", "3", "--eps", "1.0,0.5"],
        ["decompose", "--level", "3", "--sphere-level", "2"],
        ["frame", "--level", "3"],
        ["coarea", "--level", "3", "--sphere-level", "2"],
        ["holography", "--eps", "0.3,0.1", "--levels", "3",
         "--sphere-level", "2"],
        ["self-intersect"],
        ["convergence", "--levels", "2,3"],
    ]
    outcomes = set()
    for argv in runs:
        code, _, summary = run(tmp_path / argv[0], *argv)
        for c in summary["checks"]:
            assert c["rule"] in RULES, c
            assert RULES[c["rule"]](c) == c["pass"], c
            outcomes.add(c["pass"])
        assert summary["pass"] == all(c["pass"] for c in summary["checks"])
        assert code == (0 if summary["pass"] else 1)
    assert outcomes == {True, False}


def test_self_intersect_records_failing_pair(tmp_path, monkeypatch):
    # criterion 10's pair_gap_max is the one check of the pairs: a pair
    # that misses under Psi is a recorded FAIL with its row
    exact = cli.self_intersections

    def perturbed(eps):
        first, *rest = exact(eps)
        return (dataclasses.replace(first, x_tilde=first.x_tilde + 1e-6),
                *rest)

    monkeypatch.setattr(cli, "self_intersections", perturbed)
    code, out, summary = run(tmp_path, "self-intersect")
    assert code == 1 and not summary["pass"]
    failed = [c for c in summary["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["pair_gap_max"]
    assert failed[0]["value"] > failed[0]["tol"] == 1e-10
    rows = (out / "self_intersect.csv").read_text().splitlines()
    family, *_, gap = rows[1].split(",")
    assert family == "vertical_axis" and float(gap) == failed[0]["value"]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("level = 2  # coarse\nseed = 99\n")
    _, _, summary = run(tmp_path, "--config", str(cfg), "mesh-info")
    assert summary["info"]["level"] == 2
    assert summary["config"]["seed"] == 99
    # a flag overrides the file
    _, _, summary = run(tmp_path, "--config", str(cfg), "mesh-info",
                        "--level", "3")
    assert summary["info"]["level"] == 3


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("granularity = 3\n")
    assert main(["--config", str(cfg), "mesh-info",
                 "--out", str(tmp_path / "o")]) == 2


def test_flag_the_command_does_not_read(tmp_path):
    assert main(["mesh-info", "--eps", "0.5",
                 "--out", str(tmp_path / "o")]) == 2


def test_config_key_the_command_does_not_read(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("filter_n = 8\n")
    assert main(["--config", str(cfg), "frame",
                 "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_bad_config_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no equals sign here\n")
    assert main(["--config", str(cfg), "mesh-info",
                 "--out", str(tmp_path / "o")]) == 2


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_bad_value_is_usage_error(tmp_path, capsys):
    code = main(["holography", "--eps", "0.3,0.1", "--levels", "2,3,4",
                 "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["mesh-info", "--level", "11"],            # over the mesh guard
    ["enneper-table", "--eps", "0", "--level", "2"],  # zero Gauss vector
    ["holography", "--cap=0:0:0,0.5", "--eps", "0.3", "--levels", "2",
     "--sphere-level", "2"],                   # cap centre of length 0
    ["frame", "--eps="],                       # empty lists
    ["convergence", "--levels="],
    ["enneper-table", "--eps=", "--level", "2"],
    ["mesh-info", "--bogus", "1"],             # unknown flag
    ["frame", "--eps=abc"],                    # list item not a number
    ["self-intersect", "--eps", "0"],          # eps must be positive
    ["self-intersect", "--eps", "-0.4"],
    ["convergence", "--eps", "nan", "--levels", "2,3"],   # eps not a number
    ["enneper-table", "--eps", "nan", "--level", "2"],
    # the level-3 admissible region touches the level-2 field's image
    ["decompose", "--eps", "0.04", "--level", "3", "--sphere-level", "3"],
    # cos(1e-9) rounds to 1, so the cap has measure 0
    ["holography", "--cap=k,1e-9", "--eps", "0.3", "--levels", "2"],
    ["mesh-info", "--level", "12"],            # about 770 GiB
    # several eps where the command reads one
    ["decompose", "--eps", "0.5,0.3", "--level", "3", "--sphere-level", "2"],
    ["frame", "--eps", "0.5,0.3", "--level", "2"],
    ["coarea", "--eps", "0.5,0.3", "--level", "2"],
    ["self-intersect", "--eps", "0.4,0.3"],
    ["convergence", "--eps", "0.5,0.3", "--levels", "2,3"],
])
def test_bad_input_is_usage_error(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o" / "p")]) == 2
    assert not (tmp_path / "o").exists()    # no empty directory left
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert err.startswith("coulomb-lab: ") and err.count("\n") == 1
    assert not re.search(r"(?<!\w)_\w", err)    # no private name


def test_parse_cap():
    center, rho = _parse_cap("-k,0.5")
    assert np.allclose(center, [0.0, 0.0, -1.0]) and rho == 0.5
    center, rho = _parse_cap("k,1.0")
    assert np.allclose(center, [0.0, 0.0, 1.0])
    center, rho = _parse_cap("1:1:0,0.25")
    assert np.allclose(center, [np.sqrt(0.5), np.sqrt(0.5), 0.0])
    assert rho == 0.25
    for text in ("1:2,0.5", "k", "k,0.5,1"):
        with pytest.raises(ValueError, match="expected center,rho with "
                           "center k, -k or x:y:z"):
            _parse_cap(text)


def test_load_config_file(tmp_path):
    cfg = tmp_path / "c"
    cfg.write_text("# comment only\nsphere-level = 3\n\neps=0.5,0.25\n")
    values = _load_config_file(cfg)
    assert values == {"sphere_level": "3", "eps": "0.5,0.25"}
    cfg.write_text("broken line\n")
    with pytest.raises(ValueError):
        _load_config_file(cfg)


def test_cli_import_loads_no_scipy_spatial():
    # the package's neighbour search is its own (`sphere.PointGrid`), so
    # importing the CLI loads neither scipy.spatial nor scipy.special,
    # which scipy.spatial would pull in; scipy.sparse does neither
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, coulomb_lab.cli\n"
            "print(*sorted(m for m in sys.modules if m.startswith("
            "('scipy.spatial', 'scipy.special'))))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


def test_cli_import_loads_no_scipy_solvers():
    # the multigrid bottom is a dense numpy inverse (`pde`), so
    # importing the CLI loads neither scipy.sparse.linalg nor
    # scipy.linalg, and `self-intersect` imports scipy.optimize only
    # when it runs
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, coulomb_lab.cli\n"
            "print(*sorted(m for m in sys.modules if m.startswith("
            "('scipy.sparse.linalg', 'scipy.linalg', 'scipy.optimize'))))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
