import json

import numpy as np
import pytest

from coulomb_lab.cli import _load_config_file, _parse_cap, main


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
    assert set(counts) == {"pole", "degenerate", "zero_jacobian", "count",
                           "boundary", "separation", "integral"}
    rows = (out / "coarea.csv").read_text().splitlines()[1:]
    rejected = sum(row.endswith(",0") for row in rows)
    assert rejected > 0
    assert max(counts.values()) <= rejected <= sum(counts.values())


def test_summary_structure(tmp_path):
    _, _, summary = run(tmp_path, "mesh-info", "--level", "2")
    assert set(summary) == {"command", "config", "checks", "pass", "info"}
    for c in summary["checks"]:
        assert set(c) == {"name", "value", "reference", "tol", "pass"}
    assert summary["config"]["seed"] == 1234


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
    with pytest.raises(SystemExit) as exc:
        main(["mesh-info", "--eps", "0.5", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


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
])
def test_bad_input_is_usage_error(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert err.startswith("coulomb-lab: ") and err.count("\n") == 1


def test_parse_cap():
    center, rho = _parse_cap("-k,0.5")
    assert np.allclose(center, [0.0, 0.0, -1.0]) and rho == 0.5
    center, rho = _parse_cap("k,1.0")
    assert np.allclose(center, [0.0, 0.0, 1.0])
    center, rho = _parse_cap("1:1:0,0.25")
    assert np.allclose(center, [np.sqrt(0.5), np.sqrt(0.5), 0.0])
    assert rho == 0.25


def test_load_config_file(tmp_path):
    cfg = tmp_path / "c"
    cfg.write_text("# comment only\nsphere-level = 3\n\neps=0.5,0.25\n")
    values = _load_config_file(cfg)
    assert values == {"sphere_level": "3", "eps": "0.5,0.25"}
    cfg.write_text("broken line\n")
    with pytest.raises(ValueError):
        _load_config_file(cfg)
