import math

import numpy as np
import pytest

from hierwalk import evolve_absorbing, field_from_config
from hierwalk.cli import main, parse_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_kv(text):
    out = {}
    for line in text.strip().split("\n"):
        key, value = line.split("=", 1)
        out[key] = value
    return out


def test_simulate_ballistic(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--epsilon", "1.0", "--t-max", "4096", "--seed", "1",
    )
    assert code == 0
    kv = as_kv(out)
    assert abs(float(kv["inv_dw"]) - 1.0) < 0.05
    assert kv["classification"] == "transporting"
    assert kv["model"] == "none"


def test_simulate_series_out_schema(capsys, tmp_path):
    path = tmp_path / "series.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--epsilon", "0.8", "--model", "hierarchical",
        "--W", "0.5", "--seed", "3", "--t-max", "256", "--series-out", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epsilon,W,model,instance,t,sigma"
    assert all(line.split(",")[2] == "hierarchical" for line in lines[1:])


def test_simulate_rejects_bad_t_max(capsys):
    code, _, err = run_cli(capsys, "simulate", "--epsilon", "1.0", "--t-max", "1000")
    assert code == 1
    assert "power of two" in err


def test_simulate_rejects_bad_epsilon(capsys):
    code, _, err = run_cli(capsys, "simulate", "--epsilon", "1.5", "--t-max", "64")
    assert code == 1
    assert "epsilon" in err


def test_config_file_supplies_field(capsys, tmp_path):
    cfg = tmp_path / "field.cfg"
    cfg.write_text(
        "# walk configuration\n"
        "epsilon = 0.8\n"
        "disorder_model = hierarchical\n"
        "W = 0.5\n"
        "seed = 7\n"
        "half_width = 256\n"
    )
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--t-max", "256")
    assert code == 0
    kv = as_kv(out)
    assert float(kv["epsilon"]) == 0.8
    assert kv["model"] == "hierarchical"
    assert kv["seed"] == "7"
    # explicit flags win over the config file
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--t-max", "256", "--W", "0.0",
    )
    assert float(as_kv(out)["W"]) == 0.0


def test_config_file_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("epsilon = 0.8\nseeed = 7\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--t-max", "64")
    assert code == 1
    assert out == ""
    assert "seeed" in err


def test_parse_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("epsilon 0.8\n")
    with pytest.raises(ValueError):
        parse_config(str(bad))


def test_sweep_writes_outputs(capsys, tmp_path):
    out_dir = tmp_path / "results"
    code, out, _ = run_cli(
        capsys, "sweep", "--epsilon", "1.0", "--epsilon", "0.8", "--W", "0.5",
        "--model", "hierarchical", "--instances", "2", "--base-seed", "9",
        "--t-max", "512", "--out-dir", str(out_dir),
        "--extrapolation", "0.8,0.5",
    )
    assert code == 0
    assert (out_dir / "cells.csv").exists()
    assert (out_dir / "samples.csv").exists()
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "extrapolation_0.8_0.5.csv").exists()
    rows = (out_dir / "cells.csv").read_text().strip().split("\n")
    assert len(rows) == 3  # header + 2 cells


def test_sweep_budget_refusal_is_nonzero(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--epsilon", "1.0", "--W", "0.0", "--model", "none",
        "--instances", "1", "--t-max", "512", "--out-dir", str(tmp_path / "x"),
        "--budget", "10",
    )
    assert code == 1
    assert "budget" in err


def test_sweep_preset_desk_fills_defaults(capsys, tmp_path):
    # budget guard keeps this from actually running: preset values made it into the plan
    code, _, err = run_cli(
        capsys, "sweep", "--epsilon", "1.0", "--W", "0.0", "--model", "none",
        "--preset", "desk", "--out-dir", str(tmp_path / "x"), "--budget", "10",
    )
    assert code == 1
    assert f"{20 * (2 ** 13) ** 2:.3e}" in err


def test_fit_reproduces_cells(capsys, tmp_path):
    out_dir = tmp_path / "results"
    code, _, _ = run_cli(
        capsys, "sweep", "--epsilon", "0.9", "--W", "0.3", "--model", "hierarchical",
        "--instances", "2", "--base-seed", "4", "--t-max", "512",
        "--out-dir", str(out_dir),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "fit", "--results-dir", str(out_dir))
    assert code == 0
    assert out == (out_dir / "cells.csv").read_text()


def test_fit_missing_archive_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "fit", "--results-dir", str(tmp_path))
    assert code == 1
    assert "samples.csv" in err


def test_fit_refuses_archive_without_manifest(capsys, tmp_path):
    out_dir = tmp_path / "results"
    code, _, _ = run_cli(
        capsys, "sweep", "--epsilon", "0.9", "--W", "0.3", "--model", "hierarchical",
        "--instances", "2", "--t-max", "64", "--t-lo", "8", "--t-hi", "64",
        "--out-dir", str(out_dir),
    )
    assert code == 0
    (out_dir / "manifest.json").unlink()
    code, out, err = run_cli(capsys, "fit", "--results-dir", str(out_dir))
    assert code == 1
    assert out == ""
    assert "manifest.json" in err


def test_rg_rows_match_library(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "rg", "--l", "2", "--epsilon", "0.7", "--W", "0.4", "--seed", "11",
        "--z-re", "0.3", "--z-re", "0.1", "--z-im", "0.1", "--z-im", "0.0",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("z_re,z_im,status,right_up_re")
    assert len(lines) == 3
    cols = lines[1].split(",")
    assert cols[2] == "ok"
    field = field_from_config({
        "epsilon": "0.7", "disorder_model": "hierarchical",
        "W": "0.4", "seed": "11", "half_width": "4",
    })
    rec = evolve_absorbing(field, 2, np.array([1 / math.sqrt(2), 1j / math.sqrt(2)]), 200)
    right, _ = rec.generating_function(complex(0.3, 0.1))
    assert float(cols[3]) == pytest.approx(right[0].real, abs=1e-9)
    assert float(cols[4]) == pytest.approx(right[0].imag, abs=1e-9)


def test_rg_requires_z(capsys):
    code, _, err = run_cli(capsys, "rg", "--l", "2", "--epsilon", "0.7")
    assert code == 1
    assert "z-re" in err


def test_rg_mismatched_z_lists(capsys):
    code, _, err = run_cli(
        capsys, "rg", "--l", "1", "--epsilon", "1.0",
        "--z-re", "0.1", "--z-re", "0.2", "--z-im", "0.0",
    )
    assert code == 1
    assert "--z-im" in err


def test_rg_rejects_extensive(capsys):
    code, _, err = run_cli(
        capsys, "rg", "--l", "2", "--epsilon", "1.0", "--model", "extensive",
        "--W", "0.5", "--z-re", "0.1",
    )
    assert code == 1
    assert "level" in err


def test_half_specified_window_rejected(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--epsilon", "1.0", "--t-max", "64", "--t-lo", "8",
    )
    assert code == 1
    assert "--t-hi" in err


def test_psi_ic_flag_parsing(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--epsilon", "1.0", "--t-max", "64",
        "--psi-ic", "0.6,0.8j",
    )
    assert code == 0
    code, _, err = run_cli(
        capsys, "simulate", "--epsilon", "1.0", "--t-max", "64",
        "--psi-ic", "0.6,0.8j,0.1",
    )
    assert code == 1
    assert "psi-ic" in err
