import cmath
import json
import math

import numpy as np
import pytest

from hierwalk import evolve_absorbing, field_from_config
from hierwalk.cli import main, parse_config
from hierwalk.harness import read_manifest


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


def test_sweep_preset_desk_fills_defaults(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "sweep", "--epsilon", "1.0", "--W", "0.0", "--model", "none",
        "--preset", "desk", "--out-dir", str(tmp_path / "x"),
    )
    assert code == 0
    plan = read_manifest(tmp_path / "x" / "manifest.json")
    assert (plan.t_max, plan.n_instances) == (2 ** 13, 20)


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


@pytest.mark.parametrize("text, problem", [
    ("{}", "no plan object"),
    ('{"plan": {"base_seed": 0, "threshold": 0.1}}',
     "missing plan.epsilon_values, plan.W_values, plan.model, plan.n_instances, plan.t_max"),
    ('{"plan": {"base_s', "not valid JSON"),
    ("[1,2]", "expected a JSON object, got list"),
    # the sweep's own manifest with one plan field changed, refused by SweepPlan
    ({"base_seed": "7"}, "base_seed must be an integer, got '7'"),
    ({"t_max": 100}, "t_max must be a positive power of two, got 100"),
    # a plan field SweepPlan does not have; only an old manifest's budget is dropped
    ({"bogus": 1}, "unknown plan.bogus"),
    # json writes and reads NaN, which strict JSON parsers refuse
    ({"threshold": float("nan")}, "threshold must be finite, got nan"),
])
def test_fit_refuses_bad_manifest(capsys, tmp_path, text, problem):
    out_dir = tmp_path / "results"
    code, _, _ = run_cli(
        capsys, "sweep", "--epsilon", "0.9", "--W", "0.3", "--model", "hierarchical",
        "--instances", "2", "--t-max", "64", "--out-dir", str(out_dir),
    )
    assert code == 0
    manifest = out_dir / "manifest.json"
    if isinstance(text, dict):
        real = json.loads(manifest.read_text())
        real["plan"].update(text)
        text = json.dumps(real)
    manifest.write_text(text)
    code, out, err = run_cli(capsys, "fit", "--results-dir", str(out_dir))
    assert code == 1
    assert out == ""
    assert f"{manifest}: {problem}" in err


@pytest.mark.parametrize("keep", [lambda row: row.startswith("0.8,"), lambda row: False],
                         ids=["first_cell_only", "header_only"])
def test_fit_refuses_an_archive_that_is_not_the_plans(capsys, tmp_path, keep):
    out_dir = tmp_path / "results"
    code, _, _ = run_cli(
        capsys, "sweep", "--model", "hierarchical", "--epsilon", "0.8", "--epsilon", "0.6",
        "--W", "0.5", "--instances", "2", "--t-max", "256", "--out-dir", str(out_dir),
    )
    assert code == 0
    samples = out_dir / "samples.csv"
    header, *rows = samples.read_text().splitlines()
    samples.write_text("\n".join([header, *filter(keep, rows)]) + "\n")
    code, out, err = run_cli(capsys, "fit", "--results-dir", str(out_dir))
    assert code == 1
    assert out == ""
    assert (f"{samples} does not hold exactly the (epsilon, W, model, instance) records "
            f"of the plan in {out_dir / 'manifest.json'}") in err


@pytest.mark.parametrize("l", ["-1", "0"])
def test_rg_refuses_l_below_one(capsys, l):
    code, out, err = run_cli(capsys, "rg", "--l", l, "--epsilon", "0.7", "--z-re", "0.3")
    assert code == 1
    assert out == ""
    assert f"--l must be >= 1, got {l}" in err


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


def test_rg_reports_pole_proximal_row(capsys):
    field = field_from_config({"epsilon": "1.0", "half_width": "4"})
    th0, th1 = field.level_angle(0), field.level_angle(1)
    # z^2 = e^{-i th1} / cos th0 puts z on a pole of the l = 2 recursion's resolvent
    pole = cmath.sqrt((math.cos(th1) - 1j * math.sin(th1)) / math.cos(th0))
    code, out, _ = run_cli(
        capsys, "rg", "--l", "2", "--epsilon", "1.0", "--model", "none",
        "--z-re", repr(pole.real), "--z-im", repr(pole.imag), "--z-re", "0.3", "--z-im", "0.0",
    )
    assert code == 0
    header, pole_row, ok_row = out.strip().split("\n")
    assert pole_row == f"{pole.real!r},{pole.imag!r},pole_proximal,,,,,,,,"
    assert ok_row.startswith("0.3,0.0,ok,")
    assert [len(row.split(",")) for row in (header, pole_row, ok_row)] == [11, 11, 11]


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


def test_rg_rejects_unnormalized_spinor(capsys):
    code, out, err = run_cli(
        capsys, "rg", "--l", "3", "--epsilon", "0.6", "--z-re", "0.3", "--psi-ic", "1,1",
    )
    assert code == 1
    assert out == ""
    assert "normalized" in err


@pytest.mark.parametrize("flags, problem", [
    (("--half-width", "100"), "half_width must be a positive power of two"),
    (("--epsilon", "0.8"), "epsilon_values must be nonempty and free of repeats"),
    (("--W", "0.5"), "W_values must be nonempty and free of repeats"),
])
def test_sweep_refuses_bad_plan_before_running(capsys, tmp_path, flags, problem):
    out_dir = tmp_path / "results"
    code, _, err = run_cli(
        capsys, "sweep", "--epsilon", "0.8", "--W", "0.5", "--model", "hierarchical",
        "--instances", "1", "--t-max", "64", "--out-dir", str(out_dir), *flags,
    )
    assert code == 1
    assert problem in err
    assert not out_dir.exists()


def _refuse_to_run(plan, workers=None):
    raise AssertionError("the sweep ran before its inputs were checked")


@pytest.mark.parametrize("flags, problem", [
    (("--t-lo", "5000", "--t-hi", "6000"), "need at least 3 points in window [5000.0, 6000.0]"),
    (("--extrapolation", "0.8"), "--extrapolation expects 'epsilon,W'"),
    (("--extrapolation", "0.6,0.5"), "'0.6,0.5' is not a cell of the sweep grid"),
    (("--extrapolation", "abc,0.5"), "--extrapolation expects two numbers 'epsilon,W', got 'abc,0.5'"),
])
def test_sweep_checks_fit_window_and_tables_before_running(
    capsys, tmp_path, monkeypatch, flags, problem,
):
    monkeypatch.setattr("hierwalk.cli.run_sweep", _refuse_to_run)
    out_dir = tmp_path / "results"
    code, _, err = run_cli(
        capsys, "sweep", "--epsilon", "0.8", "--W", "0.5", "--model", "hierarchical",
        "--instances", "4", "--t-max", "8192", "--out-dir", str(out_dir), *flags,
    )
    assert code == 1
    assert problem in err
    assert not out_dir.exists()


def test_config_file_rejects_repeated_key(capsys, tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("epsilon = 0.8\nseed = 7\nepsilon = 0.6\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--t-max", "64")
    assert code == 1
    assert out == ""
    assert f"{cfg}:3: repeated key 'epsilon'" in err


def test_config_file_names_unconvertible_value(capsys, tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("epsilon = 0.8\nW =\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--t-max", "64")
    assert code == 1
    assert "config key W" in err


def test_fit_names_file_and_line_of_malformed_row(capsys, tmp_path):
    out_dir = tmp_path / "results"
    code, _, _ = run_cli(
        capsys, "sweep", "--epsilon", "0.8", "--W", "0.5", "--model", "hierarchical",
        "--instances", "1", "--t-max", "64", "--out-dir", str(out_dir),
    )
    assert code == 0
    samples = out_dir / "samples.csv"
    n_lines = len(samples.read_text().splitlines())
    with open(samples, "a") as f:
        f.write("0.8,0.5,hier")  # a row cut short mid-write
    code, out, err = run_cli(capsys, "fit", "--results-dir", str(out_dir))
    assert code == 1
    assert out == ""
    assert f"samples.csv:{n_lines + 1}: not enough values to unpack (expected 6, got 3)" in err


def test_fit_names_file_and_line_of_record_out_of_time_order(capsys, tmp_path):
    out_dir = tmp_path / "results"
    code, _, _ = run_cli(
        capsys, "sweep", "--epsilon", "0.8", "--W", "0.5", "--model", "hierarchical",
        "--instances", "1", "--t-max", "64", "--out-dir", str(out_dir),
    )
    assert code == 0
    samples = out_dir / "samples.csv"
    header, *rows = samples.read_text().splitlines()
    with open(samples, "a") as f:
        f.write("\n".join(rows) + "\n")  # the same run's rows appended a second time
    code, out, err = run_cli(capsys, "fit", "--results-dir", str(out_dir))
    assert code == 1
    assert out == ""
    assert "samples.csv:2: sample times must be strictly increasing" in err


def test_fit_names_file_and_line_of_non_finite_sigma(capsys, tmp_path):
    out_dir = tmp_path / "results"
    code, _, _ = run_cli(
        capsys, "sweep", "--epsilon", "0.8", "--W", "0.5", "--model", "hierarchical",
        "--instances", "1", "--t-max", "64", "--out-dir", str(out_dir),
    )
    assert code == 0
    samples = out_dir / "samples.csv"
    lines = samples.read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0] + ",nan"  # line 5: one sigma edited by hand
    samples.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "fit", "--results-dir", str(out_dir))
    assert code == 1
    assert out == ""
    assert "samples.csv:5: sigma must be finite, got 'nan'" in err


def _refuse_to_walk(*args, **kwargs):
    raise AssertionError("a walk ran before the spinor was checked")


@pytest.mark.parametrize("value", ["nan,0", "1,nanj", "0.6,infj"])
@pytest.mark.parametrize("command", ["simulate", "sweep", "rg"])
def test_non_finite_spinor_is_refused_before_any_walk(capsys, tmp_path, monkeypatch, command, value):
    monkeypatch.setattr("hierwalk.harness._run_instance", _refuse_to_walk)
    out_dir = tmp_path / "results"
    argv = {
        "simulate": ("simulate", "--epsilon", "0.8", "--t-max", "256"),
        "sweep": ("sweep", "--epsilon", "0.8", "--W", "0.5", "--model", "hierarchical",
                  "--instances", "2", "--t-max", "256", "--out-dir", str(out_dir)),
        "rg": ("rg", "--l", "3", "--epsilon", "0.6", "--z-re", "0.3"),
    }[command]
    code, out, err = run_cli(capsys, *argv, f"--psi-ic={value}")
    assert code == 1
    assert out == ""
    assert "initial spinor must be finite" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["simulate", "sweep", "fit"])
def test_non_finite_threshold_is_refused_before_any_walk_or_read(
    capsys, tmp_path, monkeypatch, command, value,
):
    monkeypatch.setattr("hierwalk.cli.run_sweep", _refuse_to_run)
    monkeypatch.setattr("hierwalk.cli.evolve", _refuse_to_run)
    monkeypatch.setattr("hierwalk.cli.read_manifest", _refuse_to_run)
    out_dir = tmp_path / "results"
    argv = {
        "simulate": ("simulate", "--epsilon", "0.8", "--t-max", "256"),
        "sweep": ("sweep", "--epsilon", "0.8", "--W", "0.5", "--model", "hierarchical",
                  "--instances", "2", "--t-max", "256", "--out-dir", str(out_dir)),
        "fit": ("fit", "--results-dir", str(out_dir)),
    }[command]
    code, out, err = run_cli(capsys, *argv, f"--threshold={value}")
    assert code == 1
    assert out == ""
    assert f"threshold must be finite, got {float(value)}" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("z", [
    ("--z-re", "0.1", "--z-re", "nan"),
    ("--z-re", "0.1", "--z-re", "inf"),
    ("--z-re", "0.1", "--z-im", "0.0", "--z-re", "0.3", "--z-im", "nan"),
], ids=["re_nan", "re_inf", "im_nan"])
def test_rg_refuses_non_finite_z_before_writing_a_row(capsys, tmp_path, z):
    out = tmp_path / "rg.csv"
    code, stdout, err = run_cli(capsys, "rg", "--l", "3", "--epsilon", "0.8", *z, "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert "z must be finite" in err
    assert not out.exists()


def test_parser_is_built_once_and_keeps_no_values_between_parses():
    from hierwalk.cli import build_parser

    parser = build_parser()
    assert build_parser() is parser
    argv = ["sweep", "--model", "none", "--W", "0", "--out-dir", "x"]
    first = parser.parse_args(argv + ["--epsilon", "0.8", "--epsilon", "0.6"])
    second = parser.parse_args(argv + ["--epsilon", "1.0"])
    assert first.epsilon == [0.8, 0.6]
    assert second.epsilon == [1.0]
    assert second.extrapolation is None
