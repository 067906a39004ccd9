import json
import math

import numpy as np
import pytest

from hierwalk import (
    InstanceRecord,
    SigmaSeries,
    SweepPlan,
    SweepResult,
    aggregate_cell,
    cells_from_archive,
    emit_extrapolation_table,
    emit_results,
    read_samples_csv,
    run_sweep,
)

FAST_PLAN = dict(
    epsilon_values=(1.0,),
    W_values=(0.0,),
    model="none",
    n_instances=1,
    base_seed=0,
    t_max=2 ** 10,
)


def small_disordered_plan(**overrides):
    base = dict(
        epsilon_values=(1.0, 0.8),
        W_values=(0.5,),
        model="hierarchical",
        n_instances=3,
        base_seed=100,
        t_max=2 ** 9,
    )
    base.update(overrides)
    return SweepPlan(**base)


def test_plan_validation():
    with pytest.raises(ValueError):
        SweepPlan(**{**FAST_PLAN, "t_max": 1000})  # not a power of two
    with pytest.raises(ValueError):
        SweepPlan(**{**FAST_PLAN, "epsilon_values": (1.5,)})
    with pytest.raises(ValueError):
        SweepPlan(**{**FAST_PLAN, "W_values": (4.0,)})
    with pytest.raises(ValueError):
        SweepPlan(**{**FAST_PLAN, "model": "white-noise"})
    with pytest.raises(ValueError):
        SweepPlan(**{**FAST_PLAN, "n_instances": 0})
    with pytest.raises(ValueError):
        SweepPlan(**{**FAST_PLAN, "half_width": 2 ** 9})  # smaller than t_max
    with pytest.raises(ValueError):
        SweepPlan(**{**FAST_PLAN, "psi_ic": (1.0, 1.0)})
    with pytest.raises(ValueError):
        SweepPlan(**{**FAST_PLAN, "psi_ic": (1,)})


def test_plan_instance_seeds_are_offsets():
    plan = SweepPlan(**FAST_PLAN)
    assert plan.instance_seed(0) == 0
    assert plan.instance_seed(7) == 7
    wrap = SweepPlan(**{**FAST_PLAN, "base_seed": 2 ** 64 - 1})
    assert wrap.instance_seed(1) == 0  # wraps at 2^64


def test_ballistic_single_cell():
    result = run_sweep(SweepPlan(**{**FAST_PLAN, "t_max": 2 ** 12}))
    cell = result.cells[0]
    assert cell.mean_inv_dw == pytest.approx(1.0, abs=0.05)
    assert cell.classification == "transporting"
    assert cell.n_instances == 1


def test_zero_disorder_instances_coincide():
    one = run_sweep(SweepPlan(**{**FAST_PLAN, "epsilon_values": (0.6,)}))
    five = run_sweep(SweepPlan(**{**FAST_PLAN, "epsilon_values": (0.6,), "n_instances": 5}))
    a, b = one.cells[0], five.cells[0]
    assert a.mean_inv_dw == b.mean_inv_dw
    assert b.stderr == 0.0  # identical instances have no spread
    for rec in five.archive:
        np.testing.assert_array_equal(rec.series.sigma, one.archive[0].series.sigma)


def test_budget_guard_refuses_with_estimate():
    plan = small_disordered_plan(budget=10)
    with pytest.raises(ValueError, match="amplitude updates"):
        run_sweep(plan)


def test_run_sweep_deterministic_across_runs_and_workers():
    plan = small_disordered_plan()
    a = run_sweep(plan, workers=1)
    b = run_sweep(plan, workers=1)
    c = run_sweep(plan, workers=2)
    assert a.cells == b.cells == c.cells
    for ra, rc in zip(a.archive, c.archive):
        np.testing.assert_array_equal(ra.series.sigma, rc.series.sigma)


def test_worker_count_env_var(monkeypatch):
    from hierwalk.harness import WORKERS_ENV

    plan = small_disordered_plan(n_instances=2)
    monkeypatch.setenv(WORKERS_ENV, "2")
    pooled = run_sweep(plan)
    monkeypatch.delenv(WORKERS_ENV)
    serial = run_sweep(plan)
    assert pooled.cells == serial.cells


@pytest.mark.parametrize("value", ["0", "-2", "two", "1.5"])
def test_worker_count_env_var_rejects_bad_values(monkeypatch, value):
    from hierwalk.harness import WORKERS_ENV

    monkeypatch.setenv(WORKERS_ENV, value)
    with pytest.raises(ValueError, match=WORKERS_ENV):
        run_sweep(SweepPlan(**FAST_PLAN))


def test_aggregation_matches_direct_recomputation():
    from hierwalk import extrapolation_points, fit_inv_dw

    plan = small_disordered_plan()
    result = run_sweep(plan)
    for cell in result.cells:
        series_list = result.instances(cell.epsilon, cell.W)
        stack = np.vstack([s.sigma for s in series_list])
        averaged = SigmaSeries(
            t=series_list[0].t, sigma=stack.mean(axis=0),
            epsilon=cell.epsilon, W=cell.W, model=plan.model, seed=0,
        )
        fit = fit_inv_dw(extrapolation_points(averaged))
        assert cell.mean_inv_dw == fit.inv_dw
        per = np.array([
            fit_inv_dw(extrapolation_points(s), fit.window).inv_dw for s in series_list
        ])
        assert cell.stderr == pytest.approx(per.std(ddof=1) / math.sqrt(len(per)), abs=1e-15)


def test_instance_order_permutation_invariance():
    plan = small_disordered_plan()
    result = run_sweep(plan)
    for cell in result.cells:
        series_list = result.instances(cell.epsilon, cell.W)
        shuffled = [series_list[i] for i in (2, 0, 1)]
        redo = aggregate_cell(cell.epsilon, cell.W, shuffled,
                              plan.fit_window, plan.threshold)
        assert redo.mean_inv_dw == pytest.approx(cell.mean_inv_dw, abs=1e-12)
        assert redo.stderr == pytest.approx(cell.stderr, abs=1e-12)
        assert redo.classification == cell.classification


def test_emit_results_files_and_rerun_bytes(tmp_path):
    plan = small_disordered_plan()
    result = run_sweep(plan)
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    emit_results(result, d1)
    emit_results(run_sweep(plan), d2)
    for name in ("cells.csv", "samples.csv", "manifest.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    header, *rows = (d1 / "cells.csv").read_text().strip().split("\n")
    assert header == "epsilon,W,mean_inv_dw,stderr,classification,n_instances"
    assert len(rows) == 2  # one per cell
    manifest = json.loads((d1 / "manifest.json").read_text())
    assert manifest["generator"] == "numpy PCG64"
    assert manifest["plan"]["base_seed"] == plan.base_seed
    assert manifest["plan"]["t_max"] == plan.t_max


def test_emit_results_archive_disabled(tmp_path):
    result = run_sweep(SweepPlan(**FAST_PLAN))
    written = emit_results(result, tmp_path / "out", include_archive=False)
    assert set(written) == {"cells", "manifest"}
    assert not (tmp_path / "out" / "samples.csv").exists()


def test_samples_roundtrip_and_refit(tmp_path):
    plan = small_disordered_plan()
    result = run_sweep(plan)
    emit_results(result, tmp_path)
    archive = read_samples_csv(tmp_path / "samples.csv", base_seed=plan.base_seed)
    assert len(archive) == len(result.archive)
    for orig, parsed in zip(result.archive, archive):
        assert parsed.epsilon == orig.epsilon
        assert parsed.W == orig.W
        assert parsed.instance == orig.instance
        assert parsed.series.seed == orig.series.seed
        np.testing.assert_array_equal(parsed.series.t, orig.series.t)
        np.testing.assert_array_equal(parsed.series.sigma, orig.series.sigma)
    cells = cells_from_archive(archive, plan.fit_window, plan.threshold)
    assert tuple(cells) == result.cells  # repr round-trip keeps floats exact


def test_cells_from_archive_rejects_mixed_models(tmp_path):
    path = tmp_path / "samples.csv"
    rows = ["epsilon,W,model,instance,t,sigma"]
    for model, instance in (("hierarchical", 0), ("extensive", 1)):
        rows += [f"0.8,0.5,{model},{instance},{t},{0.5 * t ** 0.5}" for t in (2, 4, 8, 16)]
    path.write_text("\n".join(rows) + "\n")
    archive = read_samples_csv(path)
    with pytest.raises(ValueError, match=r"epsilon=0\.8, W=0\.5.*mixes disorder models"):
        cells_from_archive(archive)
    # each model alone still aggregates
    assert len(cells_from_archive([r for r in archive if r.series.model == "extensive"])) == 1


def test_extrapolation_table_synthetic_diffusive(tmp_path):
    t = np.array([2, 4, 8, 16, 32, 64])
    series = SigmaSeries(t=t, sigma=np.sqrt(t.astype(float)),
                         epsilon=1.0, W=0.0, model="none", seed=0)
    rec = InstanceRecord(epsilon=1.0, W=0.0, instance=0, series=series)
    cell = aggregate_cell(1.0, 0.0, [series])
    plan = SweepPlan(**{**FAST_PLAN, "sample_times": tuple(int(x) for x in t), "t_max": 64})
    result = SweepResult(plan=plan, cells=(cell,), archive=(rec,))
    path = emit_extrapolation_table(result, 1.0, 0.0, tmp_path / "extrap.csv")
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,X,Y,Y_stderr,sigma_mean,sigma_stderr"
    for line in lines[1:]:
        y = float(line.split(",")[2])
        assert y == pytest.approx(0.5, abs=1e-12)


def test_extrapolation_table_unknown_cell(tmp_path):
    result = run_sweep(SweepPlan(**FAST_PLAN))
    with pytest.raises(ValueError):
        emit_extrapolation_table(result, 0.123, 0.0, tmp_path / "x.csv")


def test_extrapolation_table_rejects_empty(tmp_path):
    # all samples at t = 1 carry no extrapolation information
    series = SigmaSeries(t=np.array([1]), sigma=np.array([1.0]),
                         epsilon=1.0, W=0.0, model="none", seed=0)
    rec = InstanceRecord(epsilon=1.0, W=0.0, instance=0, series=series)
    plan = SweepPlan(**{**FAST_PLAN, "sample_times": (1,)})
    result = SweepResult(plan=plan, cells=(), archive=(rec,))
    with pytest.raises(ValueError):
        emit_extrapolation_table(result, 1.0, 0.0, tmp_path / "x.csv")


def test_emit_results_unwritable_destination(tmp_path):
    result = run_sweep(SweepPlan(**FAST_PLAN))
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    with pytest.raises(OSError, match="blocked"):
        emit_results(result, blocker / "out")
