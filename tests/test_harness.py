import dataclasses
import errno
import io
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

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
from hierwalk import ckernel, harness, walker
from hierwalk.harness import (
    CELLS_HEADER,
    SAMPLES_HEADER,
    PhaseCell,
    read_manifest,
    write_cells,
    write_csv,
    write_samples,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

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
    with pytest.raises(ValueError, match=r"sample_times must lie in \[1, 64\]"):
        SweepPlan(**{**FAST_PLAN, "t_max": 64, "sample_times": (8, 4096)})
    with pytest.raises(ValueError, match="power of two"):
        SweepPlan(**{**FAST_PLAN, "half_width": 2000})
    with pytest.raises(ValueError, match="epsilon_values must be nonempty and free of repeats"):
        SweepPlan(**{**FAST_PLAN, "epsilon_values": (0.8, 0.6, 0.8)})
    with pytest.raises(ValueError, match="W_values must be nonempty and free of repeats"):
        SweepPlan(**{**FAST_PLAN, "W_values": (0.5, 0.5)})
    with pytest.raises(ValueError, match="base_seed must be an integer, got 7.0"):
        SweepPlan(**{**FAST_PLAN, "base_seed": 7.0})
    with pytest.raises(ValueError, match="threshold must be a number, got '0.1'"):
        SweepPlan(**{**FAST_PLAN, "threshold": "0.1"})
    with pytest.raises(ValueError, match="threshold must be a number, got True"):
        SweepPlan(**{**FAST_PLAN, "threshold": True})
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"threshold must be finite, got {value}"):
            SweepPlan(**{**FAST_PLAN, "threshold": value})


@pytest.mark.parametrize("name", ["epsilon_values", "W_values", "fit_window"])
@pytest.mark.parametrize("flag", [True, np.True_])
def test_plan_grids_refuse_booleans_by_name(name, flag):
    """True is not 1.0: a grid or window holding one is refused, not read as epsilon or W = 1."""
    values = {"epsilon_values": (0.8, flag), "W_values": (flag,), "fit_window": (flag, 8)}[name]
    with pytest.raises(ValueError, match=f"{name} must be a sequence of numbers, got"):
        SweepPlan(**{**FAST_PLAN, name: values})


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


def test_run_sweep_deterministic_across_runs_and_workers():
    plan = small_disordered_plan()
    a = run_sweep(plan, workers=1)
    b = run_sweep(plan, workers=1)
    c = run_sweep(plan, workers=2)
    assert a.cells == b.cells == c.cells
    for ra, rc in zip(a.archive, c.archive):
        np.testing.assert_array_equal(ra.series.sigma, rc.series.sigma)


def test_numpy_loop_run_sweep_deterministic_across_runs_and_workers(monkeypatch):
    monkeypatch.setattr(walker, "_load_kernel", lambda: None)  # forked workers inherit it
    test_run_sweep_deterministic_across_runs_and_workers()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_sweep_starts_at_most_one_worker_per_job(monkeypatch):
    forks = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    plan = small_disordered_plan(epsilon_values=(0.8,), n_instances=4)
    serial = run_sweep(plan, workers=1)
    assert forks == []
    assert run_sweep(plan, workers=8).cells == serial.cells
    assert len(forks) == 4
    assert run_sweep(plan, workers=3).cells == serial.cells
    assert len(forks) == 7
    run_sweep(small_disordered_plan(epsilon_values=(0.8,), n_instances=1), workers=8)
    assert len(forks) == 7  # one job runs here, without a fork
    assert_no_child_left()


def test_workers_inherit_the_loop_the_caller_loaded(tmp_path, monkeypatch):
    log = tmp_path / "opened"
    open_library = ckernel._open

    def logging_open(path):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return open_library(path)

    monkeypatch.setattr(ckernel, "_open", logging_open)
    ckernel.load.cache_clear()
    try:
        run_sweep(small_disordered_plan(), workers=2)
    finally:
        ckernel.load.cache_clear()
    assert set(log.read_text().split()) == {str(os.getpid())}


def test_worker_exception_reaches_the_caller(monkeypatch):
    run_instance = harness._run_instance

    def failing(plan, key):
        if key[2] == 2:
            raise ValueError(f"no walk for instance {key[2]}")
        return run_instance(plan, key)

    monkeypatch.setattr(harness, "_run_instance", failing)
    with pytest.raises(ValueError, match="no walk for instance 2") as err:
        run_sweep(small_disordered_plan(), workers=2)
    remote = str(err.value.__cause__)
    assert "in sweep worker" in remote and "in failing" in remote  # the worker's traceback
    assert_no_child_left()


class Unloadable(Exception):
    """Pickles, but does not unpickle: its args hold the message only."""

    def __init__(self, message, extra):
        super().__init__(message)


def test_unpicklable_worker_exception_keeps_its_type_and_message(monkeypatch):
    def failing(plan, key):
        raise Unloadable("kept message", 1)

    monkeypatch.setattr(harness, "_run_instance", failing)
    with pytest.raises(RuntimeError, match="Unloadable: kept message"):
        run_sweep(small_disordered_plan(), workers=2)
    assert_no_child_left()


def test_failing_worker_stops_the_others(monkeypatch):
    run_instance = harness._run_instance

    def jobs(plan, key):
        if key[2] == 0:
            time.sleep(60)  # the other worker takes instance 1 meanwhile
        if key[2] == 1:
            raise ValueError("instance 1 failed")
        return run_instance(plan, key)

    monkeypatch.setattr(harness, "_run_instance", jobs)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="instance 1 failed"):
        run_sweep(small_disordered_plan(epsilon_values=(0.8,)), workers=2)
    assert time.perf_counter() - start < 30  # the sleeping worker was killed, not awaited
    assert_no_child_left()


def run_python(code, *args):
    """Lines printed by `code` in a child interpreter; a run that hangs fails on the timeout.

    The interpreter leads its own process group, so a timeout kills its sweep workers too.
    """
    with subprocess.Popen([sys.executable, "-c", code, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True,
                          env={**os.environ, "PYTHONPATH": SRC}) as proc:
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    assert proc.returncode == 0, err
    return out.splitlines()


SHARED_JOB_PIPE = """
import os, sys
from hierwalk import harness

def job(i):
    fd = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    os.write(fd, f"{i}\\n".encode())  # one O_APPEND write per job: lines never interleave
    os.close(fd)
    return i * i

print(harness._fork_map(job, 5000, 8) == [i * i for i in range(5000)])
"""


def test_more_workers_than_cores_take_each_job_exactly_once(tmp_path):
    # 5000 indices fill five PIPE_BUF writes to the job pipe that 8 workers share
    log = tmp_path / "jobs.log"
    assert run_python(SHARED_JOB_PIPE, str(log)) == ["True"]
    assert sorted(int(line) for line in log.read_text().split()) == list(range(5000))


DYING_WORKER = """
import os, signal
from hierwalk import SweepPlan, harness, run_sweep

def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return "no child left"
    return "a child is left"

plan = SweepPlan(epsilon_values=(1.0, 0.8), W_values=(0.5,), model="hierarchical",
                 n_instances=3, base_seed=100, t_max=2 ** 9)
run_sweep(plan, workers=2)
print(no_child_left())
run_instance = harness._run_instance

def dying(plan, key):
    if key[2] == 1:
        {death}
    return run_instance(plan, key)

harness._run_instance = dying
try:
    run_sweep(plan, workers=2)
except RuntimeError as exc:
    print(exc)
print(no_child_left())
"""


@pytest.mark.parametrize("death, status", [
    ("os._exit(3)", "exit code 3"),
    ("os.kill(os.getpid(), signal.SIGKILL)", "signal SIGKILL"),
])
def test_dead_worker_raises_instead_of_hanging(death, status):
    clean, died, clean_after = run_python(DYING_WORKER.format(death=death))
    assert "died without sending its results" in died and status in died
    assert clean == clean_after == "no child left"


def test_several_workers_need_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(harness, "_run_instance", None)  # fails if a walk starts
    with pytest.raises(ValueError, match=r"os\.fork.*HIERWALK_WORKERS=1"):
        run_sweep(small_disordered_plan(), workers=2)


def test_worker_count_env_var(monkeypatch):
    from hierwalk.harness import WORKERS_ENV

    plan = small_disordered_plan(n_instances=2)
    monkeypatch.setenv(WORKERS_ENV, "2")
    pooled = run_sweep(plan)
    monkeypatch.delenv(WORKERS_ENV)
    serial = run_sweep(plan)
    assert pooled.cells == serial.cells


@pytest.mark.parametrize("value", ["0", "-2", "two", "1.5", "1_0", " 2 "])
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
        averaged = SigmaSeries(t=series_list[0].t, sigma=stack.mean(axis=0))
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
    assert manifest["environment"] == {"light_cone_kernel": walker.light_cone_kernel(),
                                       "light_cone_isa": walker.light_cone_isa(),
                                       "light_cone_trim": walker._TINY,
                                       "python": platform.python_version(),
                                       "numpy": np.__version__}


def test_manifest_names_the_numpy_fallback_and_outputs_keep_their_bytes(tmp_path, monkeypatch):
    plan = small_disordered_plan()
    emit_results(run_sweep(plan), tmp_path / "default")
    monkeypatch.setattr(walker, "_load_kernel", lambda: None)
    emit_results(run_sweep(plan), tmp_path / "numpy")
    manifest = json.loads((tmp_path / "numpy" / "manifest.json").read_text())
    assert manifest["environment"]["light_cone_kernel"] == "numpy"
    assert manifest["environment"]["light_cone_isa"] is None
    for name in ("cells.csv", "samples.csv"):
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "numpy" / name).read_bytes()


def test_write_csv_writes_numpy_scalars_like_python_ones():
    f = io.StringIO()
    write_csv(f, "a,b,c,d,e,f", [(0.1, np.float64(0.1), np.int64(8), 3, "ok", "")])
    assert f.getvalue() == "a,b,c,d,e,f\n0.1,0.1,8,3,ok,\n"


def test_integer_cell_coordinates_are_written_as_floats():
    series = SigmaSeries(t=np.array([2, 4, 8, 16]), sigma=np.array([1.0, 2.0, 4.0, 8.0]))
    f = io.StringIO()
    write_cells(f, [aggregate_cell(1, 0, [series])])
    write_samples(f, [InstanceRecord(epsilon=1, W=0, model="none", instance=0, series=series)])
    rows = f.getvalue().splitlines()
    assert rows[1].startswith("1.0,0.0,") and rows[3] == "1.0,0.0,none,0,2,1.0"


def test_cells_header_follows_phase_cell_fields():
    # write_cells writes each PhaseCell's fields in declaration order
    assert CELLS_HEADER.split(",") == [f.name for f in dataclasses.fields(PhaseCell)]


def test_instance_record_follows_the_samples_columns():
    # one samples.csv row is a record's fields, then one (t, sigma) sample of its series
    names = [f.name for f in dataclasses.fields(InstanceRecord)]
    assert names[-1] == "series"
    assert SAMPLES_HEADER.split(",") == names[:-1] + ["t", "sigma"]


def test_records_and_results_compare_and_hash_by_identity():
    plan = SweepPlan(**FAST_PLAN)
    a, b = run_sweep(plan), run_sweep(plan)
    for x, y in ((a, b), (a.archive[0], b.archive[0])):
        assert x == x and x != y  # == raised ValueError on the arrays they hold
        assert len({x, y, x}) == 2 and hash(x) == hash(x)


def test_manifest_plan_is_the_sweep_plan(tmp_path):
    plan = small_disordered_plan(n_instances=1, t_max=2 ** 6, fit_window=(8, 64),
                                 psi_ic=(0.6, 0.8j))
    emit_results(run_sweep(plan), tmp_path)
    path = tmp_path / "manifest.json"
    assert read_manifest(path) == plan
    manifest = json.loads(path.read_text())
    del manifest["environment"]["light_cone_trim"]  # as written before the trim was named
    manifest["plan"]["budget"] = 10 ** 12  # as written before the cost limit was retired
    path.write_text(json.dumps(manifest))
    assert read_manifest(path) == plan


@pytest.mark.parametrize("changes, problem", [
    ({"n_instances": "2"}, "n_instances must be an integer, got '2'"),
    ({"t_max": True}, "t_max must be an integer, got True"),
    ({"psi_ic": 5}, "psi_ic must be a list of [re, im] pairs, got 5"),
    ({"epsilon_values": "0.8"}, "epsilon_values must be a sequence of numbers, got '0.8'"),
    ({"sample_times": [2, 4.5, 8]}, "sample_times must be a sequence of integers, got [2, 4.5, 8]"),
    ({"fit_window": 8}, "fit_window must be a sequence of numbers, got 8"),
    # every unknown field is named, sorted; an old manifest's budget is dropped first
    ({"zeta": 1, "budget": 10, "alpha": None}, "unknown plan.alpha, plan.zeta"),
], ids=["n_instances", "t_max_bool", "psi_ic", "epsilon_values", "sample_times", "fit_window",
        "two_unknown"])
def test_read_manifest_names_a_mistyped_field(tmp_path, changes, problem):
    manifest = harness._plan_manifest(small_disordered_plan(t_max=2 ** 6))
    manifest["plan"].update(changes)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError) as err:
        read_manifest(path)
    assert str(err.value) == f"{path}: {problem}"


def test_samples_roundtrip_and_refit(tmp_path):
    plan = small_disordered_plan()
    result = run_sweep(plan)
    emit_results(result, tmp_path)
    archive = read_samples_csv(tmp_path / "samples.csv")
    assert len(archive) == len(result.archive)
    for orig, parsed in zip(result.archive, archive):
        assert parsed.epsilon == orig.epsilon
        assert parsed.W == orig.W
        assert parsed.model == orig.model == plan.model
        assert parsed.instance == orig.instance
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
    assert len(cells_from_archive([r for r in archive if r.model == "extensive"])) == 1


def test_extrapolation_table_synthetic_diffusive(tmp_path):
    t = np.array([2, 4, 8, 16, 32, 64])
    series = SigmaSeries(t=t, sigma=np.sqrt(t.astype(float)))
    rec = InstanceRecord(epsilon=1.0, W=0.0, model="none", instance=0, series=series)
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
    series = SigmaSeries(t=np.array([1]), sigma=np.array([1.0]))
    rec = InstanceRecord(epsilon=1.0, W=0.0, model="none", instance=0, series=series)
    # a plan cannot hold this grid (its fit window would be empty); the table reads only the archive
    result = SweepResult(plan=SweepPlan(**FAST_PLAN), cells=(), archive=(rec,))
    with pytest.raises(ValueError):
        emit_extrapolation_table(result, 1.0, 0.0, tmp_path / "x.csv")


def test_emit_results_unwritable_destination(tmp_path):
    result = run_sweep(SweepPlan(**FAST_PLAN))
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    with pytest.raises(OSError, match="blocked"):
        emit_results(result, blocker / "out")


def test_emit_results_failing_write_keeps_the_earlier_sweep(tmp_path, monkeypatch):
    plan = small_disordered_plan()
    emit_results(run_sweep(plan), tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["cells.csv", "manifest.json", "samples.csv"]

    def full_disk(f, archive):
        f.write("epsilon,W")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(harness, "write_samples", full_disk)
    with pytest.raises(OSError, match="cannot write results under .*No space left on device"):
        emit_results(run_sweep(small_disordered_plan(base_seed=7)), tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_plan_refuses_fit_window_with_too_few_samples():
    with pytest.raises(ValueError, match="at least 3 points"):
        SweepPlan(**{**FAST_PLAN, "t_max": 2 ** 13, "fit_window": (5000, 6000)})
    with pytest.raises(ValueError, match="at least 3 points"):  # the default window
        SweepPlan(**{**FAST_PLAN, "t_max": 64, "sample_times": (2, 32, 64)})
    plan = SweepPlan(**{**FAST_PLAN, "t_max": 64, "sample_times": (1, 2, 4, 8)})
    assert plan.sample_times == (1, 2, 4, 8)  # window [0.5, 8] holds 2, 4 and 8


@pytest.mark.parametrize("row, problem", [
    ("0.8,0.5,hier", r"not enough values to unpack \(expected 6, got 3\)"),
    ("0.8,0.5,hierarchical,0,x,1.0", "invalid literal"),
])
def test_read_samples_csv_names_malformed_line(tmp_path, row, problem):
    path = tmp_path / "samples.csv"
    path.write_text("epsilon,W,model,instance,t,sigma\n0.8,0.5,hierarchical,0,2,1.0\n" + row + "\n")
    with pytest.raises(ValueError, match=f"samples.csv:3: {problem}"):
        read_samples_csv(path)
