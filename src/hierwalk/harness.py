"""Disorder-instance sweeps over the (epsilon, W) plane with reproducible seeding.

A sweep evolves n_instances independent disorder realizations per grid cell,
averages sigma(t) over instances at each sample time, fits the extrapolation
line to the averaged series, and classifies each cell. Instance m of every
cell uses seed base_seed + m, so a plan pins every random draw; results are
byte-identical across reruns and worker counts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import __version__
from .coins import _MASK64, CoinField, DisorderSpec, DISORDER_MODELS
from .observables import (
    DEFAULT_THRESHOLD,
    SigmaSeries,
    classify_estimate,
    extrapolation_points,
    fit_inv_dw,
)
from .walker import DEFAULT_IC, default_sample_times, evolve

WORKERS_ENV = "HIERWALK_WORKERS"

DEFAULT_BUDGET = 10 ** 12  # amplitude updates; one full-scale cell fits comfortably

CELLS_HEADER = "epsilon,W,mean_inv_dw,stderr,classification,n_instances"
SAMPLES_HEADER = "epsilon,W,model,instance,t,sigma"

PRESETS = {
    "desk": {"t_max": 2 ** 13, "n_instances": 20},
    "paper": {"t_max": 2 ** 16, "n_instances": 50},
}


@dataclass(frozen=True)
class SweepPlan:
    """Everything that determines a sweep, and therefore its outputs."""

    epsilon_values: tuple
    W_values: tuple
    model: str
    n_instances: int
    base_seed: int
    t_max: int
    psi_ic: tuple = (complex(DEFAULT_IC[0]), complex(DEFAULT_IC[1]))
    half_width: int | None = None
    sample_times: tuple | None = None
    fit_window: tuple | None = None
    threshold: float = DEFAULT_THRESHOLD
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon_values", tuple(float(e) for e in self.epsilon_values))
        object.__setattr__(self, "W_values", tuple(float(w) for w in self.W_values))
        object.__setattr__(self, "psi_ic", tuple(complex(a) for a in self.psi_ic))
        if not self.epsilon_values or not self.W_values:
            raise ValueError("epsilon_values and W_values must be nonempty")
        for e in self.epsilon_values:
            if not 0.0 < e <= 1.0:
                raise ValueError(f"epsilon must lie in (0, 1], got {e}")
        for w in self.W_values:
            if not 0.0 <= w <= math.pi:
                raise ValueError(f"W must lie in [0, pi], got {w}")
        if self.model not in DISORDER_MODELS:
            raise ValueError(f"unknown disorder model {self.model!r}")
        if self.n_instances < 1:
            raise ValueError("n_instances must be >= 1")
        if self.t_max < 1 or self.t_max & (self.t_max - 1):
            raise ValueError(f"t_max must be a power of two, got {self.t_max}")
        if self.half_width is None:
            object.__setattr__(self, "half_width", self.t_max)
        if self.t_max > self.half_width:
            raise ValueError(f"t_max {self.t_max} exceeds half_width {self.half_width}")
        if self.sample_times is None:
            object.__setattr__(self, "sample_times", default_sample_times(self.t_max))
        else:
            object.__setattr__(self, "sample_times", tuple(int(t) for t in self.sample_times))
        if self.fit_window is not None:
            lo, hi = self.fit_window
            object.__setattr__(self, "fit_window", (float(lo), float(hi)))
        psi = self.psi_ic
        if len(psi) != 2 or abs(abs(psi[0]) ** 2 + abs(psi[1]) ** 2 - 1.0) > 1e-9:
            raise ValueError("psi_ic must be a normalized 2-component spinor")

    def instance_seed(self, instance: int) -> int:
        return (self.base_seed + instance) & _MASK64

    def estimated_updates(self) -> int:
        cells = len(self.epsilon_values) * len(self.W_values)
        return cells * self.n_instances * self.t_max ** 2


@dataclass(frozen=True)
class PhaseCell:
    """Aggregated transport estimate for one (epsilon, W) grid cell."""

    epsilon: float
    W: float
    mean_inv_dw: float
    stderr: float
    classification: str
    n_instances: int


@dataclass(frozen=True)
class InstanceRecord:
    epsilon: float
    W: float
    instance: int
    series: SigmaSeries


@dataclass(frozen=True)
class SweepResult:
    plan: SweepPlan
    cells: tuple
    archive: tuple

    def cell(self, epsilon: float, W: float) -> PhaseCell:
        for c in self.cells:
            if c.epsilon == epsilon and c.W == W:
                return c
        raise ValueError(f"no cell (epsilon={epsilon}, W={W}) in this sweep")

    def instances(self, epsilon: float, W: float) -> list[SigmaSeries]:
        out = [r.series for r in self.archive if r.epsilon == epsilon and r.W == W]
        if not out:
            raise ValueError(f"no cell (epsilon={epsilon}, W={W}) in this sweep")
        return out


def _run_instance(job) -> SigmaSeries:
    epsilon, W, model, seed, half_width, psi_ic, t_max, sample_times = job
    field = CoinField(epsilon, DisorderSpec(model=model, W=W, seed=seed), half_width)
    return evolve(field, np.array(psi_ic), t_max, sample_times)


def aggregate_cell(
    epsilon: float,
    W: float,
    series_list: list[SigmaSeries],
    fit_window=None,
    threshold: float = DEFAULT_THRESHOLD,
) -> PhaseCell:
    """Average sigma over instances at each sample time, fit, and classify.

    The cell estimate is the intercept fitted to the instance-averaged series.
    Its standard error is the spread of per-instance intercepts / sqrt(n); a
    single-instance cell falls back to the OLS intercept error of its own fit.
    """
    if not series_list:
        raise ValueError("cannot aggregate an empty cell")
    grid = series_list[0].t
    for s in series_list[1:]:
        if not np.array_equal(s.t, grid):
            raise ValueError("instances of one cell must share the sample grid")
    stack = np.vstack([s.sigma for s in series_list])  # instance-index order
    mean_sigma = stack.mean(axis=0)
    averaged = SigmaSeries(
        t=grid.copy(),
        sigma=mean_sigma,
        epsilon=epsilon,
        W=W,
        model=series_list[0].model,
        seed=series_list[0].seed,
    )
    fit = fit_inv_dw(extrapolation_points(averaged), fit_window)
    n = len(series_list)
    if n >= 2:
        per_instance = np.array(
            [fit_inv_dw(extrapolation_points(s), fit.window).inv_dw for s in series_list]
        )
        stderr = float(per_instance.std(ddof=1) / math.sqrt(n))
    else:
        stderr = fit.stderr
    return PhaseCell(
        epsilon=epsilon,
        W=W,
        mean_inv_dw=fit.inv_dw,
        stderr=stderr,
        classification=classify_estimate(fit.inv_dw, stderr, threshold),
        n_instances=n,
    )


def _env_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    message = f"{WORKERS_ENV} must be a positive integer, got {raw!r}"
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if workers < 1:
        raise ValueError(message)
    return workers


def run_sweep(plan: SweepPlan, workers: int | None = None) -> SweepResult:
    """Run every (cell, instance) job of the plan and aggregate per cell.

    Jobs are independent; with workers > 1 (or the HIERWALK_WORKERS environment
    variable) they run in a process pool. Results are merged in (cell, instance)
    order regardless of scheduling, so outputs never depend on the worker count.
    """
    estimate = plan.estimated_updates()
    if estimate > plan.budget:
        raise ValueError(
            f"refusing sweep: estimated {estimate:.3e} amplitude updates exceeds "
            f"budget {plan.budget:.3e}; raise the budget to proceed"
        )
    if workers is None:
        workers = _env_workers()
    jobs = [
        (e, w, plan.model, plan.instance_seed(m), plan.half_width,
         plan.psi_ic, plan.t_max, plan.sample_times)
        for e in plan.epsilon_values
        for w in plan.W_values
        for m in range(plan.n_instances)
    ]
    if workers > 1:
        with Pool(workers) as pool:
            series = pool.map(_run_instance, jobs)
    else:
        series = [_run_instance(j) for j in jobs]
    cells = []
    archive = []
    idx = 0
    for e in plan.epsilon_values:
        for w in plan.W_values:
            chunk = series[idx:idx + plan.n_instances]
            idx += plan.n_instances
            cells.append(aggregate_cell(e, w, chunk, plan.fit_window, plan.threshold))
            archive.extend(
                InstanceRecord(epsilon=e, W=w, instance=m, series=s)
                for m, s in enumerate(chunk)
            )
    return SweepResult(plan=plan, cells=tuple(cells), archive=tuple(archive))


def _fmt(x: float) -> str:
    return repr(float(x))


def write_cells(f, cells) -> None:
    """Write the cells CSV (header and one row per PhaseCell) to an open text file."""
    f.write(CELLS_HEADER + "\n")
    for c in cells:
        f.write(
            f"{_fmt(c.epsilon)},{_fmt(c.W)},{_fmt(c.mean_inv_dw)},"
            f"{_fmt(c.stderr)},{c.classification},{c.n_instances}\n"
        )


def write_samples(f, archive) -> None:
    """Write the samples CSV (header and one row per sample of each InstanceRecord)."""
    f.write(SAMPLES_HEADER + "\n")
    for rec in archive:
        s = rec.series
        for t, sig in zip(s.t, s.sigma):
            f.write(
                f"{_fmt(rec.epsilon)},{_fmt(rec.W)},{s.model},"
                f"{rec.instance},{int(t)},{_fmt(sig)}\n"
            )


def _plan_manifest(plan: SweepPlan) -> dict:
    return {
        "artifact": "hierwalk",
        "version": __version__,
        "generator": "numpy PCG64",
        "seed_rule": "instance seed = (base_seed + instance_index) mod 2^64",
        "plan": {
            "epsilon_values": list(plan.epsilon_values),
            "W_values": list(plan.W_values),
            "model": plan.model,
            "n_instances": plan.n_instances,
            "base_seed": plan.base_seed,
            "t_max": plan.t_max,
            "half_width": plan.half_width,
            "psi_ic": [[a.real, a.imag] for a in plan.psi_ic],
            "sample_times": list(plan.sample_times),
            "fit_window": list(plan.fit_window) if plan.fit_window else None,
            "threshold": plan.threshold,
            "budget": plan.budget,
        },
    }


def emit_results(result: SweepResult, out_dir, include_archive: bool = True) -> dict:
    """Write cells.csv, manifest.json, and (optionally) the samples.csv archive.

    Floats are written with repr (shortest round-trip), so identical plans give
    byte-identical files. Returns the paths written, keyed by file kind.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create results directory {out}: {exc}") from exc
    written = {}
    try:
        cells_path = out / "cells.csv"
        with open(cells_path, "w", newline="") as f:
            write_cells(f, result.cells)
        written["cells"] = cells_path
        if include_archive:
            samples_path = out / "samples.csv"
            with open(samples_path, "w", newline="") as f:
                write_samples(f, result.archive)
            written["samples"] = samples_path
        manifest_path = out / "manifest.json"
        with open(manifest_path, "w", newline="") as f:
            json.dump(_plan_manifest(result.plan), f, indent=2, sort_keys=True)
            f.write("\n")
        written["manifest"] = manifest_path
    except OSError as exc:
        raise OSError(f"cannot write results under {out}: {exc}") from exc
    return written


def emit_extrapolation_table(result: SweepResult, epsilon: float, W: float, out_path) -> Path:
    """Write the extrapolation-plot table for one cell.

    Columns: t, X = 1/log t, Y = log(mean sigma)/log t, the spread of the
    per-instance Y values (stderr over instances), and the same pair for sigma
    itself. Rows with t < 2 or a vanishing sigma in any instance are dropped,
    matching the fit's own point selection.
    """
    series_list = result.instances(epsilon, W)
    grid = series_list[0].t
    stack = np.vstack([s.sigma for s in series_list])
    n = stack.shape[0]
    keep = (grid >= 2) & (stack > 0).all(axis=0)
    if not np.any(keep):
        raise ValueError(f"cell (epsilon={epsilon}, W={W}) has no usable samples")
    t = grid[keep].astype(float)
    log_t = np.log(t)
    mean_sigma = stack[:, keep].mean(axis=0)
    ys = np.log(stack[:, keep]) / log_t
    y = np.log(mean_sigma) / log_t
    if n >= 2:
        y_se = ys.std(axis=0, ddof=1) / math.sqrt(n)
        s_se = stack[:, keep].std(axis=0, ddof=1) / math.sqrt(n)
    else:
        y_se = np.zeros_like(y)
        s_se = np.zeros_like(y)
    path = Path(out_path)
    try:
        with open(path, "w", newline="") as f:
            f.write("t,X,Y,Y_stderr,sigma_mean,sigma_stderr\n")
            for tv, *rest in zip(t, 1.0 / log_t, y, y_se, mean_sigma, s_se):
                f.write(f"{int(tv)}," + ",".join(_fmt(v) for v in rest) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write extrapolation table {path}: {exc}") from exc
    return path


def cells_from_archive(
    archive,
    fit_window=None,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[PhaseCell]:
    """Re-aggregate phase cells from instance records (e.g. a parsed samples.csv).

    A cell whose records come from more than one disorder model is refused.
    """
    groups = {}  # insertion order is first-appearance order
    for rec in archive:
        groups.setdefault((rec.epsilon, rec.W), []).append(rec)
    cells = []
    for key, recs in groups.items():
        models = sorted({r.series.model for r in recs})
        if len(models) > 1:
            raise ValueError(
                f"cell (epsilon={key[0]}, W={key[1]}) mixes disorder models {models}"
            )
        recs = sorted(recs, key=lambda r: r.instance)
        cells.append(
            aggregate_cell(key[0], key[1], [r.series for r in recs], fit_window, threshold)
        )
    return cells


def read_samples_csv(path, base_seed: int = 0) -> tuple:
    """Parse a samples.csv archive back into InstanceRecords.

    Seeds are reconstructed as base_seed + instance; pass the base seed from the
    run manifest to recover the original metadata exactly.
    """
    rows = {}  # insertion order is first-appearance order
    with open(path, newline="") as f:
        header = f.readline().strip()
        if header != SAMPLES_HEADER:
            raise ValueError(f"unrecognized samples header in {path}: {header!r}")
        for line in f:
            line = line.strip()
            if not line:
                continue
            eps_s, w_s, model, inst_s, t_s, sig_s = line.split(",")
            ts, sigs = rows.setdefault((float(eps_s), float(w_s), model, int(inst_s)), ([], []))
            ts.append(int(t_s))
            sigs.append(float(sig_s))
    records = []
    for (eps, w, model, inst), (ts, sigs) in rows.items():
        series = SigmaSeries(
            t=np.array(ts), sigma=np.array(sigs),
            epsilon=eps, W=w, model=model, seed=(base_seed + inst) & _MASK64,
        )
        records.append(InstanceRecord(epsilon=eps, W=w, instance=inst, series=series))
    return tuple(records)
