"""Disorder-instance sweeps over the (epsilon, W) plane with reproducible seeding.

A sweep evolves n_instances independent disorder realizations per grid cell,
averages sigma(t) over instances at each sample time, fits the extrapolation
line to the averaged series, and classifies each cell. Instance m of every
cell uses seed base_seed + m, so a plan pins every random draw; results are
byte-identical across reruns and worker counts.

With more than one worker, jobs run in child processes forked with os.fork,
which take job indices from one shared pipe and send their results back
through a pipe each. A worker's exception is raised in the caller, a worker
that dies without reporting is an error, and no child outlives the sweep.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import platform
import select
import selectors
import signal
import traceback
from dataclasses import asdict, astuple, dataclass, fields, replace
from itertools import product
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import __version__
from .coins import _MASK64, CoinField, DisorderSpec, _integer, require_epsilon, require_power_of_two
from .observables import (
    DEFAULT_THRESHOLD,
    SigmaSeries,
    classify_estimate,
    extrapolation_points,
    fit_inv_dw,
    require_threshold,
    select_fit_window,
)
from .walker import (
    _TINY,
    DEFAULT_IC,
    _as_spinor,
    _validated_sample_times,
    default_sample_times,
    evolve,
    light_cone_isa,
    light_cone_kernel,
)

WORKERS_ENV = "HIERWALK_WORKERS"

CELLS_HEADER = "epsilon,W,mean_inv_dw,stderr,classification,n_instances"
SAMPLES_HEADER = "epsilon,W,model,instance,t,sigma"
EXTRAPOLATION_HEADER = "t,X,Y,Y_stderr,sigma_mean,sigma_stderr"

PRESETS = {
    "desk": {"t_max": 2 ** 13, "n_instances": 20},
    "paper": {"t_max": 2 ** 16, "n_instances": 50},
}


def _items(name: str, values, kind) -> tuple:
    """values as a tuple, refused by name unless it is a sequence (not a string) of kind, bools excluded."""
    try:
        items = tuple(values)
    except TypeError:
        items = None
    # bool is an Integral and so a Real: True would pass as 1 or 1.0
    if items is None or isinstance(values, str) or not all(
            isinstance(v, kind) and not isinstance(v, bool) for v in items):
        noun = "integers" if kind is Integral else "numbers"
        raise ValueError(f"{name} must be a sequence of {noun}, got {values!r}")
    return items


@dataclass(frozen=True)
class SweepPlan:
    """Everything that determines a sweep, and therefore its outputs.

    A field of the wrong type is refused with a message that names it.
    """

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

    def __post_init__(self) -> None:
        for name in ("epsilon_values", "W_values"):
            values = tuple(float(v) for v in _items(name, getattr(self, name), Real))
            if not values or len(set(values)) != len(values):
                raise ValueError(f"{name} must be nonempty and free of repeats, got {values}")
            object.__setattr__(self, name, values)
        try:
            psi = _as_spinor(self.psi_ic)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"psi_ic: {exc}") from None
        object.__setattr__(self, "psi_ic", tuple(complex(a) for a in psi))
        for e in self.epsilon_values:
            require_epsilon(e)
        for w in self.W_values:
            DisorderSpec(self.model, w)
        if self.half_width is None:
            object.__setattr__(self, "half_width", self.t_max)
        for name in ("n_instances", "base_seed", "t_max", "half_width"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.n_instances < 1:
            raise ValueError("n_instances must be >= 1")
        require_threshold(self.threshold)
        require_power_of_two("t_max", self.t_max)
        require_power_of_two("half_width", self.half_width)
        if self.t_max > self.half_width:
            raise ValueError(f"t_max {self.t_max} exceeds half_width {self.half_width}")
        if self.sample_times is None:
            object.__setattr__(self, "sample_times", default_sample_times(self.t_max))
        ts = _validated_sample_times(_items("sample_times", self.sample_times, Integral), self.t_max)
        object.__setattr__(self, "sample_times", tuple(int(t) for t in ts))
        if self.fit_window is not None:
            window = _items("fit_window", self.fit_window, Real)
            if len(window) != 2:
                raise ValueError(f"fit_window must be a pair (t_lo, t_hi), got {self.fit_window!r}")
            object.__setattr__(self, "fit_window", tuple(float(v) for v in window))
        select_fit_window(ts[ts >= 2], self.fit_window)  # refuse a window the fit cannot use

    def instance_seed(self, instance: int) -> int:
        return (self.base_seed + instance) & _MASK64


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

    def instances(self, epsilon: float, W: float) -> list[SigmaSeries]:
        out = [r.series for r in self.archive if r.epsilon == epsilon and r.W == W]
        if not out:
            raise ValueError(f"no cell (epsilon={epsilon}, W={W}) in this sweep")
        return out


def _run_instance(plan: SweepPlan, key) -> SigmaSeries:
    epsilon, W, m = key
    spec = DisorderSpec(model=plan.model, W=W, seed=plan.instance_seed(m))
    field = CoinField(epsilon, spec, plan.half_width)
    return evolve(field, np.array(plan.psi_ic), plan.t_max, plan.sample_times)


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
    averaged = replace(series_list[0], sigma=mean_sigma)
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
        epsilon=float(epsilon),
        W=float(W),
        mean_inv_dw=fit.inv_dw,
        stderr=stderr,
        classification=classify_estimate(fit.inv_dw, stderr, threshold),
        n_instances=n,
    )


def _env_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    # ASCII digits only: int() also takes signs, spaces, underscores and other scripts' digits
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def _fork_map(run, n_jobs: int, workers: int) -> list:
    """[run(i) for i in range(n_jobs)], computed in `workers` forked children.

    Job indices go out through one pipe, 4 bytes each; every worker reads them
    one at a time until EOF. A read under PIPE_BUF is atomic, so each job goes
    to exactly one worker, whichever is free. At EOF a worker pickles its
    (index, result) pairs into its own result pipe, which is read as data
    arrives. The first worker exception to arrive is raised here; a worker
    that dies without reporting raises RuntimeError naming its wait status.
    Every child is reaped, or killed and reaped, before this returns or raises.
    """
    jobs_r, jobs_w = os.pipe()
    fds = {jobs_r, jobs_w}  # open in this process

    def close(fd):
        os.close(fd)
        fds.discard(fd)

    pids = {}  # read end of a worker's result pipe -> its pid, until reaped
    try:
        for _ in range(workers):
            res_r, res_w = os.pipe()
            fds |= {res_r, res_w}
            pid = os.fork()
            if pid == 0:
                _worker(run, jobs_r, jobs_w, res_w)  # never returns
            pids[res_r] = pid
            close(res_w)
        close(jobs_r)  # with no reader left, a write fails instead of blocking
        data = b"".join(i.to_bytes(4, "little") for i in range(n_jobs))
        try:
            for start in range(0, len(data), select.PIPE_BUF):
                os.write(jobs_w, data[start:start + select.PIPE_BUF])
        except BrokenPipeError:  # every worker has died; their wait statuses say how
            pass
        close(jobs_w)
        merged = {}
        with selectors.DefaultSelector() as selector:
            for fd in pids:
                selector.register(fd, selectors.EVENT_READ, [])
            while selector.get_map():
                for key, _ in selector.select():
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        key.data.append(chunk)
                        continue
                    selector.unregister(key.fd)
                    close(key.fd)
                    pid = pids.pop(key.fd)
                    status = os.waitpid(pid, 0)[1]
                    merged.update(_worker_results(pid, status, b"".join(key.data)))
        return [merged[i] for i in range(n_jobs)]
    finally:
        for pid in pids.values():  # left only when something raised
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _worker_results(pid: int, status: int, payload: bytes) -> list:
    """The (index, result) pairs a reaped worker sent, or the error it sent or died of."""
    if status != 0 or not payload:
        code = os.waitstatus_to_exitcode(status)
        how = f"exit code {code}" if code >= 0 else f"signal {signal.Signals(-code).name}"
        raise RuntimeError(f"sweep worker {pid} died without sending its results "
                           f"(wait status {status}: {how})")
    ok, value = pickle.loads(payload)
    if not ok:
        exc, remote = value
        raise exc from RuntimeError(f"in sweep worker {pid}:\n{remote}")
    return value


def _worker(run, jobs_r: int, jobs_w: int, res_w: int) -> None:
    """Body of a forked sweep worker: run jobs from the job pipe, report, os._exit."""
    status = 1
    try:
        os.close(jobs_w)  # else the job pipe never reaches EOF
        try:
            done = []
            while len(raw := os.read(jobs_r, 4)) == 4:
                i = int.from_bytes(raw, "little")
                done.append((i, run(i)))
            payload = pickle.dumps((True, done))
        except Exception as exc:  # reported to the parent, which raises it
            remote = traceback.format_exc()
            try:
                payload = pickle.dumps((False, (exc, remote)))
                pickle.loads(payload)
            except Exception:  # e.g. an __init__ that needs more than the exception's args
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                payload = pickle.dumps((False, (exc, remote)))
        with open(res_w, "wb") as f:
            f.write(payload)
        status = 0
    finally:
        os._exit(status)  # never unwind into the caller or flush inherited buffers


def run_sweep(plan: SweepPlan, workers: int | None = None) -> SweepResult:
    """Run every (cell, instance) job of the plan and aggregate per cell.

    Cells come from the instance archive through cells_from_archive, the code
    `hierwalk fit` runs on a samples.csv, so a refit reproduces them exactly.

    Jobs are independent; with workers > 1 (or the HIERWALK_WORKERS environment
    variable) they run in at most one forked worker per job (see _fork_map).
    Results are merged in (cell, instance) order regardless of scheduling, so
    outputs never depend on the worker count.
    """
    if workers is None:
        workers = _env_workers()
    keys = list(product(plan.epsilon_values, plan.W_values, range(plan.n_instances)))
    workers = min(workers, len(keys))  # a worker with no job would only cost its fork
    if workers > 1:
        if not hasattr(os, "fork"):
            raise ValueError(f"{workers} sweep workers need os.fork, which this platform "
                             f"lacks; set {WORKERS_ENV}=1")
        # numpy loads numpy.random lazily, at the first draw, and walker the
        # compiled loop at the first walk. Loaded here, each is loaded once,
        # and forked workers inherit them instead of each loading them at its
        # first instance. `import hierwalk` loads neither, so that runs that
        # fork no worker do not pay for them up front.
        import numpy.random  # noqa: F401
        light_cone_kernel()
        series = _fork_map(lambda i: _run_instance(plan, keys[i]), len(keys), workers)
    else:
        series = [_run_instance(plan, key) for key in keys]
    archive = tuple(
        InstanceRecord(epsilon=e, W=w, instance=m, series=s)
        for (e, w, m), s in zip(keys, series)
    )
    cells = cells_from_archive(archive, plan.fit_window, plan.threshold)
    return SweepResult(plan=plan, cells=tuple(cells), archive=archive)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_csv(f, header: str, rows) -> None:
    """Write the header line, then each row's fields joined by commas, to an open text file.

    A float field (numpy's float scalars included) is written with repr, the
    shortest round-trip form; every other field as str.
    """
    f.write(header + "\n")
    for row in rows:
        f.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def write_cells(f, cells) -> None:
    """Write the cells CSV (header and one row per PhaseCell) to an open text file."""
    write_csv(f, CELLS_HEADER, (astuple(c) for c in cells))


def write_samples(f, archive) -> None:
    """Write the samples CSV (header and one row per sample of each InstanceRecord)."""
    write_csv(f, SAMPLES_HEADER, (
        (float(rec.epsilon), float(rec.W), rec.series.model, rec.instance, t, sig)
        for rec in archive for t, sig in zip(rec.series.t, rec.series.sigma)
    ))


def _plan_manifest(plan: SweepPlan) -> dict:
    return {
        "artifact": "hierwalk",
        "version": __version__,
        "generator": "numpy PCG64",
        "seed_rule": "instance seed = (base_seed + instance_index) mod 2^64",
        "plan": {**asdict(plan), "psi_ic": [[a.real, a.imag] for a in plan.psi_ic]},
        # sweep workers load the kernel from the same cache as this process; the clone
        # it runs (None on the numpy loop) sets its speed, not its bytes; the trim
        # threshold tau only moves the last bits of sigma, so a refit ignores it
        "environment": {"light_cone_kernel": light_cone_kernel(), "light_cone_isa": light_cone_isa(),
                        "light_cone_trim": _TINY,
                        "python": platform.python_version(), "numpy": np.__version__},
    }


def read_manifest(path) -> SweepPlan:
    """The SweepPlan a manifest.json was written from; a file that holds none is refused by path."""
    try:
        with open(path) as f:
            manifest = json.load(f)
    except ValueError as exc:  # malformed JSON or text
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(manifest).__name__}")
    plan = manifest.get("plan")
    if not isinstance(plan, dict):
        raise ValueError(f"{path}: no plan object")
    plan.pop("budget", None)  # older manifests carry the retired cost limit; it decided no output
    names = [f.name for f in fields(SweepPlan)]
    unknown = sorted(f"plan.{name}" for name in plan.keys() - set(names))
    if unknown:
        raise ValueError(f"{path}: unknown {', '.join(unknown)}")
    missing = [f"plan.{name}" for name in names if name not in plan]
    if missing:  # refused even where SweepPlan has a default: a value is never guessed
        raise ValueError(f"{path}: missing {', '.join(missing)}")
    pairs = plan["psi_ic"]
    if not (isinstance(pairs, list) and all(
            isinstance(p, list) and len(p) == 2 and all(isinstance(v, Real) for v in p)
            for p in pairs)):
        raise ValueError(f"{path}: psi_ic must be a list of [re, im] pairs, got {pairs!r}")
    try:
        return SweepPlan(**{**plan, "psi_ic": [complex(*pair) for pair in pairs]})
    except (TypeError, ValueError) as exc:  # a field SweepPlan refuses by name
        raise ValueError(f"{path}: {exc}") from exc


def emit_results(result: SweepResult, out_dir) -> dict:
    """Write cells.csv, the samples.csv archive and manifest.json.

    Floats are written with repr (shortest round-trip), so identical plans give
    byte-identical files, and `hierwalk fit` rebuilds cells.csv from the other
    two. Each file is written to a temporary file beside it, and the three
    are renamed into place only once all are written: a write that fails
    leaves the files of an earlier sweep as they were, and no temporary file.
    Returns the paths written, keyed by file kind.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create results directory {out}: {exc}") from exc
    written = {"cells": out / "cells.csv", "samples": out / "samples.csv",
               "manifest": out / "manifest.json"}
    # opened as a new file is, with the umask's mode rather than mkstemp's 0600
    temps = {kind: out / f".{path.name}.{os.getpid()}.tmp" for kind, path in written.items()}
    try:
        with open(temps["cells"], "w", newline="") as f:
            write_cells(f, result.cells)
        with open(temps["samples"], "w", newline="") as f:
            write_samples(f, result.archive)
        with open(temps["manifest"], "w", newline="") as f:
            json.dump(_plan_manifest(result.plan), f, indent=2, sort_keys=True)
            f.write("\n")
        for kind, tmp in temps.items():
            os.replace(tmp, written[kind])
    except OSError as exc:
        raise OSError(f"cannot write results under {out}: {exc}") from exc
    finally:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)
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
            write_csv(f, EXTRAPOLATION_HEADER,
                      zip(grid[keep], 1.0 / log_t, y, y_se, mean_sigma, s_se))
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
        for lineno, line in enumerate(f, 2):
            line = line.strip()
            if not line:
                continue
            try:
                eps_s, w_s, model, inst_s, t_s, sig_s = line.split(",")
                _, ts, sigs = rows.setdefault(
                    (float(eps_s), float(w_s), model, int(inst_s)), (lineno, [], []))
                ts.append(int(t_s))
                sigs.append(float(sig_s))
                if not math.isfinite(sigs[-1]):  # here, to name its line; SigmaSeries names the record's first
                    raise ValueError(f"sigma must be finite, got {sig_s!r}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    records = []
    for (eps, w, model, inst), (first_line, ts, sigs) in rows.items():
        try:
            series = SigmaSeries(
                t=np.array(ts), sigma=np.array(sigs),
                epsilon=eps, W=w, model=model, seed=(base_seed + inst) & _MASK64,
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{first_line}: {exc}") from exc
        records.append(InstanceRecord(epsilon=eps, W=w, instance=inst, series=series))
    return tuple(records)
