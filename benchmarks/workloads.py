"""The benchmark's workloads: inputs drawn from a seed, one timed repetition, checks.

Each workload builds its inputs in setup(), runs one repetition in rep() (the
only timed part), and checks that repetition's outputs in check(). An
operation is one disorder instance (phase_scan, ballistic_clean) or one z-point
comparison (rg_crosscheck); it fails if it raises, if the CLI refuses the plan,
or if its output falls outside tolerance.

Why these three:

- phase_scan is the lab's main job, a scan of the (epsilon, W) plane at
  t_max = 2^13 through `hierwalk sweep` with a two-worker pool, each sweep
  refitted by `hierwalk fit`. Its light cone is sparse, so support trimming,
  the kernel's update rate and pool fan-out decide its time; it writes and
  reads the CSV archive.
- ballistic_clean is one serial `hierwalk simulate` of the Hadamard walk at
  t_max = 2^14. Its cone is fully dense and about a fifth of its amplitudes are
  subnormal; no pool runs. Trimming and fan-out are bypassed here, so the
  prediction for them is no change: per-update arithmetic decides the time.
- rg_crosscheck compares the absorbing-wall walk's generating function with
  the shift-matrix recursion at many |z| <= 0.5. It is the only workload that
  runs rgflow and the fixed-width absorbing kernel, which pays the per-step
  overhead over many narrow steps.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hierwalk import (
    DEFAULT_IC,
    CoinField,
    DisorderSpec,
    PoleProximalError,
    absorbed_amplitude,
    cli,
    evolve,
    evolve_absorbing,
    evolve_state,
    sigma,
)

from spans import NullTracer

SIGMA_RTOL = 1e-9      # reference sigma(t), relative
BALLISTIC_TOL = 0.05   # |1/d_w - 1| on the Hadamard walk (acceptance criterion 1)
RG_TOL = 1e-8          # recursion vs simulated generating function (criterion 6)


@dataclass
class Outcome:
    attempted: int
    failed: int
    details: dict = field(default_factory=dict)


def run_cli(tracer, argv) -> tuple[int, str]:
    """Call hierwalk.cli.main in-process; return its exit code and captured stdout."""
    buf = io.StringIO()
    with tracer.span("cli.main", command=argv[0]), contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def nominal_cone_updates(t_max: int) -> int:
    """Amplitude updates of a light-cone run, counted from its size: sum of widths t."""
    return t_max * (t_max + 1) // 2


def cone_working_set_bytes(t_max: int, half_width: int) -> int:
    """Computed kernel footprint: six complex buffers of t_max + 1 plus the sin/cos tables."""
    return 6 * 16 * (t_max + 1) + 2 * 8 * (2 * half_width + 1)


def read_series_csv(path) -> dict:
    """(model, epsilon, W, instance) -> list of (t, sigma) from a samples/series CSV."""
    out: dict = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            key = (row["model"], float(row["epsilon"]), float(row["W"]), int(row["instance"]))
            out.setdefault(key, []).append((int(row["t"]), float(row["sigma"])))
    return out


def cell_key(model, epsilon, W) -> str:
    return f"{model},{float(epsilon)!r},{float(W)!r}"


def series_key(model, epsilon, W, instance) -> str:
    return f"{cell_key(model, epsilon, W)},{int(instance)}"


def series_ok(points, ref) -> bool:
    """Intrinsic: finite, inside the light cone, positive; and within SIGMA_RTOL of ref."""
    if not points:
        return False
    for t, s in points:
        if not (math.isfinite(s) and 0.0 < s <= t + 1e-9):
            return False
    if ref is None:
        return True
    if [t for t, _ in points] != [t for t, _ in ref]:
        return False
    return all(abs(s - r) <= SIGMA_RTOL * abs(r) for (_, s), (_, r) in zip(points, ref))


def final_state_shares(field_: CoinField, t_max: int) -> dict:
    """Zero and subnormal shares of the final amplitudes, norm drift, and sigma cost."""
    state = evolve_state(field_, DEFAULT_IC, t_max)
    amps = np.concatenate([state.up, state.down])
    tiny = np.finfo(float).tiny
    sub = [(x != 0) & (np.abs(x) < tiny) for x in (amps.real, amps.imag)]
    calls = []
    for _ in range(21):
        t0 = time.perf_counter()
        sigma(state)
        calls.append(time.perf_counter() - t0)
    return {
        "slots": int(amps.size),
        "nonzero": int(np.count_nonzero(amps)),
        "subnormal": int(np.count_nonzero(sub[0] | sub[1])),
        "norm_drift": abs(1.0 - state.norm()),
        "sigma_us": statistics.median(calls) * 1e6,
    }


def cone_step_overhead_us(field_: CoinField) -> float:
    """Fixed per-step cost of the light-cone kernel, from short runs of `evolve`.

    A run of t steps costs about c + a t + b t(t+1)/2; least squares over short
    runs, where the per-step term dominates, gives the per-step overhead a.
    """
    ts = [t for t in (16, 32, 64, 128, 256, 512) if t <= field_.half_width]
    evolve(field_, DEFAULT_IC, ts[0], (ts[0],))  # builds the field's trig tables
    best = [math.inf] * len(ts)
    for _ in range(15):  # interleaved, so a slow spell of the machine hits every t
        for i, t in enumerate(ts):
            t0 = time.perf_counter()
            evolve(field_, DEFAULT_IC, t, (t,))
            best[i] = min(best[i], time.perf_counter() - t0)
    rows = [(1.0, t, t * (t + 1) / 2) for t in ts]
    coef = np.linalg.lstsq(np.array(rows), np.array(best), rcond=None)[0]
    return float(coef[1]) * 1e6


class Workload:
    name = ""
    workers = 0          # pool processes a repetition starts
    ops_per_rep = 0
    nominal_updates = 0  # amplitude updates per repetition, computed from the inputs
    zpoints_per_rep = 0

    def __init__(self, seed: int, scratch: Path, reference: dict | None):
        self.seed = seed
        self.scratch = Path(scratch)
        self.reference = reference

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def rep(self, tracer):
        raise NotImplementedError

    def check(self, raw) -> Outcome:
        raise NotImplementedError

    def probe(self) -> dict:
        """Per-layer facts the spans cannot show (traced runs only)."""
        return {}


class PhaseScan(Workload):
    name = "phase_scan"
    T_MAX = 2 ** 13
    INSTANCES = 4
    # (model, epsilon values, W values)
    SWEEPS = (
        ("hierarchical", (0.8, 0.6), (0.5, 1.0)),
        ("extensive", (1.0,), (math.pi / 4,)),
    )

    def __init__(self, seed, scratch, reference, t_max=T_MAX, workers=None):
        super().__init__(seed, scratch, reference)
        self.t_max = t_max
        self.workers = workers or min(2, len(os.sched_getaffinity(0)))

    def setup(self):
        os.environ["HIERWALK_WORKERS"] = str(self.workers)
        self.argv = [(model, self._sweep_argv(model, eps_values, w_values, self.t_max))
                     for model, eps_values, w_values in self.SWEEPS]
        cells = sum(len(eps_values) * len(w_values) for _, eps_values, w_values in self.SWEEPS)
        self.ops_per_rep = cells * self.INSTANCES
        self.nominal_updates = self.ops_per_rep * nominal_cone_updates(self.t_max)

    def _sweep_argv(self, model, eps_values, w_values, t_max):
        argv = ["sweep", "--model", model, "--instances", str(self.INSTANCES),
                "--t-max", str(t_max), "--base-seed", str(self.seed)]
        for e in eps_values:
            argv += ["--epsilon", repr(float(e))]
        for w in w_values:
            argv += ["--W", repr(float(w))]
        return argv

    def warmup(self):
        with tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
            for model, eps_values, w_values in self.SWEEPS:
                out = Path(tmp) / model
                argv = self._sweep_argv(model, eps_values, w_values, min(self.t_max, 1024))
                run_cli(NullTracer(), argv + ["--out-dir", str(out)])
                run_cli(NullTracer(), ["fit", "--results-dir", str(out)])

    def rep(self, tracer):
        tmp = Path(tempfile.mkdtemp(dir=self.scratch))
        runs = []
        for model, argv in self.argv:
            out = tmp / model
            code, _ = run_cli(tracer, argv + ["--out-dir", str(out)])
            fit_code, fit_out = run_cli(tracer, ["fit", "--results-dir", str(out)])
            runs.append((model, out, code, fit_code, fit_out))
        return tmp, runs

    def check(self, raw) -> Outcome:
        tmp, runs = raw
        try:
            failed = sum(self._check_sweep(*run) for run in runs)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return Outcome(self.ops_per_rep, failed)

    def _check_sweep(self, model, out, code, fit_code, fit_out) -> int:
        """Failed instances of one sweep."""
        _, eps_values, w_values = next(s for s in self.SWEEPS if s[0] == model)
        n_ops = len(eps_values) * len(w_values) * self.INSTANCES
        if code != 0 or fit_code != 0:
            return n_ops
        cells_text = (out / "cells.csv").read_text()
        cells = {(float(r["epsilon"]), float(r["W"])): r
                 for r in csv.DictReader(io.StringIO(cells_text))}
        # `hierwalk fit` on the archive must reproduce cells.csv byte for byte
        refit_ok = fit_out == cells_text
        series = read_series_csv(out / "samples.csv")
        ref = self.reference or {}
        failed = 0
        for e in eps_values:
            for w in w_values:
                cell = cells.get((float(e), float(w)))
                ref_class = ref.get("classification", {}).get(cell_key(model, e, w))
                cell_ok = refit_ok and cell is not None and (
                    ref_class is None or cell["classification"] == ref_class)
                for m in range(self.INSTANCES):
                    key = series_key(model, e, w, m)
                    ok = cell_ok and series_ok(series.get((model, float(e), float(w), m)),
                                               ref.get("sigma", {}).get(key))
                    failed += not ok
        return failed

    def probe(self):
        fields = []
        for model, eps_values, w_values in self.SWEEPS:
            for e in eps_values:
                for w in w_values:
                    spec = DisorderSpec(model=model, W=w, seed=self.seed)
                    fields.append((f"{model} eps={e:g} W={w:.4g}",
                                   CoinField(e, spec, self.t_max)))
        shares = {label: final_state_shares(f, self.t_max) for label, f in fields}
        return {
            "cone_shares": shares,
            "step_overhead_us": cone_step_overhead_us(fields[0][1]),
            "working_set_bytes": cone_working_set_bytes(self.t_max, self.t_max),
        }


class BallisticClean(Workload):
    name = "ballistic_clean"
    T_MAX = 2 ** 14

    def __init__(self, seed, scratch, reference, t_max=T_MAX):
        super().__init__(seed, scratch, reference)
        self.t_max = t_max

    def setup(self):
        self.ops_per_rep = 1
        self.nominal_updates = nominal_cone_updates(self.t_max)
        self.argv = ["simulate", "--epsilon", "1.0", "--model", "none",
                     "--t-max", str(self.t_max), "--seed", str(self.seed)]

    def warmup(self):
        # Full size: after a quarter-size warm-up the first timed runs were still slow.
        with tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
            run_cli(NullTracer(), self.argv + ["--series-out", str(Path(tmp) / "s.csv")])

    def rep(self, tracer):
        tmp = Path(tempfile.mkdtemp(dir=self.scratch))
        path = tmp / "series.csv"
        code, out = run_cli(tracer, self.argv + ["--series-out", str(path)])
        return tmp, path, code, out

    def check(self, raw) -> Outcome:
        tmp, path, code, out = raw
        try:
            ok = code == 0 and self._ok(path, out)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return Outcome(1, int(not ok))

    def _ok(self, path, out) -> bool:
        kv = dict(line.split("=", 1) for line in out.split() if "=" in line)
        inv_dw = float(kv.get("inv_dw", "nan"))
        if not abs(inv_dw - 1.0) <= BALLISTIC_TOL:
            return False
        points = read_series_csv(path).get(("none", 1.0, 0.0, 0))
        key = series_key("none", 1.0, 0.0, 0)
        return series_ok(points, (self.reference or {}).get("sigma", {}).get(key))

    def probe(self):
        hadamard = CoinField(1.0, DisorderSpec(), self.t_max)
        half = self.t_max // 2
        return {
            "cone_shares": {f"none eps=1 t={self.t_max}": final_state_shares(hadamard, self.t_max)},
            "other_shares": {f"none eps=1 t={half}": final_state_shares(hadamard, half)},
            "step_overhead_us": cone_step_overhead_us(hadamard),
            "working_set_bytes": cone_working_set_bytes(self.t_max, self.t_max),
        }


class RGCrossCheck(Workload):
    name = "rg_crosscheck"
    LEVELS = (4, 8, 12)
    FIELDS_PER_LEVEL = 6
    Z_PER_FIELD = 40
    STEPS = 256  # |z|^STEPS <= 2^-256: truncating the series is far below RG_TOL

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.cases = []
        for l in self.LEVELS:
            for _ in range(self.FIELDS_PER_LEVEL):
                eps = float(rng.uniform(0.3, 1.0))
                W = float(rng.uniform(0.0, math.pi))
                fseed = int(rng.integers(0, 2 ** 32))
                r = 0.5 * np.sqrt(rng.uniform(0.0, 1.0, self.Z_PER_FIELD))
                phi = rng.uniform(0.0, 2 * math.pi, self.Z_PER_FIELD)
                zs = [complex(z) for z in r * np.exp(1j * phi)]
                self.cases.append((l, eps, W, fseed, zs))
        self.ops_per_rep = self.zpoints_per_rep = len(self.cases) * self.Z_PER_FIELD
        self.nominal_updates = sum(((1 << l) - 1) * self.STEPS for l, *_ in self.cases)

    def warmup(self):
        self.check(self._run(NullTracer(), self.cases[:: self.FIELDS_PER_LEVEL]))

    def rep(self, tracer):
        return self._run(tracer, self.cases)

    def _run(self, tracer, cases):
        results = []
        for l, eps, W, fseed, zs in cases:
            field_ = CoinField(eps, DisorderSpec(model="hierarchical", W=W, seed=fseed), 1 << l)
            with tracer.span("walker.evolve_absorbing", l=l, steps=self.STEPS,
                             updates=((1 << l) - 1) * self.STEPS):
                rec = evolve_absorbing(field_, l, DEFAULT_IC, self.STEPS)
            pairs = []
            for z in zs:
                with tracer.span("walker.generating_function"):
                    sim = rec.generating_function(z)
                try:
                    with tracer.span("rgflow.absorbed_amplitude", levels=l):
                        rg = absorbed_amplitude(l, field_, z, DEFAULT_IC)
                except PoleProximalError:
                    rg = None
                pairs.append((sim, rg))
            results.append((rec, pairs))
        return results

    def probe(self):
        # computed footprint of the widest walk: two complex rows of 2^l + 1,
        # sin/cos of the 2^l - 1 interior sites, two (STEPS, 2) complex records
        span = 1 << max(self.LEVELS)
        return {"working_set_bytes": 2 * 16 * (span + 1) + 2 * 8 * (span - 1)
                + 2 * 16 * 2 * self.STEPS}

    def check(self, raw) -> Outcome:
        attempted = failed = poles = 0
        worst = 0.0
        drift = 0.0
        for rec, pairs in raw:
            absorbed = float(rec.cumulative_absorbed()[-1])
            drift = max(drift, absorbed - 1.0)
            for sim, rg in pairs:
                attempted += 1
                if rg is None:
                    poles += 1
                    failed += 1
                    continue
                diff = max(float(np.abs(a - b).max()) for a, b in zip(sim, rg))
                worst = max(worst, diff)
                # absorbed probability above 1 would mean the walk gained norm
                failed += not (diff < RG_TOL and absorbed <= 1.0 + 1e-12)
        return Outcome(attempted, failed, {"pole_proximal": poles, "max_abs_diff": worst,
                                           "norm_drift": max(drift, 0.0)})


WORKLOADS = {w.name: w for w in (PhaseScan, BallisticClean, RGCrossCheck)}
