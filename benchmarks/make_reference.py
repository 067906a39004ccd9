"""Regenerate benchmarks/reference.json: sigma(t) series and cell classifications.

    python3 benchmarks/make_reference.py

The reference is computed serially, through the library calls rather than the
CLI, for the default seed 0 and the held-out seed 1 of the phase_scan and
ballistic_clean workloads. A run of the benchmark with one of these seeds
compares its outputs with it (sigma to 1e-9 relative, classifications
identical). Regenerate it only when a change is meant to move these numbers,
and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from hierwalk import (  # noqa: E402
    DEFAULT_IC, CoinField, DisorderSpec, SweepPlan, evolve, run_sweep,
)
from workloads import BallisticClean, PhaseScan, cell_key, series_key  # noqa: E402

SEEDS = (0, 1)


def phase_scan(seed: int) -> dict:
    sigma, classification = {}, {}
    for model, eps_values, w_values in PhaseScan.SWEEPS:
        plan = SweepPlan(epsilon_values=eps_values, W_values=w_values, model=model,
                         n_instances=PhaseScan.INSTANCES, base_seed=seed,
                         t_max=PhaseScan.T_MAX)
        result = run_sweep(plan, workers=1)
        for rec in result.archive:
            sigma[series_key(model, rec.epsilon, rec.W, rec.instance)] = [
                [int(t), float(s)] for t, s in zip(rec.series.t, rec.series.sigma)]
        for cell in result.cells:
            classification[cell_key(model, cell.epsilon, cell.W)] = cell.classification
    return {"sigma": sigma, "classification": classification}


def ballistic_clean(seed: int) -> dict:
    t_max = BallisticClean.T_MAX
    field = CoinField(1.0, DisorderSpec(model="none", W=0.0, seed=seed), t_max)
    series = evolve(field, DEFAULT_IC, t_max)
    return {"sigma": {series_key("none", 1.0, 0.0, 0): [
        [int(t), float(s)] for t, s in zip(series.t, series.sigma)]}}


def main() -> None:
    ref = {
        "phase_scan": {str(s): phase_scan(s) for s in SEEDS},
        "ballistic_clean": {str(s): ballistic_clean(s) for s in SEEDS},
    }
    (BENCH / "reference.json").write_text(json.dumps(ref, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
