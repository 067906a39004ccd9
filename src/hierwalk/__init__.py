"""Numerical lab for 1d discrete-time quantum walks over a hierarchy of coin barriers.

Coin angles decay geometrically with the binary hierarchy level of each site,
optionally randomized per level (sub-extensive) or per site (extensive). The
package evolves walks, measures RMS-displacement scaling to estimate the walk
dimension, sweeps the (barrier, randomness) plane for phase classification,
and iterates the exact renormalized shift-matrix recursion as an independent
cross-check on wall-absorption amplitudes.
"""

__version__ = "0.1.0"

from .coins import (
    THETA0,
    CoinField,
    DisorderSpec,
    HierarchyIndex,
    build_coin,
    draw_base_angles,
    field_from_config,
    hierarchy_index,
)
from .observables import (
    FitResult,
    SigmaSeries,
    classify,
    classify_estimate,
    extrapolation_points,
    fit_inv_dw,
    predicted_inv_dw,
    sigma,
)
from .walker import (
    DEFAULT_IC,
    AbsorptionRecord,
    WaveState,
    default_sample_times,
    evolve,
    evolve_absorbing,
    evolve_state,
)
from .rgflow import PoleProximalError, RGTriple, absorbed_amplitude, rg_init, rg_step
from .harness import (
    PRESETS,
    InstanceRecord,
    PhaseCell,
    SweepPlan,
    SweepResult,
    aggregate_cell,
    cells_from_archive,
    emit_extrapolation_table,
    emit_results,
    read_samples_csv,
    run_sweep,
)

__all__ = [
    "__version__",
    "THETA0",
    "CoinField",
    "DisorderSpec",
    "HierarchyIndex",
    "build_coin",
    "draw_base_angles",
    "field_from_config",
    "hierarchy_index",
    "FitResult",
    "SigmaSeries",
    "classify",
    "classify_estimate",
    "extrapolation_points",
    "fit_inv_dw",
    "predicted_inv_dw",
    "sigma",
    "DEFAULT_IC",
    "AbsorptionRecord",
    "WaveState",
    "default_sample_times",
    "evolve",
    "evolve_absorbing",
    "evolve_state",
    "PoleProximalError",
    "RGTriple",
    "absorbed_amplitude",
    "rg_init",
    "rg_step",
    "PRESETS",
    "InstanceRecord",
    "PhaseCell",
    "SweepPlan",
    "SweepResult",
    "aggregate_cell",
    "cells_from_archive",
    "emit_extrapolation_table",
    "emit_results",
    "read_samples_csv",
    "run_sweep",
]
