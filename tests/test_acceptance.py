"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The disorder-averaged criteria run the full desk-scale protocol
(t_max = 2^13, 20-50 instances) and take a few minutes in total.
"""

import math

import numpy as np

from hierwalk import (
    DEFAULT_IC,
    CoinField,
    DisorderSpec,
    SweepPlan,
    absorbed_amplitude,
    emit_results,
    evolve_absorbing,
    evolve_state,
    fit_inv_dw,
    predicted_inv_dw,
    run_sweep,
)

from angle_oracle import hierarchy_index

BASE_SEED = 20240


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _single_cell(epsilon, W, model, n_instances, t_max):
    plan = SweepPlan(
        epsilon_values=(epsilon,),
        W_values=(W,),
        model=model,
        n_instances=n_instances,
        base_seed=BASE_SEED,
        t_max=t_max,
    )
    return run_sweep(plan).cells[0]


def test_criterion_1_ballistic_baseline():
    cell = _single_cell(1.0, 0.0, "none", 1, 2 ** 12)
    ok = abs(cell.mean_inv_dw - 1.0) <= 0.05
    _report(
        "1 (ballistic baseline)", ok,
        f"epsilon=1, W=0, t_max=2^12: fitted 1/d_w = {cell.mean_inv_dw:.4f}, "
        f"target 1.00 +/- 0.05",
    )


def test_criterion_2_hierarchy_exponents():
    fitted = {}
    for eps in (1.0, 0.8, 0.6):
        cell = _single_cell(eps, 0.0, "none", 1, 2 ** 13)
        fitted[eps] = cell.mean_inv_dw
    pred = {eps: predicted_inv_dw(eps) for eps in fitted}
    ok_08 = abs(fitted[0.8] - pred[0.8]) <= 0.1
    ok_06 = abs(fitted[0.6] - pred[0.6]) <= 0.1
    ok_order = fitted[1.0] > fitted[0.8] > fitted[0.6]
    ok = ok_08 and ok_06 and ok_order
    _report(
        "2 (hierarchy exponents)", ok,
        f"fitted 1/d_w: eps=0.8 -> {fitted[0.8]:.4f} (target {pred[0.8]:.4f} +/- 0.1), "
        f"eps=0.6 -> {fitted[0.6]:.4f} (target {pred[0.6]:.4f} +/- 0.1), "
        f"ordering 1.0 > 0.8 > 0.6 {'held' if ok_order else 'violated'} "
        f"(eps=1 -> {fitted[1.0]:.4f})",
    )


def test_criterion_3_extensive_randomness_localizes():
    baseline = _single_cell(1.0, 0.0, "none", 1, 2 ** 13).mean_inv_dw
    outcomes = {}
    for W in (math.pi / 4, math.pi / 2):
        cell = _single_cell(1.0, W, "extensive", 20, 2 ** 13)
        outcomes[W] = cell
    ok = all(
        c.mean_inv_dw < 0.1
        and c.mean_inv_dw < baseline
        and c.classification in ("localized", "inconclusive")
        for c in outcomes.values()
    )
    detail = "; ".join(
        f"W={W:.3f}: 1/d_w={c.mean_inv_dw:.4f} ({c.classification})"
        for W, c in outcomes.items()
    )
    _report(
        "3 (extensive randomness localizes)", ok,
        f"epsilon=1, 20 instances, t_max=2^13, W=0 baseline {baseline:.3f}; {detail}",
    )


def test_criterion_4_subextensive_null_at_eps_one():
    cell = _single_cell(1.0, math.pi, "hierarchical", 50, 2 ** 13)
    ok = 0.2 <= cell.mean_inv_dw <= 0.5 and cell.classification == "transporting"
    _report(
        "4 (sub-extensive randomness leaves eps=1 transporting)", ok,
        f"W=pi, 50 instances: 1/d_w = {cell.mean_inv_dw:.4f} "
        f"(target [0.2, 0.5]), classification {cell.classification}",
    )


def test_criterion_5_subextensive_suppression_with_barriers():
    plan = SweepPlan(
        epsilon_values=(0.6,),
        W_values=(0.2, 1.0),
        model="hierarchical",
        n_instances=50,
        base_seed=BASE_SEED,
        t_max=2 ** 13,
    )
    result = run_sweep(plan)
    low, high = (next(c for c in result.cells if (c.epsilon, c.W) == (0.6, W)) for W in (0.2, 1.0))
    ok = high.mean_inv_dw < low.mean_inv_dw
    _report(
        "5 (randomness suppresses transport at eps=0.6)", ok,
        f"50 instances, t_max=2^13: 1/d_w at W=0.2 -> {low.mean_inv_dw:.4f}, "
        f"at W=1.0 -> {high.mean_inv_dw:.4f} (must decrease)",
    )


def test_criterion_6_rg_matches_simulation_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    checks = 0
    for l in (1, 2, 3, 4):
        for _ in range(10):
            eps = float(rng.uniform(0.3, 1.0))
            W = float(rng.uniform(0.0, math.pi))
            seed = int(rng.integers(0, 2 ** 32))
            z = complex(*rng.uniform(-0.35, 0.35, 2))  # |z| <= 0.5
            field = CoinField(eps, DisorderSpec(model="hierarchical", W=W, seed=seed), 2 ** l)
            rec = evolve_absorbing(field, l, DEFAULT_IC, 200)
            r_sim, l_sim = rec.generating_function(z)
            r_rg, l_rg = absorbed_amplitude(l, field, z, DEFAULT_IC)
            worst = max(worst, np.abs(r_rg - r_sim).max(), np.abs(l_rg - l_sim).max())
            checks += 1
    ok = worst < 1e-8
    _report(
        "6 (recursion = simulation series)", ok,
        f"{checks} random (l, eps, W, seed, z) cases: worst wall-component "
        f"difference {worst:.3e} (tolerance 1e-8)",
    )


def test_criterion_7_invariant_suite(tmp_path):
    # unitarity drift over 2^16 steps on a disordered field
    t_big = 2 ** 16
    field = CoinField(0.8, DisorderSpec(model="hierarchical", W=0.5, seed=5), t_big)
    state = evolve_state(field, DEFAULT_IC, t_big)
    drift = abs(state.norm() - 1.0)
    ok_norm = drift < 1e-10

    # light-cone exactness: zero outside |x| > t, including the wrong parity class
    probe = evolve_state(field, DEFAULT_IC, 64)
    outside = [probe.spinor_at(x) for x in (65, 66, 100, -65, -90)]
    inside_wrong_parity = [probe.spinor_at(x) for x in (1, -1, 63)]
    ok_cone = all(s == (0j, 0j) for s in outside + inside_wrong_parity)

    # hierarchy-index round trip over [-2^16, 2^16]
    ok_round = all(
        hierarchy_index(x).site == x
        for x in range(-(2 ** 16), 2 ** 16 + 1)
        if x != 0
    )

    # fit recovery on exact power laws
    ok_fit = True
    t = np.unique(np.geomspace(2, 2 ** 12, 48).astype(int)).astype(float)
    for A in (0.3, 1.0, 3.0):
        for d in (1.0, 1.5, 2.0, 4.0):
            pts = np.column_stack([t, 1.0 / np.log(t), np.log(A * t ** (1.0 / d)) / np.log(t)])
            fit = fit_inv_dw(pts)
            ok_fit = ok_fit and abs(fit.inv_dw - 1.0 / d) < 1e-6

    # byte-identical reruns of a fixed sweep plan
    plan = SweepPlan(
        epsilon_values=(0.8,), W_values=(0.5,), model="hierarchical",
        n_instances=3, base_seed=11, t_max=2 ** 9,
    )
    emit_results(run_sweep(plan), tmp_path / "a")
    emit_results(run_sweep(plan), tmp_path / "b")
    ok_bytes = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("cells.csv", "samples.csv", "manifest.json")
    )

    ok = ok_norm and ok_cone and ok_round and ok_fit and ok_bytes
    _report(
        "7 (invariant suite)", ok,
        f"norm drift over 2^16 steps = {drift:.2e} (< 1e-10: {ok_norm}); "
        f"light cone exact: {ok_cone}; index round-trip: {ok_round}; "
        f"fit recovery < 1e-6: {ok_fit}; byte-identical reruns: {ok_bytes}",
    )
