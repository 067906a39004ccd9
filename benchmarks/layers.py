"""Per-layer metrics of a traced run, derived from its spans and probes.

Span totals are per repetition (summed over the traced repetitions, divided by
their number), so they compare directly with the end-to-end wall_s. Busy time
of forked pool workers is counted once per worker, so a layer's time can
exceed the wall time of the sweep that ran it. A layer a workload does not
exercise reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from spans import self_times


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, n_reps: int, workers: int, probe: dict, details: dict) -> dict:
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    own = self_times(spans)

    def total(name, self_only=False):
        return sum(own[s.span_id] if self_only else s.duration for s in by[name]) / n_reps

    def count(name, key):
        return sum(s.attrs.get(key, 0) for s in by[name]) / n_reps

    m = {}
    # walker: the light-cone kernel (evolve) and the absorbing kernel
    absorb = by["walker.evolve_absorbing"]
    updates = count("walker.evolve", "updates") + count("walker.evolve_absorbing", "updates")
    kernel_s = total("walker.evolve", self_only=True) + total("walker.evolve_absorbing")
    m["walker.updates"] = updates
    m["walker.ns_per_update"] = _ratio(kernel_s, updates) * 1e9
    m["walker.evolve_s"] = total("walker.evolve")
    m["walker.absorb_s"] = total("walker.evolve_absorbing")
    m["walker.genfun_s"] = total("walker.generating_function")
    if len({s.attrs["l"] for s in absorb}) >= 2:
        # time per step against walk width: the intercept is the per-step overhead
        _, intercept = np.polyfit([(1 << s.attrs["l"]) - 1 for s in absorb],
                                  [s.duration / s.attrs["steps"] for s in absorb], 1)
        m["walker.step_overhead_us"] = intercept * 1e6
    else:
        m["walker.step_overhead_us"] = probe.get("step_overhead_us", 0.0)
    shares = probe.get("cone_shares", {})
    slots = sum(v["slots"] for v in shares.values())
    m["walker.nonzero_frac"] = _ratio(sum(v["nonzero"] for v in shares.values()), slots)
    m["walker.subnormal_frac"] = _ratio(sum(v["subnormal"] for v in shares.values()), slots)
    m["walker.norm_drift"] = max([v["norm_drift"] for v in shares.values()]
                                 + [details.get("norm_drift", 0.0)])
    m["walker.working_set_bytes"] = probe.get("working_set_bytes", 0)

    # rgflow
    levels = count("rgflow.absorbed_amplitude", "levels")
    m["rgflow.amplitude_s"] = total("rgflow.absorbed_amplitude")
    m["rgflow.levels"] = levels
    m["rgflow.us_per_level"] = _ratio(m["rgflow.amplitude_s"], levels) * 1e6
    m["rgflow.pole_proximal"] = details.get("pole_proximal", 0)
    m["rgflow.max_abs_diff"] = details.get("max_abs_diff", 0.0)

    # harness: sweeps, their instances (in pool workers), aggregation and CSV I/O
    sweeps = {s.span_id for s in by["harness.run_sweep"]}
    instances = [s.duration for s in by["walker.evolve"] if s.parent in sweeps]
    busy = sum(s.duration for s in spans if s.parent in sweeps
               and s.name in ("walker.evolve", "coins.CoinField"))
    sweep_s = total("harness.run_sweep")
    m["harness.sweep_s"] = sweep_s
    m["harness.instance_n"] = len(instances)
    m["harness.instance_s_p50"] = statistics.median(instances) if instances else 0.0
    p90 = sorted(instances)[int(0.9 * (len(instances) - 1))] if instances else 0.0
    m["harness.instance_s_p90"] = p90
    m["harness.pool_efficiency"] = _ratio(busy / n_reps, max(workers, 1) * sweep_s)
    m["harness.fanout_overhead_s"] = total("harness.run_sweep", self_only=True)
    m["harness.aggregate_s"] = sum(
        s.duration for s in by["harness.aggregate_cell"] if s.parent in sweeps) / n_reps
    m["harness.emit_s"] = total("harness.emit_results")
    m["harness.emit_bytes"] = count("harness.emit_results", "bytes")
    m["harness.read_s"] = total("harness.read_samples_csv")
    m["harness.refit_s"] = total("harness.cells_from_archive")

    # observables, coins, cli
    m["observables.fit_s"] = total("observables.fit_inv_dw")
    sigma_us = [v["sigma_us"] for v in shares.values()]
    m["observables.sigma_us"] = statistics.median(sigma_us) if sigma_us else 0.0
    m["coins.build_s"] = total("coins.CoinField")
    m["coins.trig_s"] = total("coins.trig_tables")
    m["coins.draws"] = count("coins.draw_base_angles", "draws")
    m["cli.self_s"] = total("cli.main", self_only=True)
    return m


def ns_per_update_by_model(spans) -> dict:
    """Light-cone kernel ns per nominal update (self time of evolve), by regime."""
    own = self_times(spans)
    acc: dict = {}
    for s in spans:
        if s.name == "walker.evolve":
            key = f"{s.attrs['model']} eps={s.attrs['epsilon']:g} t={s.attrs['t_max']}"
            t, u = acc.get(key, (0.0, 0))
            acc[key] = (t + own[s.span_id], u + s.attrs["updates"])
    return {k: t / u * 1e9 for k, (t, u) in sorted(acc.items())}
