"""Self-tests of the benchmark: percentile rule, self-time arithmetic, count repetition.

    python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from layers import layer_metrics  # noqa: E402
from spans import Span, Tracer, covered, instrument, self_times, tail_percentile  # noqa: E402
from workloads import BallisticClean, PhaseScan, RGCrossCheck  # noqa: E402

# Counts that must repeat bit for bit between traced runs of the same inputs.
EXACT = ("walker.updates", "walker.nonzero_frac", "walker.subnormal_frac",
         "walker.working_set_bytes", "harness.emit_bytes", "rgflow.levels",
         "rgflow.max_abs_diff", "coins.draws")


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, ("p50", 9)), (99, ("p50", 49)), (100, ("p90", 89)),
    (999, ("p90", 899)), (1000, ("p99", 989)), (10000, ("p99.9", 9989)),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    values = list(range(n))[::-1]  # unsorted input
    got = tail_percentile(values)
    assert got == expected
    if got is not None:
        assert sum(v > got[1] for v in values) >= 10


def _span(span_id, parent, start, end, name="x"):
    return Span(name, start, end, parent, "r", span_id, 1, 0)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8), (9, 12)], 0, 10) == 6
    assert covered([], 0, 10) == 0
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_children_once():
    spans = [
        _span("a", None, 0.0, 10.0),
        _span("b", "a", 1.0, 4.0),
        _span("c", "a", 3.0, 6.0),      # overlaps b: a parallel worker
        _span("d", "b", 1.5, 2.0),      # grandchild: not a's child
    ]
    own = self_times(spans)
    assert own["a"] == pytest.approx(10.0 - 5.0)
    assert own["b"] == pytest.approx(3.0 - 0.5)
    assert own["c"] == pytest.approx(3.0)
    assert own["d"] == pytest.approx(0.5)


def _setup(wl):
    wl.setup()
    return wl


def _traced_counts(wl, tmp_path):
    tracer = Tracer("test", tmp_path)
    with instrument(tracer):
        raw = wl.rep(tracer)
    tracer.collect_spills()
    outcome = wl.check(raw)
    assert outcome.failed == 0
    m = layer_metrics(tracer.spans, 1, wl.workers, wl.probe(), outcome.details)
    return {k: m[k] for k in EXACT}


@pytest.mark.parametrize("make", [
    lambda d: PhaseScan(3, d, None, t_max=2 ** 8),
    lambda d: BallisticClean(3, d, None, t_max=2 ** 9),
    lambda d: RGCrossCheck(3, d, None),
], ids=["phase_scan", "ballistic_clean", "rg_crosscheck"])
def test_counts_repeat_across_traced_runs(make, tmp_path):
    first, second = (_traced_counts(_setup(make(tmp_path)), tmp_path) for _ in range(2))
    assert first == second
    assert first["walker.updates"] > 0


def test_phase_scan_spans_reach_pool_workers(tmp_path):
    wl = _setup(PhaseScan(0, tmp_path, None, t_max=2 ** 8, workers=2))
    tracer = Tracer("test", tmp_path)
    with instrument(tracer):
        raw = wl.rep(tracer)
    tracer.collect_spills()
    wl.check(raw)
    sweeps = {s.span_id for s in tracer.spans if s.name == "harness.run_sweep"}
    evolves = [s for s in tracer.spans if s.name == "walker.evolve"]
    assert len(evolves) == wl.ops_per_rep
    assert all(s.parent in sweeps for s in evolves)
    assert {s.pid for s in evolves}.isdisjoint({tracer.owner})


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "rg_crosscheck", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_run_prints_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "rg_crosscheck", "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in spec["per_layer"]]
