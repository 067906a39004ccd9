"""Spans around calls into the hierwalk layers, recorded from outside the package.

A traced repetition wraps the package's public entry points (module attributes
and CoinField methods) so every call records a span: name, start, end, parent
span and run id, plus counts such as nominal amplitude updates. Spans live in
memory and are written out once, when the run ends. Sweep pool workers are
forked from the traced process, so they inherit the wrappers; they cannot
return spans through the pool, so each worker appends its spans to a spill file
as it records them and the parent collects the spill files after the sweep.

Times come from time.perf_counter, which is CLOCK_MONOTONIC on Linux and
therefore comparable across the parent and its forked workers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time
import weakref
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: str | None
    run_id: str
    span_id: str
    pid: int
    rep: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Stand-in for untraced repetitions: spans cost one call and record nothing."""

    def span(self, name, **attrs):
        return contextlib.nullcontext(attrs)


class Tracer:
    def __init__(self, run_id: str, spill_dir: Path):
        self.run_id = run_id
        self.spill_dir = Path(spill_dir)
        self.rep = 0  # index of the repetition being traced; set by the caller
        self.owner = os.getpid()
        self.spans: list[Span] = []
        self._stack: list[str] = []
        self._seq = 0

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Record a span around the block; the block may add counts to `attrs`."""
        self._seq += 1
        span_id = f"{os.getpid()}.{self._seq}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record(Span(name, start, end, parent, self.run_id, span_id,
                              os.getpid(), self.rep, attrs))

    def _record(self, span: Span) -> None:
        if os.getpid() == self.owner:
            self.spans.append(span)
            return
        # A pool worker: it may be terminated without running exit handlers.
        with open(self.spill_dir / f"spans-{os.getpid()}.jsonl", "a") as f:
            f.write(json.dumps(asdict(span)) + "\n")

    def collect_spills(self) -> None:
        """Move spans written by forked workers into this tracer and delete the files."""
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as f:
                self.spans.extend(Span(**json.loads(line)) for line in f if line.strip())
            path.unlink()


def write_spans(spans, path: Path) -> None:
    with open(path, "w") as f:
        for s in sorted(spans, key=lambda s: (s.start, s.span_id)):
            f.write(json.dumps(asdict(s)) + "\n")


# ---------------------------------------------------------------- instrumentation

def _t_max_updates(args, kwargs, result):
    field_ = args[0] if args else kwargs["field"]
    t_max = args[2] if len(args) > 2 else kwargs["t_max"]
    return {"updates": t_max * (t_max + 1) // 2, "model": field_.disorder.model,
            "epsilon": field_.epsilon, "t_max": t_max}


def _emitted_bytes(args, kwargs, result):
    return {"bytes": sum(Path(p).stat().st_size for p in result.values())}


def _draws(args, kwargs, result):
    spec, count = args[0], args[1]
    return {"draws": 0 if spec.model == "none" else int(count)}


def _wrap(tracer: Tracer, name: str, fn, attrs_fn=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = fn(*args, **kwargs)
            if attrs_fn is not None:  # before the span closes: workers write it then
                attrs.update(attrs_fn(args, kwargs, result))
        return result
    return traced


# (module, attribute, span name, counts taken from the call). The CLI and the
# harness import these names into their own namespaces, so each binding that a
# caller looks up is wrapped. A binding a later version no longer has is skipped.
_CALLS = (
    ("cli", "run_sweep", "harness.run_sweep", None),
    ("cli", "emit_results", "harness.emit_results", _emitted_bytes),
    ("cli", "read_samples_csv", "harness.read_samples_csv", None),
    ("cli", "cells_from_archive", "harness.cells_from_archive", None),
    ("cli", "evolve", "walker.evolve", _t_max_updates),
    ("cli", "fit_inv_dw", "observables.fit_inv_dw", None),
    ("harness", "evolve", "walker.evolve", _t_max_updates),
    ("harness", "aggregate_cell", "harness.aggregate_cell", None),
    ("harness", "fit_inv_dw", "observables.fit_inv_dw", None),
    ("coins", "draw_base_angles", "coins.draw_base_angles", _draws),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the hierwalk entry points for the duration of the block."""
    from hierwalk.coins import CoinField

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for mod_name, attr, name, attrs_fn in _CALLS:
        mod = importlib.import_module(f"hierwalk.{mod_name}")
        if attr in mod.__dict__:
            patch(mod, attr, _wrap(tracer, name, mod.__dict__[attr], attrs_fn))

    patch(CoinField, "__init__", _wrap(tracer, "coins.CoinField", CoinField.__init__))

    # The sin/cos tables are built lazily by the first trig_slice call on a
    # field; time that call only, so the per-step lookups stay untraced.
    trig_slice = CoinField.trig_slice
    built = weakref.WeakSet()

    @functools.wraps(trig_slice)
    def first_trig_slice(self, cone):
        if self in built:
            return trig_slice(self, cone)
        built.add(self)
        with tracer.span("coins.trig_tables"):
            return trig_slice(self, cone)

    patch(CoinField, "trig_slice", first_trig_slice)
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


# ---------------------------------------------------------------- span arithmetic

def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span_id -> duration minus the part of the span its children cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - covered(children.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


def tail_percentile(values, min_beyond: int = 10):
    """The highest of p50/p90/p99/p99.9 with at least `min_beyond` samples above it.

    Returns (label, value), or None when fewer than 2 * min_beyond samples exist.
    The value is the order statistic with exactly `min_beyond` or more samples
    strictly after it in sorted order.
    """
    xs = sorted(values)
    n = len(xs)
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        beyond = int(n * (100.0 - p) / 100.0 + 1e-9)
        if beyond < min_beyond:
            break
        best = (f"p{p:g}", xs[n - beyond - 1])
    return best


def timing_summary(values) -> dict:
    """Median, tail percentile by the >=10-beyond rule, and the sample count."""
    tail = tail_percentile(values)
    return {"median": statistics.median(values), "n": len(values),
            "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
            "samples": list(values)}
