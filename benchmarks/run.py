"""Run one hierwalk benchmark workload, check its outputs, and print its metrics.

    python3 benchmarks/run.py --workload phase_scan --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from ./src,
never from an installed copy. With --trace 0 the run times repetitions of the
workload untraced and reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced repetitions and reports the
per-layer metrics, writing the spans to benchmarks/out/. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# One BLAS thread per process: pool workers times BLAS threads must not
# exceed the cores. This must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7


def import_package():
    """Import hierwalk from this checkout's src/ or exit nonzero."""
    if not (SRC / "hierwalk" / "__init__.py").is_file():
        sys.exit(f"benchmark: no hierwalk sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import hierwalk

    if Path(hierwalk.__file__).resolve().parent != (SRC / "hierwalk").resolve():
        sys.exit(f"benchmark: imported hierwalk from {hierwalk.__file__}, not {SRC}")


def environment(workers: int) -> dict:
    import numpy

    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            caches.append({k: (idx / k).read_text().strip() for k in ("level", "type", "size")})
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "hierwalk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "cpu0_caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit or None,
        "src_sha256": digest.hexdigest(),
        "HIERWALK_WORKERS": os.environ.get("HIERWALK_WORKERS"),
        "pool_workers": workers,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import hierwalk and build the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls and rounds the time up to ~50 ms steps.
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb(pool_workers: int) -> float:
    """Peak RSS of this process plus pool_workers times that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_package()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, Outcome

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        cls(args.seed, OUT, None).setup()
        return 0

    from layers import layer_metrics, ns_per_update_by_model
    from spans import NullTracer, Tracer, instrument, timing_summary, write_spans

    run_id = f"{args.workload}-s{args.seed}-{uuid.uuid4().hex[:12]}"
    run_dir = OUT / run_id
    run_dir.mkdir(parents=True)
    try:
        setup_times = [] if args.trace else setup_seconds(args.workload, args.seed)
        reference = json.loads((BENCH / "reference.json").read_text())
        wl = cls(args.seed, run_dir, reference.get(args.workload, {}).get(str(args.seed)))
        wl.setup()
        wl.warmup()

        tracer = Tracer(run_id, run_dir)
        walls = {False: [], True: []}
        attempted = failed = 0
        details: dict = {}
        deadline = time.perf_counter() + args.seconds
        k = 0
        while True:
            traced = bool(args.trace) and k % 2 == 1
            tracer.rep = k
            ctx = instrument(tracer) if traced else contextlib.nullcontext()
            raw = None
            with ctx:
                t0 = time.perf_counter()
                try:
                    raw = wl.rep(tracer if traced else NullTracer())
                except Exception:  # a failed repetition counts all its operations as failed
                    traceback.print_exc(file=sys.stderr)
                wall = time.perf_counter() - t0
            if traced:
                tracer.collect_spills()
            try:
                outcome = wl.check(raw) if raw is not None else None
            except Exception:
                traceback.print_exc(file=sys.stderr)
                outcome = None
            if outcome is None:
                outcome = Outcome(wl.ops_per_rep, wl.ops_per_rep)
            attempted += outcome.attempted
            failed += outcome.failed
            for key, value in outcome.details.items():  # worst repetition
                details[key] = max(details.get(key, value), value)
            walls[traced].append(wall)
            k += 1
            done = time.perf_counter() >= deadline
            if done and (not args.trace or walls[True]):
                break

        wall_s = statistics.median(walls[False])
        result = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "run_id": run_id, "seconds": args.seconds,
            "environment": environment(wl.workers),
            "wall_s": timing_summary(walls[False]),
            "nominal_updates_per_rep": wl.nominal_updates,
            "ops_per_rep": wl.ops_per_rep,
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted,
            "zpoints_per_s": wl.zpoints_per_rep / wall_s,
        }
        if args.trace:
            n_traced = len(walls[True])
            probe = wl.probe()
            layers = layer_metrics(tracer.spans, n_traced, wl.workers, probe, details)
            layers["trace.overhead_s"] = statistics.median(walls[True]) - wall_s
            layers["zpoints_per_s"] = result["zpoints_per_s"]
            layers["failed_frac"] = result["failed_frac"]
            spans_path = OUT / f"spans-{run_id}.jsonl"
            write_spans(tracer.spans, spans_path)
            result.update({
                "traced_wall_s": timing_summary(walls[True]),
                "spans_file": str(spans_path.relative_to(ROOT)),
                "n_spans": len(tracer.spans),
                "cone_shares": {**probe.get("cone_shares", {}), **probe.get("other_shares", {})},
                "ns_per_update_by_model": ns_per_update_by_model(tracer.spans),
                "per_layer": layers,
            })
            wanted = spec["per_layer"]
            values = layers
        else:
            result["setup_s"] = timing_summary(setup_times)
            values = {
                "wall_s": wall_s,
                "setup_s": statistics.median(setup_times),
                "updates_per_s": wl.nominal_updates / wall_s,
                "peak_rss_mb": peak_rss_mb(wl.workers),
            }
            result["end_to_end"] = values
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        (OUT / f"result-{run_id}.json").write_text(json.dumps(result, indent=2) + "\n")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, v in metrics.items():
        print(f"{args.workload} {name} = {v['value']:.6g} {v['unit']}")
    for key in ("wall_s", "traced_wall_s", "setup_s"):
        if key in result:
            t = result[key]
            tail = "no percentile has 10 samples beyond it" if t["tail"] is None \
                else f"{t['tail']['percentile']} {t['tail']['value']:.6g} s"
            print(f"{args.workload} {key}: median {t['median']:.6g} s, n = {t['n']}, {tail}")
    if wl.zpoints_per_rep:
        print(f"{args.workload} zpoints_per_s = {result['zpoints_per_s']:.6g} 1/s")
    print(f"{args.workload} failed_frac = {result['failed_frac']:.6g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps(result, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
