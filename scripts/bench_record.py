#!/usr/bin/env python3
"""Summarize parent and change benchmark runs into BENCH_<pr>.json at the repo root.

    python3 scripts/bench_record.py --pr N --parent PARENT/benchmarks/out \
        --change CHANGE/benchmarks/out

Each directory holds the result-*.json files that benchmarks/run.py wrote,
one per run; traced runs carry no end_to_end block and are skipped. For each
workload and each end-to-end metric of BENCHMARK.json the record holds both
sides' median, quartiles and run count, the ratio of the change's median to
the parent's, and the pairs won. A pair is a parent run and a change run of
the same workload and seed; the change wins it when its value is better in
the metric's direction, and a tie counts for neither side. The environment
blocks of each side's runs are kept, each distinct block once.

Each metric also carries two verdicts:
- claim_met: at least 10 pairs, at least nine tenths of them won, and the
  change's median better than the parent's by more than the parent's IQR
- no_regression: "no" when the change's median is worse than the parent's
  by more than bound x the parent's median; else "unresolved" when the
  parent's IQR exceeds bound x its median and not every change run beats
  every parent run; else "yes"
A workload run on one side only gets claim_met false and "unresolved".
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path, names) -> dict:
    """{(workload, seed): result} of the untraced runs in a benchmarks/out directory."""
    runs = {}
    for path in sorted(Path(directory).glob("result-*.json")):
        result = json.loads(path.read_text())
        if "end_to_end" not in result:
            continue
        missing = [k for k in ("workload", "seed", "environment") if k not in result]
        missing += [k for k in names if k not in result["end_to_end"]]
        if missing:
            raise ValueError(f"{path}: missing {', '.join(missing)}")
        key = (result["workload"], result["seed"])
        if key in runs:
            raise ValueError(f"{path}: a second run of workload {key[0]} with seed {key[1]}")
        runs[key] = result
    if not runs:
        raise ValueError(f"{directory}: no untraced result-*.json files")
    return runs


def spread(values: list) -> dict:
    """Median, quartiles (inclusive method) and count of one side's values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def verdicts(entry: dict, parent: list, change: list, sign: int) -> dict:
    """claim_met and no_regression of one metric's entry, given both sides' values (see the module docstring)."""
    p, c, bound = entry["parent"], entry["change"], entry["bound"]
    if not p or not c:
        return {"claim_met": False, "no_regression": "unresolved"}
    gain, iqr = sign * (c["median"] - p["median"]), p["q3"] - p["q1"]
    if -gain > bound * p["median"]:
        no_regression = "no"
    elif iqr > bound * p["median"] and min(sign * v for v in change) <= max(sign * v for v in parent):
        no_regression = "unresolved"
    else:
        no_regression = "yes"
    pairs, won = entry["pairs"], entry["pairs_won"]
    return {"claim_met": pairs >= 10 and 10 * won >= 9 * pairs and gain > iqr,
            "no_regression": no_regression}


def summarize(parent: dict, change: dict, metrics: list) -> dict:
    """Per workload: both sides' spreads, the median ratio, the pairs won and the verdicts, per metric."""
    sides = {"parent": parent, "change": change}
    out = {}
    for workload in sorted({w for runs in sides.values() for w, _ in runs}):
        seeds = {side: sorted(s for w, s in runs if w == workload) for side, runs in sides.items()}
        results = {side: [sides[side][(workload, s)] for s in seeds[side]] for side in sides}
        paired = sorted(set(seeds["parent"]) & set(seeds["change"]))
        environment = {side: [] for side in sides}
        for side, runs in results.items():
            for run in runs:
                if run["environment"] not in environment[side]:
                    environment[side].append(run["environment"])
        table = {}
        for m in metrics:
            name, sign = m["name"], (1 if m["better"] == "higher" else -1)
            entry = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
            values = {side: [run["end_to_end"][name] for run in runs]
                      for side, runs in results.items()}
            for side, vals in values.items():
                entry[side] = spread(vals) if vals else None
            entry["ratio"] = (entry["change"]["median"] / entry["parent"]["median"]
                              if entry["parent"] and entry["change"] else None)
            entry["pairs"] = len(paired)
            entry["pairs_won"] = sum(
                sign * (change[(workload, s)]["end_to_end"][name]
                        - parent[(workload, s)]["end_to_end"][name]) > 0
                for s in paired)
            entry.update(verdicts(entry, values["parent"], values["change"], sign))
            table[name] = entry
        out[workload] = {"seeds": seeds, "environment": environment, "metrics": table}
    return out


def main(argv=None, root: Path = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--parent", type=Path, required=True, help="parent's benchmarks/out")
    parser.add_argument("--change", type=Path, required=True, help="change's benchmarks/out")
    args = parser.parse_args(argv)
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in metrics]
    try:
        parent, change = load_runs(args.parent, names), load_runs(args.change, names)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {"pr": args.pr, "workloads": summarize(parent, change, metrics)}
    path = root / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
