"""Command-line interface: simulate, sweep, fit, and rg subcommands.

Physics parameters are always explicit flags or config-file keys; the only
environment control is HIERWALK_WORKERS, the number of sweep workers. Every
rejected precondition exits with a nonzero status.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .coins import DISORDER_MODELS, field_from_config, require_power_of_two
from .harness import (
    PRESETS,
    InstanceRecord,
    SweepPlan,
    _fmt,
    cells_from_archive,
    emit_extrapolation_table,
    emit_results,
    read_manifest,
    read_samples_csv,
    run_sweep,
    write_cells,
    write_csv,
    write_samples,
)
from .observables import (DEFAULT_THRESHOLD, classify_estimate, extrapolation_points, fit_inv_dw,
                          require_threshold)
from .rgflow import PoleProximalError, absorbed_amplitude
from .walker import DEFAULT_IC, evolve

RG_HEADER = (
    "z_re,z_im,status,right_up_re,right_up_im,right_down_re,right_down_im,"
    "left_up_re,left_up_im,left_down_re,left_down_im"
)


def parse_config(path: str) -> dict:
    """Parse a plain-text key=value config file ('#' starts a comment; each key at most once)."""
    cfg = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in cfg:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            cfg[key] = value
    return cfg


def _parse_psi_ic(text: str | None) -> np.ndarray:
    if text is None:
        return DEFAULT_IC
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--psi-ic expects two comma-separated complex numbers, e.g. '0.6,0.8j'")
    try:
        return np.array([complex(parts[0]), complex(parts[1])])
    except ValueError as exc:
        raise ValueError(f"cannot parse --psi-ic {text!r}: {exc}") from exc


def _field_config(args, **defaults) -> dict:
    """Field config: the --config file, then the flags given on top, then the command's defaults."""
    cfg = parse_config(args.config) if args.config else {}
    flags = {"epsilon": args.epsilon, "disorder_model": args.model, "W": args.W,
             "seed": args.seed, "half_width": args.half_width}
    cfg.update((key, value) for key, value in flags.items() if value is not None)
    return {**defaults, **cfg}


def _window_from(args) -> tuple[float, float] | None:
    if (args.t_lo is None) != (args.t_hi is None):
        raise ValueError("--t-lo and --t-hi must be given together")
    if args.t_lo is None:
        return None
    return (args.t_lo, args.t_hi)


@contextlib.contextmanager
def _output(path):
    """The file at path opened for writing, or stdout when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", newline="") as f:
        yield f


def _cmd_simulate(args) -> int:
    require_threshold(args.threshold)
    t_max = require_power_of_two("--t-max", args.t_max)
    field = field_from_config(_field_config(args, half_width=t_max))
    psi = _parse_psi_ic(args.psi_ic)
    series = evolve(field, psi, t_max)
    fit = fit_inv_dw(extrapolation_points(series), _window_from(args))
    if args.series_out:
        with open(args.series_out, "w", newline="") as f:
            write_samples(f, [InstanceRecord(field.epsilon, field.disorder.W, field.disorder.model, 0, series)])
    print(f"epsilon={_fmt(field.epsilon)}")
    print(f"W={_fmt(field.disorder.W)}")
    print(f"model={field.disorder.model}")
    print(f"seed={field.disorder.seed}")
    print(f"t_max={t_max}")
    print(f"inv_dw={_fmt(fit.inv_dw)}")
    print(f"log_amplitude={_fmt(fit.log_amplitude)}")
    print(f"stderr={_fmt(fit.stderr)}")
    print(f"window={_fmt(fit.window[0])},{_fmt(fit.window[1])}")
    print(f"n_points={fit.n_points}")
    print(f"classification={classify_estimate(fit.inv_dw, fit.stderr, args.threshold)}")
    return 0


def _cmd_sweep(args) -> int:
    preset = PRESETS[args.preset] if args.preset else {}
    t_max = args.t_max if args.t_max is not None else preset.get("t_max")
    n_instances = args.instances if args.instances is not None else preset.get("n_instances")
    if t_max is None or n_instances is None:
        raise ValueError("--t-max and --instances are required unless --preset supplies them")
    window = _window_from(args)
    plan = SweepPlan(
        epsilon_values=tuple(args.epsilon),
        W_values=tuple(args.W),
        model=args.model,
        n_instances=n_instances,
        base_seed=args.base_seed,
        t_max=t_max,
        psi_ic=tuple(_parse_psi_ic(args.psi_ic)),
        half_width=args.half_width,
        fit_window=window,
        threshold=args.threshold,
    )
    tables = []  # every --extrapolation cell is checked before the sweep runs
    for cell_spec in args.extrapolation or []:
        parts = cell_spec.split(",")
        if len(parts) != 2:
            raise ValueError(f"--extrapolation expects 'epsilon,W', got {cell_spec!r}")
        try:
            eps, w = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"--extrapolation expects two numbers 'epsilon,W', got {cell_spec!r}") from None
        if eps not in plan.epsilon_values or w not in plan.W_values:
            raise ValueError(f"--extrapolation {cell_spec!r} is not a cell of the sweep grid")
        tables.append((eps, w, f"extrapolation_{parts[0].strip()}_{parts[1].strip()}.csv"))
    result = run_sweep(plan)
    written = emit_results(result, args.out_dir)
    for eps, w, name in tables:
        path = Path(args.out_dir) / name
        emit_extrapolation_table(result, eps, w, path)
        written[f"extrapolation {eps},{w}"] = path
    for kind, path in written.items():
        print(f"{kind}: {path}")
    return 0


def _cmd_fit(args) -> int:
    if args.threshold is not None:
        require_threshold(args.threshold)
    results_dir = Path(args.results_dir)
    samples = results_dir / "samples.csv"
    manifest_path = results_dir / "manifest.json"
    if not samples.exists():
        raise ValueError(f"no samples.csv archive in {results_dir}")
    if not manifest_path.exists():
        raise ValueError(f"no manifest.json in {results_dir}: the plan of the sweep is unknown")
    plan = read_manifest(manifest_path)
    window = _window_from(args) or plan.fit_window
    threshold = plan.threshold if args.threshold is None else args.threshold
    archive = read_samples_csv(samples)
    keys = product(plan.epsilon_values, plan.W_values, [plan.model], range(plan.n_instances))
    if {(r.epsilon, r.W, r.model, r.instance) for r in archive} != set(keys):
        raise ValueError(f"{samples} does not hold exactly the (epsilon, W, model, instance) "
                         f"records of the plan in {manifest_path}")
    cells = cells_from_archive(archive, window, threshold)
    with _output(args.out) as f:
        write_cells(f, cells)
    return 0


def _cmd_rg(args) -> int:
    if args.l < 1:
        raise ValueError(f"--l must be >= 1, got {args.l}")
    z_re = args.z_re or []
    z_im = args.z_im or []
    if not z_re:
        raise ValueError("at least one --z-re is required")
    if z_im and len(z_im) != len(z_re):
        raise ValueError(f"{len(z_re)} --z-re values but {len(z_im)} --z-im values")
    if not z_im:
        z_im = [0.0] * len(z_re)
    # W = 0 reduces the hierarchical draw to the clean hierarchy exactly
    cfg = _field_config(args, disorder_model="hierarchical", half_width=1 << args.l)
    if cfg["disorder_model"] == "extensive":  # refused before its 2L+1 site angles are drawn
        raise ValueError("the recursion needs shared per-level coins; use model none or hierarchical")
    field = field_from_config(cfg)
    psi = _parse_psi_ic(args.psi_ic)
    rows = []  # every z is tried before any output is written
    for re_, im_ in zip(z_re, z_im):
        try:
            right, left = absorbed_amplitude(args.l, field, complex(re_, im_), psi)
        except PoleProximalError:
            rows.append((re_, im_, "pole_proximal", *[""] * 8))
            continue
        except OverflowError:  # a finite z whose amplitudes pass the float range
            raise ValueError(f"z = {complex(re_, im_)} is too large: its amplitudes overflow a float") from None
        rows.append((re_, im_, "ok", *(part for v in (*right, *left) for part in (v.real, v.imag))))
    with _output(args.out) as f:
        write_csv(f, RG_HEADER, rows)
    return 0


@functools.cache  # parse_args leaves the parser as it was, so one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierwalk",
        description="Quantum walks on the line through a hierarchy of coin barriers",
    )
    parser.add_argument("--version", action="version", version=f"hierwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_flags(p):
        p.add_argument("--epsilon", type=float, default=None, help="barrier strength in (0, 1]")
        p.add_argument("--model", choices=DISORDER_MODELS, default=None,
                       help="disorder model (default none)")
        p.add_argument("--W", type=float, default=None, help="disorder half-width in radians")
        p.add_argument("--seed", type=int, default=None, help="64-bit disorder seed")
        p.add_argument("--half-width", type=int, default=None,
                       help="lattice half-extent (power of two; default t_max, or 2^l for rg)")
        p.add_argument("--config", default=None,
                       help="key=value config file (epsilon, disorder_model, W, seed, half_width)")
        p.add_argument("--psi-ic", default=None,
                       help="initial spinor 'up,down' (default symmetric (1, i)/sqrt 2)")

    p_sim = sub.add_parser("simulate", help="evolve one disorder instance and fit 1/d_w")
    add_field_flags(p_sim)
    p_sim.add_argument("--t-max", type=int, required=True, help="steps to run (power of two)")
    p_sim.add_argument("--t-lo", type=float, default=None, help="fit window lower time")
    p_sim.add_argument("--t-hi", type=float, default=None, help="fit window upper time")
    p_sim.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p_sim.add_argument("--series-out", default=None, help="write the sigma(t) series CSV here")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="disorder-averaged grid over (epsilon, W)")
    p_sweep.add_argument("--epsilon", type=float, action="append", required=True,
                         help="barrier strength (repeatable)")
    p_sweep.add_argument("--W", type=float, action="append", required=True,
                         help="disorder half-width in radians (repeatable)")
    p_sweep.add_argument("--model", choices=DISORDER_MODELS, required=True)
    p_sweep.add_argument("--instances", type=int, default=None, help="instances per cell")
    p_sweep.add_argument("--base-seed", type=int, default=0)
    p_sweep.add_argument("--t-max", type=int, default=None, help="steps per instance (power of two)")
    p_sweep.add_argument("--half-width", type=int, default=None)
    p_sweep.add_argument("--preset", choices=sorted(PRESETS), default=None,
                         help="desk: t_max=2^13, 20 instances; paper: t_max=2^16, 50 instances")
    p_sweep.add_argument("--psi-ic", default=None)
    p_sweep.add_argument("--t-lo", type=float, default=None)
    p_sweep.add_argument("--t-hi", type=float, default=None)
    p_sweep.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p_sweep.add_argument("--out-dir", required=True)
    p_sweep.add_argument("--extrapolation", action="append", default=None, metavar="EPS,W",
                         help="also write the extrapolation table for this cell (repeatable)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fit = sub.add_parser("fit", help="refit phase cells from an archived samples.csv")
    p_fit.add_argument("--results-dir", required=True,
                       help="sweep directory holding samples.csv and manifest.json")
    p_fit.add_argument("--t-lo", type=float, default=None)
    p_fit.add_argument("--t-hi", type=float, default=None)
    p_fit.add_argument("--threshold", type=float, default=None)
    p_fit.add_argument("--out", default=None, help="cells CSV destination (default stdout)")
    p_fit.set_defaults(func=_cmd_fit)

    p_rg = sub.add_parser("rg", help="wall-absorption amplitudes from the shift-matrix recursion")
    p_rg.add_argument("--l", type=int, required=True, help="walls at 0 and 2^l, start at 2^(l-1)")
    add_field_flags(p_rg)
    p_rg.add_argument("--z-re", type=float, action="append", help="Re z (repeatable)")
    p_rg.add_argument("--z-im", type=float, action="append",
                      help="Im z (repeatable, pairs with --z-re; default 0)")
    p_rg.add_argument("--out", default=None, help="CSV destination (default stdout)")
    p_rg.set_defaults(func=_cmd_rg)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, PoleProximalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
