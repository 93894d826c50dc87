"""Batch command-line front end.

Subcommands: ``simulate`` (one run), ``sweep`` (one run per parameter
value), ``trajectories`` (Monte Carlo ensemble), ``plot`` (CSV -> SVG).
Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .config import ENGINES, ConfigError, McwfSpec, check_engine, load_config
from .master_equation import IntegrationError
from .runner import read_csv, run_to_files, sweep_to_files
from .svgplot import emit_svg

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobath",
        description="Open-system simulations with a shared (cross-correlated) reservoir.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--seed", type=int, default=None, help="override mcwf.seed")
        p.add_argument("--engine", default=None, help="override the configured engine")
        p.add_argument(
            "--format", default="both", choices=("csv", "svg", "both"), help="artifact formats"
        )

    add_run_flags(sub.add_parser("simulate", help="run a single configuration"))
    add_run_flags(sub.add_parser("sweep", help="run the configured parameter sweep"))
    add_run_flags(sub.add_parser("trajectories", help="run a Monte Carlo ensemble"))

    plot = sub.add_parser("plot", help="render an emitted CSV as SVG")
    plot.add_argument("csv", help="input CSV file")
    plot.add_argument("--out", default=".", help="output directory (default: .)")
    plot.add_argument(
        "--columns", default=None, help="comma-separated subset of columns to draw"
    )
    return parser


def _apply_overrides(cfg, args):
    if args.engine is not None:
        if args.engine not in ENGINES:
            raise ConfigError(f"--engine: {args.engine!r} is not one of {ENGINES}")
        cfg = dataclasses.replace(cfg, engine=args.engine)
        if args.engine == "mcwf" and cfg.mcwf is None:
            raise ConfigError("--engine mcwf needs an mcwf section in the config")
        if args.engine != "mcwf" and cfg.mcwf is not None:
            cfg = dataclasses.replace(cfg, mcwf=None)
        check_engine(cfg)
    if args.seed is not None:
        if cfg.mcwf is None:
            raise ConfigError("--seed: config has no mcwf section to override")
        if args.seed < 0:
            raise ConfigError("--seed: must be >= 0")
        cfg = dataclasses.replace(cfg, mcwf=McwfSpec(cfg.mcwf.n_traj, args.seed))
    return cfg


def _cmd_run(args, sweep: bool, force_mcwf: bool) -> int:
    cfg = load_config(args.config)
    if force_mcwf:
        if cfg.engine != "mcwf":
            raise ConfigError("trajectories: config must declare engine = mcwf")
    cfg = _apply_overrides(cfg, args)
    base = Path(args.config).stem
    out_dir = Path(args.out)
    if sweep:
        written = sweep_to_files(cfg, out_dir, base, fmt=args.format)
    else:
        written = run_to_files(cfg, out_dir, base, fmt=args.format)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_plot(args) -> int:
    src = Path(args.csv)
    header, data = read_csv(src)
    if header[0] != "t" or data.size == 0:
        raise ConfigError(f"{src}: not an emitted time-series CSV")
    names = header[1:]
    if args.columns is not None:
        wanted = [c.strip() for c in args.columns.split(",") if c.strip()]
        missing = [c for c in wanted if c not in names]
        if missing:
            raise ConfigError(f"--columns: {missing} not present in {src.name}")
        names = wanted
    t = data[:, 0]
    curves = [(name, data[:, header.index(name)]) for name in names]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dst = out_dir / f"{src.stem}.svg"
    try:
        svg = emit_svg(t, curves, title=src.stem, xlabel="t")
    except ValueError as exc:  # every input comes from the file
        raise ConfigError(f"{src}: {exc}") from exc
    dst.write_text(svg, encoding="utf-8", newline="\n")
    print(dst)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_run(args, sweep=False, force_mcwf=False)
        if args.command == "sweep":
            return _cmd_run(args, sweep=True, force_mcwf=False)
        if args.command == "trajectories":
            return _cmd_run(args, sweep=False, force_mcwf=True)
        if args.command == "plot":
            return _cmd_plot(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, FloatingPointError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
