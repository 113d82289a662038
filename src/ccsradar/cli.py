"""Command-line front end.

One subcommand per experiment; results land in the output directory as CSV
(plus binary map/frame dumps for the near-far study).  Exit codes: 0 success,
2 bad configuration or output path, 3 when --check finds a violated property.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments
from .config import ConfigError, ExperimentConfig, load_config

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccsradar",
        description="Radar-sensing quality of channel-coded communications signals")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in _KINDS.items():
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", type=Path, help="INI config file")
        s.add_argument("--seed", type=int, help="master seed (overrides config)")
        s.add_argument("--trials", type=int, help="trial count (overrides config)")
        s.add_argument("--out", type=Path, help="output directory (overrides config)")
        s.add_argument("--check", action="store_true",
                       help="verify the documented result properties, exit 3 on failure")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else ExperimentConfig()
        if config.kind not in ("", args.command):
            raise ConfigError(f"[experiment] kind = {config.kind} is for the "
                              f"{config.kind} command, not {args.command}")
        overrides = {"kind": args.command}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.trials is not None:
            overrides["trials"] = args.trials
        if args.out is not None:
            overrides["out_dir"] = str(args.out)
        config = replace(config, **overrides)
        config.require_seed()
        if config.resolved_trials() < 1:
            raise ConfigError("trials must be positive")
        config.validate()
        out = Path(config.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
        try:
            checks = _run(config, out, args.check)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        print(f"[check] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return 3 if failed else 0


def _run(config: ExperimentConfig, out: Path, run_checks: bool) -> list:
    _help, driver, csv_name, check = _KINDS[config.kind]
    if config.kind == "nearfar":
        table, roc, levels = getattr(experiments, driver)(config, dump_dir=out)
        args = (table, roc, config, levels)
    else:
        table = getattr(experiments, driver)(config)
        args = (table, config)
    table.write_csv(out / csv_name)
    print(f"wrote {out / csv_name}")
    if config.kind == "nearfar":
        roc.export_csv(out / "roc_curves.csv")
        print(f"wrote {out / 'roc_curves.csv'} and per-variant map dumps")
    return getattr(experiments, check)(*args) if run_checks else []


# kind -> (help, driver, CSV file, check); driver and check name functions in
# experiments, looked up at call time so a rebound one runs
_KINDS = {
    "pslr": ("median autocorrelation PSLR vs block length", "run_pslr_sweep",
             "pslr_sweep.csv", "check_pslr"),
    "suppress": ("median interference suppression vs block length", "run_suppression_sweep",
                 "suppression_sweep.csv", "check_suppression"),
    "interleave": ("interleaver on/off PSLR comparison", "run_interleaver_study",
                   "interleaver_study.csv", "check_interleaver"),
    "bounds": ("empirical tails vs analytic bounds", "run_tail_bound_check",
               "tail_bounds.csv", "check_bounds"),
    "nearfar": ("two-target near-far scene with an interfering radar", "run_near_far",
                "nearfar_summary.csv", "check_nearfar"),
}
