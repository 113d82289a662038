"""Command-line front end.

One subcommand per experiment; results land in the output directory as CSV
(plus binary map/frame dumps for the near-far study).  Exit codes: 0 success,
2 configuration error, 3 when --check finds a violated property.
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
        s.add_argument("--plot-script", action="store_true",
                       help="also emit a standalone matplotlib script for the CSVs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else ExperimentConfig()
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
        out.mkdir(parents=True, exist_ok=True)
        checks = _run(config, out, args.check)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.plot_script:
        path = out / f"plot_{config.kind}.py"
        path.write_text(_plot_script(config.kind), encoding="utf-8")
        print(f"wrote {path}")
    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        print(f"[check] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return 3 if failed else 0


def _run(config: ExperimentConfig, out: Path, run_checks: bool) -> list:
    _help, driver, csv_name, check, _plot = _KINDS[config.kind]
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


def _plot_script(kind: str) -> str:
    """Standalone matplotlib script matching the CSV this experiment wrote."""
    _help, _driver, _csv_name, _check, body = _KINDS[kind]
    return _PLOT_HEADER + body


_PLOT_HEADER = '''\
"""Generated plotting helper; needs matplotlib, reads the CSVs next to it."""
import csv
import pathlib

import matplotlib.pyplot as plt

here = pathlib.Path(__file__).parent


def read(name):
    rows = [r for r in csv.DictReader(
        (l for l in open(here / name, encoding="utf-8") if not l.startswith("#")))]
    return rows


'''

_PLOT_SWEEP = '''\
rows = read("{csv}")
curves = {{}}
for r in rows:
    key = tuple(r.get(k, "") for k in ("code", "rate", "modulation",
                                       "metric", "interleaved"))
    curves.setdefault(key, []).append((int(r["n"]), float(r["{value}"])))
for key, pts in sorted(curves.items()):
    pts.sort()
    plt.semilogx([n for n, _ in pts], [v for _, v in pts], base=2,
                 marker="o", label=" ".join(k for k in key if k))
plt.xlabel("N (symbols)")
plt.ylabel("median (dB)")
plt.grid(True, which="both", alpha=0.3)
plt.legend(fontsize=7)
plt.tight_layout()
plt.savefig(here / "{csv}".replace(".csv", ".png"), dpi=150)
'''

_PLOT_BOUNDS = '''\
rows = read("tail_bounds.csv")
curves = {}
for r in rows:
    if r["bound_side"] != "ub":
        continue
    key = (r["stat"], r["part"], r["code"], r["n"])
    curves.setdefault(key, []).append(
        (float(r["u"]), float(r["p_hat"]), float(r["bound"])))
fig, ax = plt.subplots()
for key, pts in sorted(curves.items()):
    pts.sort()
    u = [p[0] for p in pts]
    ax.semilogy(u, [max(p[1], 1e-6) for p in pts], marker=".", label="/".join(key))
    ax.semilogy(u, [max(p[2], 1e-6) for p in pts], linestyle="--", alpha=0.5)
ax.set_xlabel("u")
ax.set_ylabel("P(|stat| > u)")
ax.grid(True, alpha=0.3)
ax.legend(fontsize=5)
fig.tight_layout()
fig.savefig(here / "tail_bounds.png", dpi=150)
'''

_PLOT_ROC = '''\
rows = read("roc_curves.csv")
curves = {}
for r in rows:
    curves.setdefault(r["waveform"], []).append(
        (float(r["eta"]), float(r["pd"]), float(r["pf"])))
fig, (ax_d, ax_f) = plt.subplots(2, 1, sharex=True)
for wf, pts in sorted(curves.items()):
    pts.sort()
    eta = [p[0] for p in pts]
    ax_d.semilogx(eta, [p[1] for p in pts], label=wf)
    ax_f.semilogx(eta, [p[2] for p in pts], label=wf)
ax_d.set_ylabel("P_d")
ax_f.set_ylabel("P_f")
ax_f.set_xlabel("threshold")
for ax in (ax_d, ax_f):
    ax.grid(True, which="both", alpha=0.3)
ax_d.legend(fontsize=7)
fig.tight_layout()
fig.savefig(here / "roc_curves.png", dpi=150)
'''

# kind -> (help, driver, CSV file, check, plot script body); driver and check name
# functions in experiments, looked up at call time so a rebound one runs
_KINDS = {
    "pslr": ("median autocorrelation PSLR vs block length", "run_pslr_sweep",
             "pslr_sweep.csv", "check_pslr",
             _PLOT_SWEEP.format(csv="pslr_sweep.csv", value="median_pslr_db")),
    "suppress": ("median interference suppression vs block length", "run_suppression_sweep",
                 "suppression_sweep.csv", "check_suppression",
                 _PLOT_SWEEP.format(csv="suppression_sweep.csv", value="median_db")),
    "interleave": ("interleaver on/off PSLR comparison", "run_interleaver_study",
                   "interleaver_study.csv", "check_interleaver",
                   _PLOT_SWEEP.format(csv="interleaver_study.csv", value="median_pslr_db")),
    "bounds": ("empirical tails vs analytic bounds", "run_tail_bound_check",
               "tail_bounds.csv", "check_bounds", _PLOT_BOUNDS),
    "nearfar": ("two-target near-far scene with an interfering radar", "run_near_far",
                "nearfar_summary.csv", "check_nearfar", _PLOT_ROC),
}
