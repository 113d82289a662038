#!/usr/bin/env python3
"""Run all five experiments at their reference settings and write their CSVs.

About one minute on one core at the default trial counts (54 s on one core of
a 2-core Intel Xeon with Python 3.11.7 and numpy 2.4.6, 42 s of it in the
near-far study).  Pass --trials to downscale everything for a quick smoke
run; property checks only run at the reference trial counts (their
tolerances assume them) and print as '[check] name: PASS/FAIL (detail)'
lines.  The exit code is 0 only if every experiment ran and every executed
check passed.  The figures come from scripts/plot_results.py, which the
summary names.

Note: the two near-far '*_matches_fmcw_pd' checks compare the coded
signals' detection curves with the interference-free FMCW reference at the
resolution of the threshold grid.  The c.c.s far-peak spread (std about
0.0026 against 0.0007 for FMCW, as the finite-N*M sidelobe predicts) can
straddle one grid point next to the sharper FMCW step; that gives a
pointwise gap of 0.12-0.16 at the reference seed but no grid-resolution gap.
Each check line prints both gaps and the far-peak spreads; see README.md.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ccsradar.cli import main as ccsradar_main

KINDS = ("pslr", "suppress", "interleave", "bounds", "nearfar")


def run(kind: str, args) -> int:
    config = pathlib.Path(__file__).resolve().parents[1] / "configs" / f"{kind}.ini"
    argv = [kind, "--config", str(config), "--out", str(args.out / kind)]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    if args.trials is not None:
        argv += ["--trials", str(args.trials)]  # downscaled: skip --check
    else:
        argv += ["--check"]
    print(f"== {kind} ==")
    return ccsradar_main(argv)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("out"))
    parser.add_argument("--seed", type=int, default=None,
                        help="override the per-config seed")
    parser.add_argument("--trials", type=int, default=None,
                        help="override every experiment's trial count")
    parser.add_argument("--only", choices=KINDS, action="append",
                        help="run a subset (repeatable)")
    args = parser.parse_args()
    codes = {kind: run(kind, args) for kind in (args.only or KINDS)}
    print("== summary ==")
    for kind, code in codes.items():
        print(f"{kind}: exit {code}")
    print(f"figures: python3 scripts/plot_results.py {args.out}")
    return max(codes.values())


if __name__ == "__main__":
    sys.exit(main())
