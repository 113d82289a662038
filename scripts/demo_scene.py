#!/usr/bin/env python3
"""Single-trial walkthrough of the desk scene using the library API directly.

Builds one coded QPSK frame for the radar and one for an interfering radar,
each with its own messages and its own parity permutation drawn from the
demo's one generator, passes them through the two-target channel, forms the
single-carrier range-Doppler map, and prints the cell levels at the two
targets next to the strongest off-target cell.  Writes the map as CSV to --out.
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ccsradar.config import ExperimentConfig
from ccsradar.detection import summarize_map
from ccsradar.modulation import constellation, generate_ccs_blocks
from ccsradar.receiver import mf_bank, sc_range_doppler
from ccsradar.scene import apply_channel_sc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("demo_map.csv"))
    args = parser.parse_args()

    config = ExperimentConfig(seed=args.seed)
    rng = np.random.default_rng(args.seed)
    num, den, mod = config.rates[0]
    const = constellation(mod)
    code = config.code_config("polar", num, den, config.n_fast, mod)

    own = generate_ccs_blocks(code, const, config.m_slow, rng, rng)
    intf = generate_ccs_blocks(code, const, config.m_slow, rng, rng)
    y = apply_channel_sc([own, intf], config.scene(), rng)
    rdmap = sc_range_doppler(mf_bank(y, own, config.n_max))

    near, far, other = summarize_map(rdmap, config.target_bins())
    print(f"near target  (bin 14, nu 516): {near:8.4f}  (transmit gain 1.0000)")
    print(f"far target   (bin 27, nu 518): {far:8.4f}  (transmit gain "
          f"{config.gains()[1]:.4f})")
    print(f"strongest other cell:          {other:8.4f}")
    rdmap.export_csv(args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
