#!/usr/bin/env python3
"""Plot the result CSVs of ccsradar: python3 scripts/plot_results.py DIR [DIR ...]

Walks each DIR and its subdirectories and writes a PNG next to every sweep CSV
(median against block length N), tail_bounds.csv (empirical tails against
their upper bounds), roc_curves.csv (P_d and P_f per waveform) and near-far
map_<variant>.bin dump (|map| in dB over range and Doppler bins); exits 1 if
there is none.  Needs matplotlib, not a ccsradar dependency: only main imports it.
"""

import csv
import sys
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ccsradar.scene import read_frame_bin


def curves(rows, label, point):
    """{label: sorted points}, one curve per distinct label(row)."""
    out = {}
    for r in rows:
        out.setdefault(label(r), []).append(point(r))
    return {k: sorted(v) for k, v in sorted(out.items())}


def plot_sweep(axes, rows, value):
    def label(r):
        variant = r.get("metric") or {"1": "interleaved", "0": "plain"}.get(r.get("interleaved"))
        return " ".join(filter(None, (r["code"], r["rate"], r["modulation"], variant)))
    for name, pts in curves(rows, label, lambda r: (int(r["n"]), float(r[value]))).items():
        axes[0].semilogx(*zip(*pts), base=2, marker="o", label=name)
    axes[0].set(xlabel="block length N (symbols)", ylabel="median (dB)")


def plot_bounds(axes, rows):
    label = lambda r: f"{r['stat']} {r['part']} {r['code']} N={r['n']}"
    point = lambda r: (float(r["u"]), max(float(r["p_hat"]), 1e-6), max(float(r["bound"]), 1e-6))
    for name, pts in curves([r for r in rows if r["bound_side"] == "ub"], label, point).items():
        u, p_hat, bound = zip(*pts)
        axes[0].semilogy(u, p_hat, marker=".", label=name)
        axes[0].semilogy(u, bound, linestyle="--", alpha=0.5)
    axes[0].set(xlabel="u", ylabel="P(|stat| > u), dashed: upper bound")


def plot_roc(axes, rows):
    point = lambda r: (float(r["eta"]), float(r["pd"]), float(r["pf"]))
    for name, pts in curves(rows, lambda r: r["waveform"], point).items():
        eta, pd, pf = zip(*pts)
        axes[0].semilogx(eta, pd, label=name)
        axes[1].semilogx(eta, pf, label=name)
    axes[0].set(ylabel="P_d")
    axes[1].set(ylabel="P_f", xlabel="threshold eta")


def map_db(path) -> np.ndarray:
    """20 log10 |values| of a RangeDopplerMap dump, (range bin, Doppler bin % M),
    clipped at -400 dB as the map CSVs are."""
    return 20.0 * np.log10(np.maximum(np.abs(read_frame_bin(path)), 1e-20))


# CSV name -> (panels, drawer)
FIGURES = {"pslr_sweep.csv": (1, partial(plot_sweep, value="median_pslr_db")),
           "suppression_sweep.csv": (1, partial(plot_sweep, value="median_db")),
           "interleaver_study.csv": (1, partial(plot_sweep, value="median_pslr_db")),
           "tail_bounds.csv": (1, plot_bounds),
           "roc_curves.csv": (2, plot_roc)}


def draw_csv(plt, path):
    panels, draw = FIGURES[path.name]
    fig, grid = plt.subplots(panels, 1, sharex=True, squeeze=False)
    axes = [row[0] for row in grid]
    with open(path, encoding="utf-8") as fh:
        draw(axes, list(csv.DictReader(line for line in fh if line[:1] != "#")))
    for ax in axes:
        ax.grid(True, which="both", alpha=0.3)
    axes[0].legend(fontsize=6)
    return fig


def draw_map(plt, path):
    fig, grid = plt.subplots(squeeze=False)
    ax, db = grid[0][0], map_db(path)
    image = ax.imshow(db, origin="lower", aspect="auto", interpolation="nearest",
                      vmin=db.max() - 80.0, vmax=db.max())
    fig.colorbar(image, ax=ax, label="|map| (dB)")
    ax.set(xlabel="Doppler bin (mod M)", ylabel="range bin", title=path.stem)
    return fig


def main(argv=None) -> int:
    import matplotlib.pyplot as plt

    dirs = sys.argv[1:] if argv is None else argv
    found = [p for d in dirs for p in sorted(Path(d).rglob("*"))
             if p.name in FIGURES or p.match("map_*.bin")]
    for path in found:
        fig = (draw_map if path.suffix == ".bin" else draw_csv)(plt, path)
        fig.tight_layout()
        fig.savefig(path.with_suffix(".png"), dpi=150)
        plt.close(fig)
        print(f"wrote {path.with_suffix('.png')}")
    if not found:
        print(f"no result CSV or map dump under {' '.join(map(str, dirs))}", file=sys.stderr)
    return 0 if found else 1


if __name__ == "__main__":
    sys.exit(main())
