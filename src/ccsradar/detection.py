"""Thresholded detection on range-Doppler maps and ROC aggregation.

A bin detects when |R[l, nu]| > eta.  The detection probability averages the
per-target indicators, which for the two-target scene reproduces the tiers
1 (both), 1/2 (exactly one), 0 (none).  False alarms count any exceedance at
range bins 1..n_max outside the target bins; the transmit-leakage row l = 0
is excluded from the false-alarm search.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .bounds import empirical_tail
from .receiver import RangeDopplerMap


def false_alarm_mask(shape: tuple, target_bins) -> np.ndarray:
    """The false-alarm cells of an (n_max + 1, M) map: range bins 1..n_max
    outside the target bins, whose Doppler bins wrap modulo M."""
    mask = np.ones(shape, dtype=bool)
    mask[0, :] = False
    for l, nu in target_bins:
        mask[l, nu % shape[1]] = False
    return mask


def summarize_map(rdmap: RangeDopplerMap, target_bins) -> np.ndarray:
    """A map's levels row, the sufficient statistics of threshold sweeps:
    [target magnitudes..., largest other magnitude] as float64."""
    mags = np.abs(rdmap.values)
    levels = [abs(rdmap.value_at(l, nu)) for l, nu in target_bins]
    return np.array(levels + [mags[false_alarm_mask(mags.shape, target_bins)].max()])


@dataclass(frozen=True)
class RocCurves:
    """Detection and false-alarm curves per waveform on a common eta grid."""

    eta: np.ndarray
    pd: dict
    pf: dict
    pd_lo: dict
    pd_hi: dict

    def export_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["eta", "pd", "pf", "ci_lo", "ci_hi", "waveform"])
            for wf in self.pd:
                for g in range(self.eta.size):
                    w.writerow([f"{self.eta[g]:.10g}", f"{self.pd[wf][g]:.8f}",
                                f"{self.pf[wf][g]:.8f}", f"{self.pd_lo[wf][g]:.8f}",
                                f"{self.pd_hi[wf][g]:.8f}", wf])


def grid_pd_gap(pd, pd_ref) -> float:
    """Largest P_d gap of a curve from a reference at the eta grid's resolution.

    At each grid index g the reference envelope spans the smallest and
    largest reference P_d over the points g-1, g, g+1 (clipped at the grid
    ends); the gap at g is how far pd[g] lies outside that envelope.  P_d is
    monotone in eta, so a step that lands one grid point away from the
    reference's step costs nothing, while a step spread over several grid
    points still shows.  Where the
    reference is flat across three neighbouring points this equals the
    pointwise gap |pd[g] - pd_ref[g]|.
    """
    pd = np.asarray(pd, dtype=float)
    padded = np.pad(np.asarray(pd_ref, dtype=float), 1, mode="edge")
    window = np.stack([padded[:-2], padded[1:-1], padded[2:]])
    outside = np.maximum(window.min(axis=0) - pd, pd - window.max(axis=0))
    return float(max(0.0, outside.max()))


def make_eta_grid(levels_by_waveform: dict, points: int) -> np.ndarray:
    """Log grid from a tenth of the lowest positive sidelobe ceiling up to twice
    the largest peak, shared by every waveform in the sweep.  A ceiling of
    exactly 0 (an exactly sparse map) lies below every grid point anyway."""
    trials = np.concatenate(list(levels_by_waveform.values()))
    other = trials[:, -1]
    lo = 0.1 * other[other > 0].min(initial=np.inf)
    hi = 2.0 * trials[:, :-1].max()
    if not 0 < lo < hi:
        raise ValueError("degenerate level spread for eta grid")
    return np.geomspace(lo, hi, points)


def threshold_sweep(levels_by_waveform: dict, points: int) -> RocCurves:
    """ROC curves over the common make_eta_grid threshold grid.

    levels_by_waveform maps a waveform label to its (trials, targets + 1)
    levels array, one summarize_map row per trial.  P_d is the empirical_tail
    of the target columns and P_f that of the last (off-target maximum)
    column, so both are monotone in eta; the Wilson interval of P_d treats the
    per-target detections as independent Bernoulli draws.
    """
    for wf, rows in levels_by_waveform.items():
        if len(rows) == 0:
            raise ValueError(f"no trials for waveform {wf!r}")
    eta = make_eta_grid(levels_by_waveform, points)
    pd, pf, lo, hi = {}, {}, {}, {}
    for wf, rows in levels_by_waveform.items():
        pd[wf], lo[wf], hi[wf] = empirical_tail(rows[:, :-1], eta)
        pf[wf] = empirical_tail(rows[:, -1], eta)[0]
    return RocCurves(eta=eta, pd=pd, pf=pf, pd_lo=lo, pd_hi=hi)
