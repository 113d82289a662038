"""Threshold detection, ROC aggregation, and the near-far detection contract."""

import numpy as np
import pytest

from dataclasses import dataclass

from ccsradar.detection import (
    grid_pd_gap,
    make_eta_grid,
    summarize_map,
    threshold_sweep,
)
from ccsradar.receiver import RangeDopplerMap

TARGETS = ((2, 5), (4, 9))
M_SLOW = 16
N_ROWS = 7  # n_max = 6


# ------------------------------------ per-map threshold rule (the oracle)


@dataclass(frozen=True)
class DetectionOutcome:
    """detect() verdict at one threshold; exceeding lists non-target (l, nu) bins."""

    eta: float
    detected: tuple[bool, ...]
    false_alarm: bool
    exceeding: np.ndarray


def detect(rdmap, eta, target_bins):
    """The threshold rule on one map: a target bin detects when |R| > eta, and
    any other bin above eta outside the leakage row l = 0 is a false alarm."""
    if eta <= 0:
        raise ValueError("threshold must be positive")
    mags = np.abs(rdmap.values)
    detected = tuple(bool(abs(rdmap.value_at(l, nu)) > eta) for l, nu in target_bins)
    others = np.ones(mags.shape, dtype=bool)
    others[0, :] = False
    for l, nu in target_bins:
        others[l, nu % rdmap.n_slow] = False
    rows, cols = np.nonzero((mags > eta) & others)
    nus = np.where(cols == 0, rdmap.n_slow, cols)
    exceeding = np.stack([rows, nus], axis=1) if rows.size else np.empty((0, 2), dtype=int)
    return DetectionOutcome(eta=eta, detected=detected,
                            false_alarm=bool(rows.size), exceeding=exceeding)


def estimate_pd(outcomes):
    """Average per-target detection fraction over trials."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no outcomes")
    return float(np.mean([np.mean(o.detected) for o in outcomes]))


def estimate_pf(outcomes):
    """Fraction of trials with at least one non-target exceedance."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no outcomes")
    return float(np.mean([o.false_alarm for o in outcomes]))


def _map(near=0.0, far=0.0, extra=()):
    vals = np.zeros((N_ROWS, M_SLOW), dtype=complex)
    vals[2, 5] = near
    vals[4, 9] = far
    vals[0, 3] = 10.0  # leakage row, must never count as a false alarm
    for (l, nu), level in extra:
        vals[l, nu % M_SLOW] = level
    return RangeDopplerMap(vals)


def test_detect_tiers():
    both = detect(_map(1.0, 0.5), 0.2, TARGETS)
    assert both.detected == (True, True) and not both.false_alarm
    near_only = detect(_map(1.0, 0.1), 0.2, TARGETS)
    assert near_only.detected == (True, False)
    none = detect(_map(0.05, 0.01), 0.2, TARGETS)
    assert none.detected == (False, False)
    assert estimate_pd([both]) == 1.0
    assert estimate_pd([near_only]) == 0.5
    assert estimate_pd([none]) == 0.0


def test_estimate_pd_tally():
    outcomes = [detect(_map(1.0, 0.5), 0.2, TARGETS),
                detect(_map(1.0, 0.5), 0.2, TARGETS),
                detect(_map(1.0, 0.1), 0.2, TARGETS),
                detect(_map(0.0, 0.0), 0.2, TARGETS)]
    assert estimate_pd(outcomes) == pytest.approx(0.625)
    assert estimate_pf(outcomes) == 0.0


def test_false_alarm_masking():
    # leakage row never fires; a non-target bin above threshold does
    clean = detect(_map(1.0, 0.5), 0.2, TARGETS)
    assert not clean.false_alarm and clean.exceeding.shape == (0, 2)
    noisy = detect(_map(1.0, 0.5, extra=[((3, 16), 0.9)]), 0.2, TARGETS)
    assert noisy.false_alarm
    assert noisy.exceeding.tolist() == [[3, 16]]  # column 0 reports as bin M
    assert estimate_pf([clean, noisy]) == 0.5


def test_detect_validation():
    with pytest.raises(ValueError):
        detect(_map(1.0, 1.0), 0.0, TARGETS)
    with pytest.raises(ValueError):
        estimate_pd([])
    with pytest.raises(ValueError):
        estimate_pf([])


def test_summarize_map():
    rd = _map(0.8, 0.3, extra=[((5, 2), 0.07)])
    row = summarize_map(rd, TARGETS)
    assert row.dtype == np.float64 and row.shape == (3,)
    assert row.tolist()[:2] == [0.8, 0.3]
    assert row[2] == pytest.approx(0.07)


def test_make_eta_grid_range():
    levels = {"a": np.array([[1.0, 0.4, 0.02]]),
              "b": np.array([[0.9, 0.5, 0.05]])}
    grid = make_eta_grid(levels, points=50)
    assert grid.size == 50
    assert grid[0] == pytest.approx(0.002)
    assert grid[-1] == pytest.approx(2.0)
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(ValueError):
        make_eta_grid({"a": np.array([[1.0, 0.0]])})


def test_threshold_sweep_monotone_and_consistent():
    rng = np.random.default_rng(3)
    maps = [_map(1.0 + 0.1 * rng.standard_normal(),
                 0.3 + 0.05 * rng.standard_normal(),
                 extra=[((5, 2), abs(0.05 * rng.standard_normal()))])
            for _ in range(40)]
    roc = threshold_sweep({"sc": np.array([summarize_map(m, TARGETS) for m in maps])},
                          points=64)
    pd, pf = roc.pd["sc"], roc.pf["sc"]
    assert np.all(np.diff(pd) <= 1e-12) and np.all(np.diff(pf) <= 1e-12)
    assert np.all((roc.pd_lo["sc"] <= pd) & (pd <= roc.pd_hi["sc"]))
    # spot-check against the explicit detector at a few thresholds
    for g in (0, 20, 40, 63):
        eta = roc.eta[g]
        outcomes = [detect(m, eta, TARGETS) for m in maps]
        assert pd[g] == pytest.approx(estimate_pd(outcomes), abs=1e-12)
        assert pf[g] == pytest.approx(estimate_pf(outcomes), abs=1e-12)


def test_threshold_sweep_tallies_levels_on_its_grid():
    # levels 0.35 < 0.4 < 0.9 < 1.0 and others 0.01, 0.02; the grid runs from
    # 0.001 to 2.0, so every tier shows up and both ends are exact
    levels = np.array([[1.0, 0.4, 0.01], [0.9, 0.35, 0.02]])
    roc = threshold_sweep({"x": levels}, points=400)
    assert np.array_equal(roc.eta, make_eta_grid({"x": levels}, 400))
    tiers = {}
    for eta, pd, pf in zip(roc.eta, roc.pd["x"], roc.pf["x"]):
        tiers[(pd, pf)] = tiers.get((pd, pf), 0) + 1
        if eta < 0.01:
            assert (pd, pf) == (1.0, 1.0)
        elif 0.02 <= eta < 0.35:
            assert (pd, pf) == (1.0, 0.0)
        elif 0.4 <= eta < 0.9:
            assert (pd, pf) == (0.5, 0.0)
        elif eta >= 1.0:
            assert (pd, pf) == (0.0, 0.0)
    assert set(tiers) == {(1.0, 1.0), (1.0, 0.5), (1.0, 0.0), (0.75, 0.0), (0.5, 0.0),
                          (0.25, 0.0), (0.0, 0.0)}
    with pytest.raises(ValueError):
        threshold_sweep({"x": np.empty((0, 3))})


def test_single_trial_curve_steps():
    roc = threshold_sweep({"x": np.array([[1.0, 0.4, 0.01]])}, points=100)
    assert set(np.unique(roc.pd["x"])) <= {0.0, 0.5, 1.0}


def test_roc_export_csv(tmp_path):
    levels = {"a": np.array([[1.0, 0.4, 0.01]]), "b": np.array([[0.8, 0.3, 0.02]])}
    roc = threshold_sweep(levels, points=10)
    path = tmp_path / "roc.csv"
    roc.export_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "eta,pd,pf,ci_lo,ci_hi,waveform"
    assert len(rows) == 1 + 10 * 2
    assert rows[1].endswith(",a") and rows[-1].endswith(",b")


# ------------------------------------------- P_d gap at grid resolution

ETA_STEP_GRID = np.linspace(0.20, 0.30, 11)  # one grid step is 0.01


def _far_curves(far_levels, eta=ETA_STEP_GRID):
    """P_d of hand-built c.c.s trials and of FMCW trials whose far peaks all
    sit at 0.2505, between grid points 0.25 and 0.26; near peaks at 1.0."""
    def pd(far):
        return np.array([estimate_pd(detect(_map(1.0, f), e, TARGETS) for f in far)
                         for e in eta])
    return pd(far_levels), pd([0.2505] * len(far_levels))


def test_grid_pd_gap_forgives_spread_within_one_step():
    # half the far peaks just below grid point 0.25, half just above: the
    # pointwise gap there is 0.25, yet both curves step within one grid step
    pd, ref = _far_curves([0.248, 0.252] * 10)
    assert np.max(np.abs(pd - ref)) > 0.05 and grid_pd_gap(pd, ref) == 0.0


def test_grid_pd_gap_flags_spread_over_several_steps():
    pd, ref = _far_curves([0.215 + 0.01 * k for k in range(8)])
    assert grid_pd_gap(pd, ref) > 0.05


def test_grid_pd_gap_equals_pointwise_gap_on_flat_stretch():
    # below 0.25 every FMCW far peak is detected, so the reference is flat
    pd, ref = _far_curves([0.215 + 0.01 * k for k in range(8)],
                          eta=np.linspace(0.20, 0.24, 5))
    assert grid_pd_gap(pd, ref) == np.max(np.abs(pd - ref)) > 0


# --------------------------------------------- near-far detection contract


def _sweet_band_mask(roc, variant):
    return (roc.pd[variant] >= 1.0) & (roc.pf[variant] <= 0.0)


def test_near_far_sweet_spot_band(nearfar_results):
    _, roc, _ = nearfar_results
    for variant in ("ccs_sc", "ccs_ofdm"):
        band = _sweet_band_mask(roc, variant)
        assert band.any(), f"no sweet-spot threshold for {variant}"


def test_near_far_ccs_tracks_fmcw_inside_common_band(nearfar_results):
    # where both waveforms sit in their perfect-detection band the curves
    # cannot disagree; this pins the band overlap itself
    _, roc, _ = nearfar_results
    for variant in ("ccs_sc", "ccs_ofdm"):
        common = _sweet_band_mask(roc, variant) & _sweet_band_mask(roc, "fmcw")
        assert common.sum() >= 10
        gap = np.abs(roc.pd[variant][common] - roc.pd["fmcw"][common])
        assert gap.max() <= 0.05


def test_near_far_sc_and_ofdm_agree(nearfar_results):
    _, roc, _ = nearfar_results
    gap = np.abs(roc.pd["ccs_sc"] - roc.pd["ccs_ofdm"])
    assert gap.max() <= 0.05
