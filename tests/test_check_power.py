"""Every planted table-level defect draws a FAIL from the property registry.

Each case edits a copy of a reference table (or of the near-far RocCurves)
from the conftest fixtures the way a defective experiment would have written
it, and requires the registry check named beside it to FAIL.  The unedited tables pass every check
(test_acceptance.py), so a FAIL here is the defect's doing.  Defects that
still pass every check are listed in the README as known blind spots; none is
pinned here as passing.
"""

import dataclasses
import math

import numpy as np
import pytest

from ccsradar import experiments
from ccsradar.config import ExperimentConfig, ResultTable

# kind -> (conftest fixture, registry check, median column)
SWEEPS = {"pslr": ("pslr_table", experiments.check_pslr, "median_pslr_db"),
          "suppress": ("suppression_table", experiments.check_suppression, "median_db"),
          "interleave": ("interleaver_table", experiments.check_interleaver,
                         "median_pslr_db"),
          "bounds": ("bounds_table", experiments.check_bounds, None)}


def edited(table: ResultTable, edit) -> ResultTable:
    """A copy of table with edit(row dict) applied to each row; None drops the row."""
    rows = []
    for row in table.rows:
        r = edit(dict(zip(table.columns, row)))
        if r is not None:
            rows.append(tuple(r[c] for c in table.columns))
    return ResultTable(table.columns, rows, dict(table.meta))


def failures(checks) -> list:
    return [name for name, ok, _detail in checks if not ok]


# -- sweep defects: edit(row, median column) ------------------------------------

def tilt_polar(r, v):
    if r["code"] == "polar":
        r[v] += math.log2(r["n"] / 256)  # +1 dB per doubling of N
    return r


def drop_polar_4096(r, v):
    return None if (r["code"], r["n"]) == ("polar", 4096) else r


def ldpc_up_1db(r, v):
    if r["code"] == "ldpc":
        r[v] += 1.0
    return r


def swap_polar_interleaved(r, v):
    if r["code"] == "polar":
        r["interleaved"] = 1 - r["interleaved"]
    return r


def uncoded_ofdm_up_2db(r, v):
    if r["code"] == "uncoded" and r["metric"] == "ofdm_kernel":
        r[v] += 2.0
    return r


def ldpc_plain_up_half_db(r, v):
    if r["code"] == "ldpc" and r["interleaved"] == 0:
        r[v] += 0.5
    return r


def high_rate_plain_up_2db(r, v):
    if r["rate"] == "682.5/1024" and r["interleaved"] == 0:
        r[v] += 2.0
    return r


def offset(db):
    def edit(r, v):
        r[v] += db
        return r
    return edit


# -- bounds defects ------------------------------------------------------------

def _first_ub(r):
    """The upper-bound row of polar Re chi(1) at N = 256 and the grid's first u."""
    return (r["bound_side"], r["stat"], r["part"], r["code"], r["n"], r["u"]) == \
        ("ub", "chi1", "re", "polar", 256, ExperimentConfig.u_min)


def clear_ub_flag(r, _v):
    if _first_ub(r):
        r["dominated"] = 0
    return r


def raise_wilson_lo(r, _v):
    if _first_ub(r):  # above the bound, flag kept
        r["wilson_lo"] = r["bound"] + 0.1
    return r


def lower_lb_p_hat(r, _v):
    if r["stat"] == "chi_lb_l1":  # below the bound, flag kept
        r["p_hat"] = r["wilson_lo"] = r["wilson_hi"] = r["bound"] / 2
    return r


def drop_lb_witness(r, _v):
    return None if r["bound_side"] == "lb" else r


@pytest.mark.parametrize("kind,edit,killer", [
    pytest.param("pslr", tilt_polar, "slope_polar_120/1024_qpsk", id="pslr-polar-tilt"),
    pytest.param("suppress", tilt_polar, "slope_sc_cross_polar_120/1024_qpsk",
                 id="suppress-polar-tilt"),
    pytest.param("interleave", tilt_polar, "interleaved_matches_uncoded_polar",
                 id="interleave-polar-tilt"),
    pytest.param("pslr", drop_polar_4096, "slope_polar_120/1024_qpsk",
                 id="pslr-polar-4096-dropped"),
    pytest.param("suppress", drop_polar_4096, "slope_sc_cross_polar_120/1024_qpsk",
                 id="suppress-polar-4096-dropped"),
    pytest.param("interleave", drop_polar_4096, "interleaved_matches_uncoded_polar",
                 id="interleave-polar-4096-dropped"),
    pytest.param("pslr", ldpc_up_1db, "polar_ldpc_gap_120/1024_qpsk", id="pslr-ldpc-up-1db"),
    pytest.param("interleave", ldpc_up_1db, "interleaved_matches_uncoded_ldpc",
                 id="interleave-ldpc-up-1db"),
    pytest.param("interleave", swap_polar_interleaved, "plain_below_interleaved_polar",
                 id="interleave-polar-flag-swapped"),
    pytest.param("interleave", ldpc_plain_up_half_db, "plain_matches_interleaved_ldpc",
                 id="interleave-ldpc-plain-up-0.5db"),
    pytest.param("interleave", high_rate_plain_up_2db, "high_rate_plain_near_uncoded_polar",
                 id="interleave-high-rate-plain-up-2db-polar"),
    pytest.param("interleave", high_rate_plain_up_2db, "high_rate_plain_near_uncoded_ldpc",
                 id="interleave-high-rate-plain-up-2db-ldpc"),
    pytest.param("suppress", uncoded_ofdm_up_2db, "sc_vs_ofdm_qpsk",
                 id="suppress-uncoded-ofdm-up-2db"),
    pytest.param("pslr", offset(10.0), "uncoded_qpsk_median_n1024", id="pslr-offset+10db"),
    pytest.param("pslr", offset(-10.0), "uncoded_qpsk_median_n1024", id="pslr-offset-10db"),
    pytest.param("bounds", clear_ub_flag, "upper_bounds_dominate", id="bounds-ub-flag-cleared"),
    pytest.param("bounds", raise_wilson_lo, "upper_bounds_dominate",
                 id="bounds-wilson-lo-above-bound"),
    pytest.param("bounds", lower_lb_p_hat, "lower_bound_witness",
                 id="bounds-lb-p-hat-below-bound"),
    pytest.param("bounds", drop_lb_witness, "lower_bound_witness", id="bounds-lb-rows-dropped"),
])
def test_table_defect_fails_its_check(request, base_config, kind, edit, killer):
    fixture, check, value = SWEEPS[kind]
    config = dataclasses.replace(base_config, kind=kind)
    table = edited(request.getfixturevalue(fixture), lambda r: edit(r, value))
    assert killer in failures(check(table, config))


# -- near-far defects ------------------------------------------------------------

def far_min_below_window(config):
    low = config.gains()[1] * 10 ** (-3.5 / 20)  # the window starts at -3 dB

    def edit(r):
        if r["variant"] == "ccs_sc":
            r["far_min"] = low
        return r
    return edit


def no_sweet_band(config):
    def edit(r):
        if r["variant"] == "ccs_sc":
            r["band_points"] = 0
        return r
    return edit


def other_cell_above_near(config):
    def edit(r):
        if r["variant"] == "ccs_ofdm":
            r["max_other_max"] = 1.01 * r["near_min"]
        return r
    return edit


@pytest.mark.parametrize("make_edit,killer", [
    pytest.param(far_min_below_window, "far_peak_within_3db_ccs_sc", id="far-min-below-3db"),
    pytest.param(no_sweet_band, "sweet_band_nonempty_ccs_sc", id="band-points-0"),
    pytest.param(other_cell_above_near, "targets_above_other_cells_ccs_ofdm",
                 id="max-other-above-near"),
])
def test_nearfar_defect_fails_its_check(nearfar_results, base_config, make_edit, killer):
    table, roc, levels = nearfar_results
    config = dataclasses.replace(base_config, kind="nearfar")
    mutant = edited(table, make_edit(config))
    assert killer in failures(experiments.check_nearfar(mutant, roc, config, levels))


# -- near-far ROC defects: edit(pd, pf) on copies of the curve dicts ---------------

def fmcw_pf_as_sc_nointf(pd, pf):
    pf["fmcw"] = pf["ccs_sc_nointf"].copy()


def ofdm_pd_down(pd, pf):
    pd["ccs_ofdm"] = pd["ccs_ofdm"] - 0.1


def pd_shifted(variant, points=5):
    def edit(pd, pf):
        # the whole curve moved 5 grid points towards lower eta
        pd[variant] = np.concatenate([pd[variant][points:], np.repeat(pd[variant][-1], points)])
    return edit


@pytest.mark.parametrize("edit,killer", [
    pytest.param(fmcw_pf_as_sc_nointf, "fmcw_false_alarm_excess", id="fmcw-pf-as-sc-nointf"),
    pytest.param(ofdm_pd_down, "sc_vs_ofdm_pd", id="ofdm-pd-down-0.1"),
    pytest.param(pd_shifted("ccs_sc"), "ccs_sc_matches_fmcw_pd", id="sc-pd-shifted-5-points"),
    pytest.param(pd_shifted("ccs_ofdm"), "ccs_ofdm_matches_fmcw_pd",
                 id="ofdm-pd-shifted-5-points"),
])
def test_nearfar_roc_defect_fails_its_check(nearfar_results, base_config, edit, killer):
    table, roc, levels = nearfar_results
    config = dataclasses.replace(base_config, kind="nearfar")
    pd, pf = dict(roc.pd), dict(roc.pf)
    edit(pd, pf)
    mutant = dataclasses.replace(roc, pd=pd, pf=pf)  # RocCurves is frozen
    assert killer in failures(experiments.check_nearfar(table, mutant, config, levels))
