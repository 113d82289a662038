"""Closed-form tail bounds: independent recomputation, monotonicity, and a
small-scale domination run (the full-scale one lives in the acceptance suite).
"""

import itertools
import math

import numpy as np
import pytest

from ccsradar.bounds import (
    autocorr_tail_lb,
    autocorr_tail_ub,
    crosscorr_tail_ub,
    empirical_tail,
    median_pslr_from_bound,
    median_suppression_from_bound,
    ofdm_tail_ub,
)
from ccsradar.coding import CodeConfig
from ccsradar.modulation import constellation, generate_ccs_blocks, map_bits


# ----------------------------------------------------------- upper bounds


def test_autocorr_ub_plugin_value():
    # full rate: K - l = 1023 groups of M_l = ceil(1023 / 1023) = 1 symbol
    want = 2.0 * math.exp(-(1024.0 ** 2) * 0.01 / (2.0 * 1023.0))
    got = autocorr_tail_ub(0.1, n=1024, lag=1, b=1.0, k=1024.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_autocorr_ub_group_count():
    # K - l groups of size M_l = ceil((N - l) / (K - l))
    m_l = math.ceil(1022 / 118)
    assert m_l == 9
    want = min(1.0, 2.0 * math.exp(-(1024.0 ** 2) * 0.04
                                   / (2.0 * 1.8 ** 2 * m_l ** 2 * 118.0)))
    got = autocorr_tail_ub(0.2, n=1024, lag=2, b=1.8, k=120.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_ub_clips_to_one_for_small_u():
    assert autocorr_tail_ub(1e-9, n=256, lag=1, b=1.0, k=256.0) == 1.0


def test_crosscorr_ub_reduces_to_autocorr_form():
    # symmetric full-rate pair at lag 0: K_tilde = N, M_tilde = 1
    n = 512
    pair = dict(n=n, b=1.0, k_i=float(n), k_q=float(n))
    for u in (0.05, 0.1, 0.2):
        want = min(1.0, 2.0 * math.exp(-(n ** 2) * u ** 2 / (2.0 * n)))
        assert crosscorr_tail_ub(u, lag=0, **pair) == pytest.approx(want, rel=1e-12)
        # the OFDM bound coincides here (K0 = N, M0 = 1)
        assert ofdm_tail_ub(u, **pair) == pytest.approx(want, rel=1e-12)


def test_crosscorr_ub_plugin_value():
    # K_tilde = max(K_i - l, K_q) groups of M_tilde_l = ceil((N - l) / K_tilde)
    k_t = max(120.0 - 0, 120.0)
    m_t = math.ceil(1024 / k_t)
    assert (k_t, m_t) == (120.0, 9)
    want = min(1.0, 2.0 * math.exp(-(1024.0 ** 2) * 0.01 / (2.0 * m_t ** 2 * k_t)))
    got = crosscorr_tail_ub(0.1, n=1024, lag=0, b=1.0, k_i=120.0, k_q=120.0)
    assert got == pytest.approx(want, rel=1e-12)
    # at lag l the longer signal loses l groups: K_tilde = max(170.625 - 60, 120)
    k_t = max(170.625 - 60, 120.0)
    m_t = math.ceil((1024 - 60) / k_t)
    assert (k_t, m_t) == (120.0, 9)
    want = min(1.0, 2.0 * math.exp(-(1024.0 ** 2) * 0.01 / (2.0 * m_t ** 2 * k_t)))
    got = crosscorr_tail_ub(0.1, n=1024, lag=60, b=1.0, k_i=170.625, k_q=120.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_ofdm_ub_plugin_value():
    # K0 = min(K_i, K_q) groups of M0 = ceil(N / K0)
    k0 = min(120.0, 170.625)
    m0 = math.ceil(1024 / k0)
    assert (k0, m0) == (120.0, 9)
    want = min(1.0, 2.0 * math.exp(-(1024.0 ** 2) * 0.01 / (2.0 * m0 ** 2 * k0)))
    got = ofdm_tail_ub(0.1, n=1024, b=1.0, k_i=120.0, k_q=170.625)
    assert got == pytest.approx(want, rel=1e-12)


def test_ubs_monotone_in_u_and_n():
    u = np.linspace(0.01, 0.5, 40)
    vals = autocorr_tail_ub(u, n=1024, lag=1, b=1.0, k=120.0)
    assert np.all(np.diff(vals) <= 0)
    # doubling N at fixed rate tightens the bound pointwise once it is
    # active (below the trivial clip at 1)
    by_n = [autocorr_tail_ub(0.25, n=n, lag=1, b=1.0, k=n * 120.0 / 1024.0)
            for n in (256, 512, 1024, 2048)]
    assert all(b < 1.0 for b in by_n)
    assert all(a > b for a, b in zip(by_n, by_n[1:]))


def test_ub_rejects_lag_reaching_k():
    with pytest.raises(ValueError, match="lag <= K - 1"):
        autocorr_tail_ub(0.1, n=1024, lag=130, b=1.0, k=120.0)
    with pytest.raises(ValueError, match="lag <= K - 1"):
        median_pslr_from_bound(n=1024, lag=120, b=1.0, k=120.0)


# ----------------------------------------------------------- lower bounds


def test_lb_values():
    assert autocorr_tail_lb(k=4.0, m_s=1) == 1 / 16
    # exponent -m_s K exactly, fractional K included, while it stays in range
    assert autocorr_tail_lb(k=120.0, m_s=2) == 2.0 ** -240
    assert autocorr_tail_lb(k=120.5, m_s=8) == 2.0 ** -964
    # exponents past float64 range underflow to 0.0
    assert autocorr_tail_lb(k=682.5, m_s=8) == 0.0
    # K and m_s are required keywords
    with pytest.raises(TypeError):
        autocorr_tail_lb(k=4.0)
    with pytest.raises(TypeError):
        autocorr_tail_lb(4.0, 1)


def test_lower_bound_witness_exhaustive():
    # every BPSK message of the gamma=2, K=4 repetition code, no interleaving
    code = CodeConfig(kind="repetition", n_code_bits=8, n_msg_bits=4)
    const = constellation("bpsk")
    msgs = np.array(list(itertools.product([0, 1], repeat=4)), dtype=np.uint8)
    from ccsradar.coding import encode

    sym = map_bits(encode(msgs, code), const)
    chi1 = np.einsum("tn,tn->t", sym[:, 1:], np.conj(sym[:, :-1])) / 8.0
    p_exceed = np.mean(np.abs(chi1.real) > 0.01)
    lb = autocorr_tail_lb(k=4.0, m_s=1)
    assert p_exceed >= lb
    # the all-zero and all-one messages each hit |chi(1)| = 7/8
    assert np.isclose(abs(chi1[0]), 7 / 8)
    assert np.isclose(abs(chi1[-1]), 7 / 8)


# ------------------------------------------------------- empirical tails


def test_empirical_tail_counting():
    p, _lo, _hi = empirical_tail([0.05, 0.15], [0.1])
    assert p[0] == 0.5
    p, _lo, _hi = empirical_tail(np.zeros(10), [0.1])
    assert p[0] == 0.0
    p, _lo, _hi = empirical_tail([-0.2, 0.05], [0.1])  # two-sided via |.|
    assert p[0] == 0.5
    with pytest.raises(ValueError):
        empirical_tail([], [0.1])


def test_empirical_tail_wilson_interval():
    samples = np.linspace(-0.2, 0.2, 101)
    p, lo, hi = empirical_tail(samples, [0.0999, 0.5], z=1.96)
    assert np.all(lo <= p) and np.all(p <= hi)
    assert np.all(lo >= 0.0) and np.all(hi <= 1.0)
    _p, wide_lo, wide_hi = empirical_tail(samples, [0.0999, 0.5], z=3.0)
    assert np.all(wide_lo <= lo) and np.all(wide_hi >= hi)
    # p at u = 0.5 is zero but the interval still has positive width
    assert p[1] == 0.0 and hi[1] > 0.0


def test_domination_small_scale():
    # uncoded QPSK, N = 256: Re/Im of chi(1) never exceed the analytic bound
    # beyond Monte Carlo confidence
    code = CodeConfig(kind="uncoded", n_code_bits=512, n_msg_bits=512)
    const = constellation("qpsk")
    sym = np.asarray(generate_ccs_blocks(code, const, 3000, np.random.default_rng(42),
                                         np.random.default_rng(0)))
    chi1 = np.einsum("tn,tn->t", sym[:, 1:], np.conj(sym[:, :-1])) / 256.0
    u = np.linspace(0.01, 0.25, 20)
    ub = autocorr_tail_ub(u, n=256, lag=1, b=1.0, k=256.0)
    for part in (chi1.real, chi1.imag):
        _p, lo, _hi = empirical_tail(part, u, z=3.0)
        assert np.all(lo <= ub + 1e-15)


def test_tail_probability_decays_with_n():
    code_kind = dict(kind="uncoded")
    const = constellation("qpsk")
    rng = np.random.default_rng(43)
    p_at_u = []
    for n in (256, 512, 1024):
        code = CodeConfig(n_code_bits=2 * n, n_msg_bits=2 * n, **code_kind)
        sym = np.asarray(generate_ccs_blocks(code, const, 2000, rng, np.random.default_rng(0)))
        chi1 = np.einsum("tn,tn->t", sym[:, 1:], np.conj(sym[:, :-1])) / n
        p_at_u.append(np.mean(np.abs(chi1.real) > 0.05))
    assert p_at_u[0] > p_at_u[1] > p_at_u[2]


# ------------------------------------------------------- derived medians


def test_median_pslr_from_bound_value():
    want = -20.0 * math.log10(math.sqrt(math.log(4.0) * 2.0 * 1023.0 / 1024.0 ** 2))
    got = median_pslr_from_bound(n=1024, lag=1, b=1.0, k=1024.0)
    assert got == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(25.68, abs=0.01)


def test_median_pslr_doubling_slope():
    # c roughly doubles per N doubling at full rate, so the median climbs
    # by about 3 dB per octave
    meds = [median_pslr_from_bound(n=n, lag=1, b=1.0, k=float(n))
            for n in (256, 512, 1024, 2048, 4096)]
    gains = np.diff(meds)
    assert np.all(np.abs(gains - 10 * np.log10(2)) < 0.02)


def test_median_pslr_c_scaling_algebra():
    # quadrupling c (for example via b -> b/2) adds exactly 20 log10(2) dB
    base = median_pslr_from_bound(n=1024, lag=1, b=1.0, k=1024.0)
    quad = median_pslr_from_bound(n=1024, lag=1, b=0.5, k=1024.0)
    assert quad - base == pytest.approx(20 * math.log10(2), abs=1e-12)


def test_median_suppression_values():
    pair = dict(n=1024, b=1.0, k_i=120.0, k_q=120.0)
    # cross at lag 0: K_tilde = 120 groups of M_tilde_0 = ceil(1024 / 120) = 9
    c_cross = 1024.0 ** 2 / (2.0 * 9 ** 2 * 120.0)
    want = -20.0 * math.log10(math.sqrt(math.log(4.0) / c_cross))
    assert median_suppression_from_bound("cross", **pair) == pytest.approx(want, abs=1e-12)
    # OFDM: K0 = 120 groups of M0 = ceil(1024 / 120) = 9
    c_ofdm = 1024.0 ** 2 / (2.0 * 9 ** 2 * 120.0)
    want = -20.0 * math.log10(math.sqrt(math.log(4.0) / c_ofdm))
    assert median_suppression_from_bound("ofdm", **pair) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        median_suppression_from_bound("nope", **pair)


def test_spec_validation():
    auto = dict(lag=1, b=1.0, k=8.0)
    pair = dict(b=1.0, k_i=8.0, k_q=8.0)
    # N < 2
    with pytest.raises(ValueError, match="two symbols"):
        crosscorr_tail_ub(0.1, n=1, lag=0, **pair)
    with pytest.raises(ValueError, match="two symbols"):
        ofdm_tail_ub(0.1, n=1, **pair)
    with pytest.raises(ValueError, match="two symbols"):
        median_suppression_from_bound("ofdm", n=1, **pair)
    with pytest.raises(ValueError):
        autocorr_tail_ub(0.1, n=1, **auto)
    # b <= 0
    for b in (0.0, -1.0):
        with pytest.raises(ValueError, match="b must be positive"):
            autocorr_tail_ub(0.1, n=16, lag=1, b=b, k=8.0)
        with pytest.raises(ValueError, match="b must be positive"):
            crosscorr_tail_ub(0.1, n=16, lag=0, b=b, k_i=8.0, k_q=8.0)
        with pytest.raises(ValueError, match="b must be positive"):
            ofdm_tail_ub(0.1, n=16, b=b, k_i=8.0, k_q=8.0)
    # a lag outside [0, N)
    for lag in (-1, 16):
        with pytest.raises(ValueError, match="lag out of range"):
            crosscorr_tail_ub(0.1, n=16, lag=lag, **pair)
    with pytest.raises(ValueError):
        autocorr_tail_ub(0.1, n=16, lag=16, b=1.0, k=20.0)
    # an autocorrelation lag of 0 or at least K
    for lag in (0, 8, 9):
        with pytest.raises(ValueError, match="lag <= K - 1"):
            autocorr_tail_ub(0.1, n=16, lag=lag, b=1.0, k=8.0)
        with pytest.raises(ValueError, match="lag <= K - 1"):
            median_pslr_from_bound(n=16, lag=lag, b=1.0, k=8.0)
    # fractional K: the last whole lag below K - 1 is the largest allowed
    assert autocorr_tail_ub(0.1, n=16, lag=7, b=1.0, k=8.5) <= 1.0
    with pytest.raises(ValueError):
        autocorr_tail_ub(0.1, n=16, lag=8, b=1.0, k=8.5)
    # u must be nonnegative
    with pytest.raises(ValueError, match="nonnegative"):
        autocorr_tail_ub(-0.1, n=16, **auto)
    # every size is keyword-only
    with pytest.raises(TypeError):
        autocorr_tail_ub(0.1, 16, 1, 1.0, 8.0)
    with pytest.raises(TypeError):
        median_suppression_from_bound("cross", 16, 1.0, 8.0, 8.0)
    # a pair bound needs both K_i and K_q
    with pytest.raises(TypeError):
        crosscorr_tail_ub(0.1, n=16, lag=0, b=1.0, k_i=8.0)
