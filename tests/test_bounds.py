"""Closed-form tail bounds: independent recomputation, monotonicity, and a
small-scale domination run (the full-scale one lives in the acceptance suite).
"""

import itertools
import math

import numpy as np
import pytest

from ccsradar.bounds import (
    TailBoundSpec,
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
    spec = TailBoundSpec(N=1024, lag=1, b=1.0, K=1024.0, m_s=2)
    assert spec.M_l == 1
    want = 2.0 * math.exp(-(1024.0 ** 2) * 0.01 / (2.0 * 1023.0))
    assert autocorr_tail_ub(spec, 0.1) == pytest.approx(want, rel=1e-12)


def test_autocorr_ub_group_count():
    # K - l groups of size M_l = ceil((N - l) / (K - l))
    spec = TailBoundSpec(N=1024, lag=2, b=1.8, K=120.0, m_s=4)
    assert spec.M_l == math.ceil(1022 / 118)
    want = min(1.0, 2.0 * math.exp(-(1024.0 ** 2) * 0.04
                                   / (2.0 * 1.8 ** 2 * spec.M_l ** 2 * 118.0)))
    assert autocorr_tail_ub(spec, 0.2) == pytest.approx(want, rel=1e-12)


def test_ub_clips_to_one_for_small_u():
    spec = TailBoundSpec(N=256, lag=1, K=256.0, m_s=2)
    assert autocorr_tail_ub(spec, 1e-9) == 1.0


def test_crosscorr_ub_reduces_to_autocorr_form():
    # symmetric full-rate pair at lag 0: K_tilde = N, M_tilde = 1
    n = 512
    spec = TailBoundSpec(N=n, lag=0, b=1.0, K_i=float(n), K_q=float(n))
    assert spec.K_tilde == n and spec.M_tilde_l == 1
    for u in (0.05, 0.1, 0.2):
        want = min(1.0, 2.0 * math.exp(-(n ** 2) * u ** 2 / (2.0 * n)))
        assert crosscorr_tail_ub(spec, u) == pytest.approx(want, rel=1e-12)
        # the OFDM bound coincides here (K0 = N, M0 = 1)
        assert ofdm_tail_ub(spec, u) == pytest.approx(want, rel=1e-12)


def test_crosscorr_ub_plugin_value():
    spec = TailBoundSpec(N=1024, lag=0, b=1.0, K_i=120.0, K_q=120.0)
    k_t = max(120.0 - 0, 120.0)
    m_t = math.ceil(1024 / k_t)
    want = min(1.0, 2.0 * math.exp(-(1024.0 ** 2) * 0.01 / (2.0 * m_t ** 2 * k_t)))
    assert crosscorr_tail_ub(spec, 0.1) == pytest.approx(want, rel=1e-12)


def test_ofdm_ub_plugin_value():
    spec = TailBoundSpec(N=1024, b=1.0, K_i=120.0, K_q=170.625)
    assert spec.K0 == 120.0
    m0 = math.ceil(1024 / 120)
    want = min(1.0, 2.0 * math.exp(-(1024.0 ** 2) * 0.01 / (2.0 * m0 ** 2 * 120.0)))
    assert ofdm_tail_ub(spec, 0.1) == pytest.approx(want, rel=1e-12)


def test_ubs_monotone_in_u_and_n():
    u = np.linspace(0.01, 0.5, 40)
    spec = TailBoundSpec(N=1024, lag=1, K=120.0, m_s=2)
    vals = autocorr_tail_ub(spec, u)
    assert np.all(np.diff(vals) <= 0)
    # doubling N at fixed rate tightens the bound pointwise once it is
    # active (below the trivial clip at 1)
    by_n = []
    for n in (256, 512, 1024, 2048):
        s = TailBoundSpec(N=n, lag=1, K=n * 120.0 / 1024.0, m_s=2)
        by_n.append(autocorr_tail_ub(s, 0.25))
    assert all(b < 1.0 for b in by_n)
    assert all(a > b for a, b in zip(by_n, by_n[1:]))


def test_ub_rejects_lag_reaching_k():
    spec = TailBoundSpec(N=1024, lag=130, K=120.0, m_s=2)
    with pytest.raises(ValueError):
        autocorr_tail_ub(spec, 0.1)


# ----------------------------------------------------------- lower bounds


def test_lb_values():
    assert autocorr_tail_lb(TailBoundSpec(N=8, lag=1, K=4.0, m_s=1)) == 1 / 16
    # exponent -m_s K exactly, fractional K included, while it stays in range
    assert autocorr_tail_lb(TailBoundSpec(N=1024, lag=1, K=120.0, m_s=2)) == 2.0 ** -240
    assert autocorr_tail_lb(TailBoundSpec(N=1024, lag=1, K=120.5, m_s=8)) == 2.0 ** -964
    # exponents past float64 range underflow to 0.0
    deep = TailBoundSpec(N=1024, lag=1, K=682.5, m_s=8)
    assert autocorr_tail_lb(deep) == 0.0
    with pytest.raises(ValueError, match="needs K and m_s"):
        autocorr_tail_lb(TailBoundSpec(N=8, lag=1, K=4.0))


def test_lower_bound_witness_exhaustive():
    # every BPSK message of the gamma=2, K=4 repetition code, no interleaving
    code = CodeConfig(kind="repetition", n_code_bits=8, n_msg_bits=4)
    const = constellation("bpsk")
    msgs = np.array(list(itertools.product([0, 1], repeat=4)), dtype=np.uint8)
    from ccsradar.coding import encode

    sym = map_bits(encode(msgs, code), const)
    chi1 = np.einsum("tn,tn->t", sym[:, 1:], np.conj(sym[:, :-1])) / 8.0
    p_exceed = np.mean(np.abs(chi1.real) > 0.01)
    lb = autocorr_tail_lb(TailBoundSpec(N=8, lag=1, K=4.0, m_s=1))
    assert p_exceed >= lb
    # the all-zero and all-one messages each hit |chi(1)| = 7/8
    assert np.isclose(abs(chi1[0]), 7 / 8)
    assert np.isclose(abs(chi1[-1]), 7 / 8)


# ------------------------------------------------------- empirical tails


def test_empirical_tail_counting():
    res = empirical_tail([0.05, 0.15], [0.1])
    assert res.p[0] == 0.5
    res = empirical_tail(np.zeros(10), [0.1])
    assert res.p[0] == 0.0
    res = empirical_tail([-0.2, 0.05], [0.1])  # two-sided via |.|
    assert res.p[0] == 0.5
    with pytest.raises(ValueError):
        empirical_tail([], [0.1])


def test_empirical_tail_wilson_interval():
    samples = np.linspace(-0.2, 0.2, 101)
    res = empirical_tail(samples, [0.0999, 0.5], z=1.96)
    assert np.all(res.lo <= res.p) and np.all(res.p <= res.hi)
    assert np.all(res.lo >= 0.0) and np.all(res.hi <= 1.0)
    wide = empirical_tail(samples, [0.0999, 0.5], z=3.0)
    assert np.all(wide.lo <= res.lo) and np.all(wide.hi >= res.hi)
    # p at u = 0.5 is zero but the interval still has positive width
    assert res.p[1] == 0.0 and res.hi[1] > 0.0


def test_domination_small_scale():
    # uncoded QPSK, N = 256: Re/Im of chi(1) never exceed the analytic bound
    # beyond Monte Carlo confidence
    code = CodeConfig(kind="uncoded", n_code_bits=512, n_msg_bits=512)
    const = constellation("qpsk")
    sym = generate_ccs_blocks(256, code, const, 3000, np.random.default_rng(42))
    chi1 = np.einsum("tn,tn->t", sym[:, 1:], np.conj(sym[:, :-1])) / 256.0
    spec = TailBoundSpec(N=256, lag=1, b=1.0, K=256.0, m_s=2)
    u = np.linspace(0.01, 0.25, 20)
    ub = autocorr_tail_ub(spec, u)
    for part in (chi1.real, chi1.imag):
        tail = empirical_tail(part, u, z=3.0)
        assert np.all(tail.lo <= ub + 1e-15)


def test_tail_probability_decays_with_n():
    code_kind = dict(kind="uncoded")
    const = constellation("qpsk")
    rng = np.random.default_rng(43)
    p_at_u = []
    for n in (256, 512, 1024):
        code = CodeConfig(n_code_bits=2 * n, n_msg_bits=2 * n, **code_kind)
        sym = generate_ccs_blocks(n, code, const, 2000, rng)
        chi1 = np.einsum("tn,tn->t", sym[:, 1:], np.conj(sym[:, :-1])) / n
        p_at_u.append(np.mean(np.abs(chi1.real) > 0.05))
    assert p_at_u[0] > p_at_u[1] > p_at_u[2]


# ------------------------------------------------------- derived medians


def test_median_pslr_from_bound_value():
    spec = TailBoundSpec(N=1024, lag=1, b=1.0, K=1024.0, m_s=2)
    want = -20.0 * math.log10(math.sqrt(math.log(4.0) * 2.0 * 1023.0 / 1024.0 ** 2))
    assert median_pslr_from_bound(spec) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(25.68, abs=0.01)


def test_median_pslr_doubling_slope():
    # c roughly doubles per N doubling at full rate, so the median climbs
    # by about 3 dB per octave
    meds = [median_pslr_from_bound(TailBoundSpec(N=n, lag=1, K=float(n), m_s=2))
            for n in (256, 512, 1024, 2048, 4096)]
    gains = np.diff(meds)
    assert np.all(np.abs(gains - 10 * np.log10(2)) < 0.02)


def test_median_pslr_c_scaling_algebra():
    # quadrupling c (for example via b -> b/2) adds exactly 20 log10(2) dB
    base = TailBoundSpec(N=1024, lag=1, b=1.0, K=1024.0, m_s=2)
    quad = TailBoundSpec(N=1024, lag=1, b=0.5, K=1024.0, m_s=2)
    delta = median_pslr_from_bound(quad) - median_pslr_from_bound(base)
    assert delta == pytest.approx(20 * math.log10(2), abs=1e-12)


def test_median_suppression_values():
    spec = TailBoundSpec(N=1024, lag=0, b=1.0, K_i=120.0, K_q=120.0)
    c_cross = 1024.0 ** 2 / (2.0 * spec.M_tilde_l ** 2 * spec.K_tilde)
    want = -20.0 * math.log10(math.sqrt(math.log(4.0) / c_cross))
    assert median_suppression_from_bound(spec, "cross") == pytest.approx(want, abs=1e-12)
    c_ofdm = 1024.0 ** 2 / (2.0 * spec.M0 ** 2 * spec.K0)
    want = -20.0 * math.log10(math.sqrt(math.log(4.0) / c_ofdm))
    assert median_suppression_from_bound(spec, "ofdm") == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        median_suppression_from_bound(spec, "nope")


def test_spec_validation():
    with pytest.raises(ValueError):
        TailBoundSpec(N=1)
    with pytest.raises(ValueError):
        TailBoundSpec(N=16, b=0.0)
    with pytest.raises(ValueError):
        TailBoundSpec(N=16, lag=16)
    spec = TailBoundSpec(N=16)  # no K: autocorr accessors must refuse
    with pytest.raises(ValueError):
        _ = spec.M_l
    with pytest.raises(ValueError):
        _ = TailBoundSpec(N=16, K=8.0, m_s=1).K_tilde
