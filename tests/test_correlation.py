"""Correlation profiles: transform path vs direct sums, exact identities,
and the dB metrics built on them."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccsradar.coding import CodeConfig, encode
from ccsradar import correlation
from ccsradar.correlation import (
    CorrelationProfile,
    autocorr,
    crosscorr,
    idft_ratio,
    pslr,
    suppression_metric,
    workspace,
)
from ccsradar.experiments import _window_lags
from ccsradar.modulation import constellation, generate_ccs_blocks, map_bits


def _direct_aperiodic(s1, s2):
    # brute-force (1/N) sum_n s1[n] s2*[n - l] on the full +-(N-1) lag grid
    n = s1.size
    lags = np.arange(-(n - 1), n)
    vals = np.zeros(lags.size, dtype=np.complex128)
    for k, lag in enumerate(lags):
        acc = 0.0 + 0.0j
        for t in range(n):
            if 0 <= t - lag < n:
                acc += s1[t] * np.conj(s2[t - lag])
        vals[k] = acc / n
    return lags, vals


def _periodic_corr(s, s2=None):
    # circular correlation (1/N) sum_n s[n] s2*[(n - l) mod N], lags 0..N-1
    other = s if s2 is None else s2
    return np.fft.ifft(np.fft.fft(s, axis=-1) * np.conj(np.fft.fft(other, axis=-1)),
                       axis=-1) / s.shape[-1]


def _random_block(n, name, rng):
    const = constellation(name)
    labels = rng.integers(0, const.points.size, size=n)
    return const.points[labels]


@pytest.mark.parametrize("name", ["qpsk", "16qam"])
@pytest.mark.parametrize("n", [8, 33, 64])
def test_fft_autocorr_matches_direct_sum(name, n, subtests=None):
    rng = np.random.default_rng(n)
    for _ in range(10):
        s = _random_block(n, name, rng)
        lags, want = _direct_aperiodic(s, s)
        prof = autocorr(s, method="fft")
        assert np.array_equal(prof.lags, lags)
        assert np.max(np.abs(prof.values - want)) < 1e-9
        direct = autocorr(s, method="direct")
        assert np.max(np.abs(direct.values - want)) < 1e-12


@pytest.mark.parametrize("n", [8, 33])
def test_fft_crosscorr_matches_direct_sum(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        s1 = _random_block(n, "qpsk", rng)
        s2 = _random_block(n, "16qam", rng)
        _, want = _direct_aperiodic(s1, s2)
        assert np.max(np.abs(crosscorr(s1, s2, method="fft").values - want)) < 1e-9
        assert np.max(np.abs(crosscorr(s1, s2, method="direct").values - want)) < 1e-12


def test_zero_lag_is_unit_for_constant_modulus_blocks():
    rng = np.random.default_rng(1)
    for name in ("bpsk", "qpsk"):
        s = _random_block(257, name, rng)
        assert abs(autocorr(s).value_at(0) - 1.0) < 1e-12


def test_zero_lag_equals_realized_energy_for_qam():
    rng = np.random.default_rng(2)
    s = _random_block(129, "16qam", rng)
    want = np.mean(np.abs(s) ** 2)
    assert abs(autocorr(s).value_at(0) - want) < 1e-12


def test_support_vanishes_beyond_block_length():
    s = _random_block(16, "qpsk", np.random.default_rng(3))
    prof = autocorr(s)
    for lag in (16, -16, 23, -40):
        assert prof.value_at(lag) == 0


def test_hermitian_symmetry():
    s = _random_block(64, "16qam", np.random.default_rng(4))
    prof = autocorr(s)
    for lag in range(1, 64):
        assert abs(prof.value_at(-lag) - np.conj(prof.value_at(lag))) < 1e-12


def test_crosscorr_of_identical_blocks_is_autocorr():
    s = _random_block(48, "qpsk", np.random.default_rng(5))
    a = autocorr(s)
    c = crosscorr(s, s)
    assert np.array_equal(a.lags, c.lags)
    assert np.max(np.abs(a.values - c.values)) < 1e-12


@pytest.mark.parametrize("shape", [(1,), (7,), (256,), (4, 512)])
def test_autocorr_bytes_equal_crosscorr_with_itself(shape):
    # autocorr reuses one forward FFT; the bits must match two separate ones
    rng = np.random.default_rng(shape[-1])
    s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert autocorr(s).values.tobytes() == crosscorr(s, s.copy()).values.tobytes()


def test_periodic_correlation_against_circular_oracle():
    rng = np.random.default_rng(6)
    n = 24
    s = _random_block(n, "qpsk", rng)
    s2 = _random_block(n, "16qam", rng)
    vals = _periodic_corr(s, s2)
    for lag in range(n):
        want = np.mean(s * np.conj(np.roll(s2, lag)))
        assert abs(vals[lag] - want) < 1e-12
    # the circular lag l folds the aperiodic lags l and l - N together
    prof = crosscorr(s, s2)
    for lag in range(n):
        assert abs(prof.value_at(lag) + prof.value_at(lag - n) - vals[lag]) < 1e-12


def test_periodic_zero_lag_matches_aperiodic():
    s = _random_block(32, "qpsk", np.random.default_rng(7))
    assert abs(_periodic_corr(s)[0] - autocorr(s).value_at(0)) < 1e-12


def test_idft_ratio_identity_pair_is_delta():
    s = _random_block(64, "qpsk", np.random.default_rng(8))
    prof = idft_ratio(s, s)
    assert abs(prof.value_at(0) - 1.0) < 1e-12
    assert np.max(np.abs(prof.values[1:])) < 1e-12


def test_idft_ratio_direct_sum_oracle():
    rng = np.random.default_rng(9)
    n = 8
    s_i = _random_block(n, "qpsk", rng)
    s_q = _random_block(n, "16qam", rng)
    prof = idft_ratio(s_i, s_q)
    k = np.arange(n)
    for lag in range(n):
        want = np.mean((s_q / s_i) * np.exp(2j * np.pi * k * lag / n))
        assert abs(prof.value_at(lag) - want) < 1e-12
    # cyclic wrap in lookups
    assert prof.value_at(n + 3) == prof.value_at(3)
    assert prof.value_at(-1) == prof.value_at(n - 1)


def test_idft_ratio_mean_vanishes_over_pairs():
    code = CodeConfig(kind="uncoded", n_code_bits=128, n_msg_bits=128)
    const = constellation("qpsk")
    rng = np.random.default_rng(10)
    trials = 2000
    a = np.asarray(generate_ccs_blocks(code, const, trials, rng, np.random.default_rng(0)))
    b = np.asarray(generate_ccs_blocks(code, const, trials, rng, np.random.default_rng(0)))
    vals = np.fft.ifft(b / a, axis=1)[:, 1]
    est = vals.mean()
    se = vals.std(ddof=1) / np.sqrt(trials)
    assert abs(est) <= 3 * se


def test_pslr_of_repetition_halves():
    # gamma=2 without interleaving repeats the symbol block, so lag N/2
    # overlaps N/2 identical unit-modulus products: |chi| = 1/2 exactly
    code = CodeConfig(kind="repetition", n_code_bits=16, n_msg_bits=8)
    msg = np.random.default_rng(11).integers(0, 2, size=8, dtype=np.uint8)
    block = map_bits(encode(msg, code), constellation("qpsk"))
    for method in ("fft", "direct"):
        prof = autocorr(block, method=method)
        assert abs(abs(prof.value_at(4)) - 0.5) < 1e-12
    assert pslr(autocorr(block)) == pytest.approx(-20 * np.log10(0.5), abs=1e-9)


def test_pslr_reports_inf_for_delta_profile():
    prof = CorrelationProfile(lags=np.arange(-2, 3),
                              values=np.array([0, 0, 1.0 + 0j, 0, 0]),
                              kind="auto", n=3)
    assert pslr(prof) == np.inf


def test_pslr_scales_out_block_energy():
    # the ratio to the realized peak: a profile at a fifth of unit energy
    # reads the unit profile's PSLR
    values = np.array([0.1, 1.0 + 0j, 0.1])
    unit = CorrelationProfile(lags=np.arange(-1, 2), values=values, kind="auto", n=2)
    scaled = CorrelationProfile(lags=np.arange(-1, 2), values=0.2 * values, kind="auto", n=2)
    assert pslr(unit) == pytest.approx(20.0, abs=1e-12)
    assert pslr(scaled) == pytest.approx(pslr(unit), abs=1e-12)


def test_pslr_rejects_zero_peak():
    prof = CorrelationProfile(lags=np.arange(-1, 2), values=np.zeros(3, dtype=complex),
                              kind="auto", n=2)
    with pytest.raises(ValueError, match="zero-lag"):
        pslr(prof)


def test_pslr_window_restricts_search():
    values = np.zeros(9, dtype=np.complex128)
    values[4] = 1.0  # lag 0
    values[8] = 0.5  # lag 4
    values[5] = 0.01  # lag 1
    prof = CorrelationProfile(lags=np.arange(-4, 5), values=values, kind="auto", n=5)
    assert pslr(prof) == pytest.approx(-20 * np.log10(0.5), abs=1e-9)
    assert pslr(prof, max_lag=2) == pytest.approx(40.0, abs=1e-9)


def test_suppression_includes_zero_lag():
    s = _random_block(64, "qpsk", np.random.default_rng(12))
    assert suppression_metric(crosscorr(s, s)) == pytest.approx(0.0, abs=1e-9)
    assert suppression_metric(idft_ratio(s, s)) == pytest.approx(0.0, abs=1e-9)


def test_suppression_window_uses_wrapped_lags():
    # idft_ratio lags live on 0..N-1; window |l| <= w must include N-1 (= -1)
    n = 16
    values = np.zeros(n, dtype=np.complex128)
    values[n - 1] = 0.25
    values[0] = 0.125
    prof = CorrelationProfile(lags=np.arange(n), values=values, kind="idft_ratio", n=n)
    assert suppression_metric(prof, max_lag=2) == pytest.approx(-20 * np.log10(0.25), abs=1e-9)


def test_batched_profiles_match_loop():
    rng = np.random.default_rng(13)
    mat = np.stack([_random_block(32, "qpsk", rng) for _ in range(6)])
    batch = autocorr(mat)
    assert batch.values.shape == (6, 63)
    for k in range(6):
        assert np.max(np.abs(batch.values[k] - autocorr(mat[k]).values)) < 1e-12
    p = pslr(batch)
    assert p.shape == (6,)
    assert p[2] == pytest.approx(pslr(autocorr(mat[2])), abs=1e-12)


@pytest.mark.parametrize("m,n", [(64, 256), (32, 512), (256, 64)])
def test_fft_rows_alone_equal_batched_bytes(m, n):
    # each batch's 2N-point product reaches numpy's 256 KiB temporary-elision
    # size (rows x N >= 8192) and a single row's does not; a row's bytes must
    # not depend on the batch it is computed in
    rng = np.random.default_rng(m * n)
    s1, s2 = (_random_block((m, n), "qpsk", rng) for _ in range(2))
    auto, cross = autocorr(s1).values, crosscorr(s1, s2).values
    for k in range(m):
        assert autocorr(s1[k]).values.tobytes() == auto[k].tobytes()
        assert crosscorr(s1[k], s2[k]).values.tobytes() == cross[k].tobytes()


def test_profiles_outlive_later_calls_in_a_workspace():
    # workspace() reuses the FFT buffers from call to call: a profile must keep
    # its values, the bytes of a call outside it, after a later call of the
    # same shape
    rng = np.random.default_rng(21)
    a, b, c, d = (_random_block((8, 256), "16qam", rng) for _ in range(4))
    lags = _window_lags(32, 256)
    calls = {"auto": lambda x, y: autocorr(x, lags=lags),
             "auto_all_lags": lambda x, y: autocorr(x),
             "cross": lambda x, y: crosscorr(x, y, lags=lags),
             "idft_ratio": idft_ratio}
    want = {name: call(a, b).values.tobytes() for name, call in calls.items()}
    with workspace():
        for name, call in calls.items():
            first = call(a, b)
            later = call(c, d)
            assert not np.shares_memory(first.values, later.values), name
            assert first.values.tobytes() == want[name], name
        assert correlation._SCRATCH.get()  # the FFT routes took workspace buffers
    assert correlation._SCRATCH.get() is None  # and the buffers go with the block


# -- windowed lags on the FFT route ------------------------------------------

def _lag_sets(n):
    w = min(32, n - 1)
    return {
        "window": np.arange(-w, w + 1),
        "edges": np.array([-(n - 1), n - 1]),
        "near_edges": np.arange(-(n - 1), -(n - 1) + min(3, n)),
        "unsorted": np.array([n - 1, 0, -(n - 1), n // 2, -(n // 3), 1 % n]),
        "negative_only": np.arange(-(n - 1), 0),
        "repeated": np.array([0, 0, -(n - 1), -(n - 1)]),
    }


@pytest.mark.parametrize("shape", [(2,), (7,), (64,), (3, 256), (5, 1024)])
def test_windowed_lags_are_full_profile_columns(shape):
    rng = np.random.default_rng(shape[-1])
    n = shape[-1]
    s1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    full_a, full_c = autocorr(s1), crosscorr(s1, s2)
    for name, lags in _lag_sets(n).items():
        cols = lags + (n - 1)
        a, c = autocorr(s1, lags=lags), crosscorr(s1, s2, lags=list(lags))
        assert np.array_equal(a.lags, lags) and np.array_equal(c.lags, lags), name
        # bit for bit: the gather selects the same quotients the full profile holds
        assert np.array_equal(a.values, full_a.values[..., cols]), name
        assert np.array_equal(c.values, full_c.values[..., cols]), name
        direct_a = autocorr(s1, lags=lags, method="direct").values
        direct_c = crosscorr(s1, s2, lags=lags, method="direct").values
        assert np.max(np.abs(a.values - direct_a)) < 1e-12, name
        assert np.max(np.abs(c.values - direct_c)) < 1e-12, name


@pytest.mark.parametrize("n", [2, 16, 33, 64])
@pytest.mark.parametrize("window", [1, 32, 63, 64, 1000])
def test_sweep_window_clamps_to_the_block(n, window):
    # the drivers' window |l| <= sidelobe_window, clamped to |l| <= N - 1
    lags = _window_lags(window, n)
    w = min(window, n - 1)
    assert np.array_equal(lags, np.arange(-w, w + 1))
    s = _random_block(n, "qpsk", np.random.default_rng(n + window))
    s = np.stack([s, np.roll(s, 1)])
    full = autocorr(s)
    prof = autocorr(s, lags=lags)
    assert np.array_equal(prof.values, full.values[..., lags + (n - 1)])
    assert np.array_equal(pslr(prof, max_lag=window), pslr(full, max_lag=window))
    s2 = s[::-1].copy()
    assert np.array_equal(
        suppression_metric(crosscorr(s2, s, lags=lags), max_lag=window),
        suppression_metric(crosscorr(s2, s), max_lag=window))
    if window >= n - 1:
        assert np.array_equal(prof.values, full.values)


@pytest.mark.parametrize("lags", [[8], [-8], [0, 9], range(-20, 3)])
def test_lags_outside_the_support_are_rejected(lags):
    s = _random_block(8, "qpsk", np.random.default_rng(15))
    for method in ("fft", "direct"):
        with pytest.raises(ValueError, match="outside the computable range"):
            autocorr(s, lags=lags, method=method)
        with pytest.raises(ValueError, match="outside the computable range"):
            crosscorr(s, s, lags=lags, method=method)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=80),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_autocorr_magnitude_bounded_by_energy(n, seed):
    s = _random_block(n, "qpsk", np.random.default_rng(seed))
    prof = autocorr(s)
    assert np.all(np.abs(prof.values) <= np.abs(prof.value_at(0)) + 1e-12)
    # lag grid is the full symmetric aperiodic support, sorted
    assert np.array_equal(prof.lags, np.arange(-(n - 1), n))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=48),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_methods_agree_property(n, seed):
    rng = np.random.default_rng(seed)
    s1 = _random_block(n, "16qam", rng)
    s2 = _random_block(n, "qpsk", rng)
    a = crosscorr(s1, s2, method="fft").values
    b = crosscorr(s1, s2, method="direct").values
    assert np.max(np.abs(a - b)) < 1e-10
