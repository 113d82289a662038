"""Receive chains against brute-force oracles and exactness properties."""

import csv

import numpy as np
import pytest

from ccsradar.correlation import idft_ratio
from ccsradar.modulation import LabelFrame, constellation
from ccsradar.receiver import (
    RangeDopplerMap,
    fmcw_range_doppler,
    mf_bank,
    ofdm_range_doppler,
    sc_range_doppler,
)
from ccsradar.scene import (
    ROW_TILE,
    Path,
    apply_channel_ofdm,
    apply_channel_sc,
    chirp,
    read_frame_bin,
    synth_frame,
)
from test_scene import _blocks, _frame, _scene


def _direct_mf(y, x, n_max):
    m_slow, n_fast = x.shape
    r = np.zeros((n_max + 1, m_slow), dtype=np.complex128)
    for lag in range(n_max + 1):
        for m in range(m_slow):
            acc = 0.0
            for n in range(y.shape[1]):
                if 0 <= n - lag < n_fast:
                    acc += y[m, n] * np.conj(x[m, n - lag])
            r[lag, m] = acc / n_fast
    return r


def _direct_slow_dft(r):
    n_rows, m_slow = r.shape
    out = np.zeros_like(r)
    for l in range(n_rows):
        for nu in range(m_slow):
            out[l, nu] = np.sum(r[l] * np.exp(-2j * np.pi * nu * np.arange(m_slow)
                                              / m_slow)) / m_slow
    return out


# ----------------------------------------------------------------- mf bank


def test_mf_bank_matches_direct_sum():
    x = _blocks(8, 16, seed=1)
    scene = _scene([Path(2, 3, 0.9), Path(5, 7, 0.4j)], n_max=6)
    y = np.asarray(apply_channel_sc([x], scene, None))
    got = mf_bank(y, x, 6)
    want = _direct_mf(y, x, 6)
    assert np.max(np.abs(got - want)) < 1e-12


def test_mf_bank_matches_direct_sum_in_either_memory_order():
    x = _blocks(6, 24, seed=5)
    scene = _scene([Path(1, 2, 0.7), Path(4, 5, 0.2 + 0.3j)], noise_var=0.1, n_max=5)
    y = np.asarray(apply_channel_sc([x], scene, np.random.default_rng(6)))
    want = _direct_mf(y, x, 5)
    outs = [mf_bank(np.asarray(y, order=o), np.asarray(x, order=o), 5) for o in "CF"]
    for got in outs:
        assert np.max(np.abs(got - want)) < 1e-12
    assert outs[0].tobytes() == outs[1].tobytes()


def test_mf_bank_identity_peak():
    x = _blocks(4, 32, seed=2)
    r = mf_bank(x, x, 4)
    assert np.max(np.abs(r[0] - 1.0)) < 1e-12
    assert np.all(np.abs(r[1:]) < 1.0)


def test_mf_bank_shifted_peak_location():
    x = _blocks(4, 32, seed=3)
    scene = _scene([Path(3, 4, 1.0)], n_max=6)
    y = apply_channel_sc([x], scene, None)
    r = mf_bank(y, x, 6)
    assert np.argmax(np.mean(np.abs(r), axis=1)) == 3
    assert np.max(np.abs(np.abs(r[3]) - 1.0)) < 1e-12


def test_mf_bank_truncated_input_zero_fills():
    x = _blocks(4, 32, seed=4)
    scene = _scene([Path(2, 1, 1.0)], n_max=4)
    y = np.asarray(apply_channel_sc([x], scene, None))
    full = mf_bank(y, x, 4)
    trunc = mf_bank(y[:, :32], x, 4)
    want = _direct_mf(y[:, :32], x, 4)
    assert np.max(np.abs(trunc - want)) < 1e-12
    # the clipped tail only affects lags beyond 0
    assert np.max(np.abs(full[0] - trunc[0])) < 1e-12


def test_mf_bank_validation():
    x = _blocks(2, 8)
    with pytest.raises(ValueError):
        mf_bank(x, x, 8)
    with pytest.raises(ValueError):
        mf_bank(x[:, :4], x, 2)
    with pytest.raises(ValueError):
        mf_bank(x[:1], x, 2)


def _einsum_mf(y, x, n_max):
    # the per-lag einsum the bank replaced, as it read: the byte oracle
    y = np.asarray(y, dtype=np.complex128)
    m_slow, n_fast = x.shape
    if y.shape[1] < n_fast + n_max:
        pad = np.zeros((m_slow, n_fast + n_max - y.shape[1]), dtype=np.complex128)
        y = np.concatenate([y, pad], axis=1)
    xc = np.conj(x)
    r = np.empty((n_max + 1, m_slow), dtype=np.complex128)
    for lag in range(n_max + 1):
        r[lag] = np.einsum("mn,mn->m", y[:, lag:lag + n_fast], xc)
    return r / n_fast


@pytest.mark.parametrize("n_fast,n_max", [(n, l) for n in (2, 33, 256) for l in (0, 1, 5, 32)
                                          if l < n])
@pytest.mark.parametrize("order", ["C", "F"])
def test_mf_bank_equals_per_lag_einsum_bytes(n_fast, n_max, order):
    # n_max = 0 pins the two-lag rule: a one-lag matmul is a BLAS dot
    rng = np.random.default_rng(n_fast + n_max)
    x = np.asarray(rng.standard_normal((7, n_fast)) + 1j * rng.standard_normal((7, n_fast)),
                   order=order)
    for width in (n_fast, n_fast + n_max, n_fast + n_max + 3):
        y = np.asarray(rng.standard_normal((7, width)) + 1j * rng.standard_normal((7, width)),
                       order=order)
        got, want = mf_bank(y, x, n_max), _einsum_mf(y, x, n_max)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m_slow", [1, 17, 65, 130])
@pytest.mark.parametrize("n_max", [0, 1, 5])
@pytest.mark.parametrize("labelled", [False, True], ids=["complex", "labels"])
def test_mf_bank_row_tiles_equal_per_lag_einsum_bytes(m_slow, n_max, labelled):
    # M on and off the row tile (ROW_TILE = 16), against a complex or a label reference
    rng = np.random.default_rng(100 * m_slow + n_max)
    n_fast = 33
    points = constellation("16qam").points
    labels = rng.integers(0, points.size, (m_slow, n_fast), dtype=np.uint8)
    x = points.take(labels)
    ref = LabelFrame(labels, points) if labelled else x
    y = rng.standard_normal((m_slow, n_fast + n_max)) \
        + 1j * rng.standard_normal((m_slow, n_fast + n_max))
    got, want = mf_bank(y, ref, n_max), _einsum_mf(y, x, n_max)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ----------------------------------------------------------- sc map


def test_sc_map_hand_dft():
    rng = np.random.default_rng(5)
    r = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    rd = sc_range_doppler(r)
    assert isinstance(rd, RangeDopplerMap)
    assert rd.values.shape == (3, 8)
    assert np.max(np.abs(rd.values - _direct_slow_dft(r))) < 1e-12


def test_sc_map_constant_rows_concentrate_at_top_bin():
    r = np.tile(np.array([0.5, 0.1, 0.0])[:, None], (1, 8)).astype(complex)
    rd = sc_range_doppler(r)
    assert rd.value_at(0, 8) == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(rd.values[:, 1:])) < 1e-12


def test_sc_single_target_peak_is_gain():
    x = _blocks(8, 64, seed=6)
    alpha = 0.7 - 0.2j
    scene = _scene([Path(3, 5, alpha)], n_max=6)
    y = apply_channel_sc([x], scene, None)
    rd = sc_range_doppler(mf_bank(y, x, 6))
    assert abs(rd.value_at(3, 5) - alpha) < 1e-9


# ---------------------------------------------------------- ofdm map


def test_ofdm_map_is_exactly_sparse():
    s = _blocks(8, 64, seed=7)
    targets = [Path(2, 3, 1.0), Path(5, 6, 0.25)]
    scene = _scene(targets, n_max=8)
    rd = ofdm_range_doppler(apply_channel_ofdm([s], scene, None), s, 8)
    for p in targets:
        assert abs(rd.value_at(p.range_bin, p.doppler_bin) - p.gain) < 1e-9
    mask = np.ones(rd.values.shape, dtype=bool)
    for p in targets:
        mask[p.range_bin, p.doppler_bin % 8] = False
    off_energy = np.sum(np.abs(rd.values[mask]) ** 2)
    peak_energy = np.sum(np.abs(rd.values[~mask]) ** 2)
    assert off_energy < 1e-16 * peak_energy


def test_ofdm_map_additive_in_targets():
    s = _blocks(4, 32, seed=8)
    s1 = _scene([Path(1, 2, 0.5)], n_max=4)
    s2 = _scene([Path(3, 4, 0.2j)], n_max=4)
    both = _scene([Path(1, 2, 0.5), Path(3, 4, 0.2j)], n_max=4)
    got = ofdm_range_doppler(apply_channel_ofdm([s], both, None), s, 4).values
    want = (ofdm_range_doppler(apply_channel_ofdm([s], s1, None), s, 4).values
            + ofdm_range_doppler(apply_channel_ofdm([s], s2, None), s, 4).values)
    assert np.max(np.abs(got - want)) < 1e-12


def test_ofdm_interference_residual_matches_ratio_kernel():
    # with one interferer and no noise, the non-target content of the map is
    # the interferer-shifted inverse-DFT ratio kernel, computed independently
    m_slow, n_fast, n_max = 8, 32, 6
    s_i = _blocks(m_slow, n_fast, seed=9)
    s_q = _blocks(m_slow, n_fast, seed=10)
    alpha_t, alpha_q = 0.9, 1.7
    p_t, p_q = Path(1, 2, alpha_t), Path(4, 5, alpha_q)
    scene = _scene([p_t], interference=[(p_q,)], n_max=n_max)
    rd = ofdm_range_doppler(apply_channel_ofdm([s_i, s_q], scene, None), s_i, n_max)

    v = np.stack([idft_ratio(s_i[m], s_q[m]).values for m in range(m_slow)])
    shifted = np.roll(v, p_q.range_bin, axis=1)  # delay ramp rotates the kernel
    phase = np.exp(2j * np.pi * p_q.doppler_bin * np.arange(m_slow) / m_slow)
    resid = _direct_slow_dft((alpha_q * shifted * phase[:, None]).T[: n_max + 1])
    want = resid
    want[p_t.range_bin, p_t.doppler_bin % m_slow] += alpha_t
    assert np.max(np.abs(rd.values - want)) < 1e-9


def test_ofdm_map_rejects_zero_pilot():
    s = _blocks(2, 16, seed=11).copy()
    s[0, 3] = 0.0
    with pytest.raises(ValueError):
        ofdm_range_doppler(s, s, 2)


# ---------------------------------------------------------- fmcw map


def test_fmcw_stationary_target():
    scene = _scene([Path(5, 8, 0.8)], n_max=10)
    y = apply_channel_sc([synth_frame(64, 8)], scene, None)
    rd = fmcw_range_doppler(y, chirp(64), 10)
    assert abs(abs(rd.value_at(5, 8)) - 0.8) < 1e-9
    # truncation leakage is real but small
    mags = np.abs(rd.values)
    mags[5, 0] = 0.0
    assert 0.0 < mags.max() < 0.8


def test_fmcw_doppler_column():
    scene = _scene([Path(3, 11, 1.0)], n_max=8)
    y = apply_channel_sc([synth_frame(64, 16)], scene, None)
    rd = fmcw_range_doppler(y, chirp(64), 8)
    peak = np.unravel_index(np.argmax(np.abs(rd.values)), rd.values.shape)
    assert peak == (3, 11)
    assert abs(abs(rd.value_at(3, 11)) - 1.0) < 1e-9


def test_fmcw_validation():
    y = np.zeros((4, 16), dtype=complex)
    with pytest.raises(ValueError):
        fmcw_range_doppler(y, chirp(16), 16)
    with pytest.raises(ValueError):
        fmcw_range_doppler(y[:, :8], chirp(16), 4)
    with pytest.raises(ValueError):
        fmcw_range_doppler(y, synth_frame(16, 4), 4)


# ------------------------------------------- row tiles against one shot


@pytest.mark.parametrize("m_slow", [1, ROW_TILE, ROW_TILE + 1, 37])
def test_ofdm_and_fmcw_maps_match_one_shot_bytes(m_slow):
    # both receivers work ROW_TILE rows at a time; the whole-frame expressions
    # below are what they compute, bit for bit
    n_fast, n_max = 32, 6
    s = _blocks(m_slow, n_fast, seed=12)
    scene = _scene([Path(2, m_slow, 0.9)], interference=[(Path(5, 1, 1.4),)],
                   noise_var=0.2, n_max=n_max)
    y_freq = np.asarray(apply_channel_ofdm([s, _blocks(m_slow, n_fast, seed=13)], scene,
                                           np.random.default_rng(3)))
    per_block = np.fft.ifft(y_freq / s, axis=1)
    want = np.fft.fft(per_block.T[: n_max + 1], axis=1) / m_slow
    assert ofdm_range_doppler(y_freq, s, n_max).values.tobytes() == want.tobytes()

    y = np.asarray(apply_channel_sc([synth_frame(n_fast, m_slow)],
                                    _scene([Path(3, 1, 0.7)], noise_var=0.2, n_max=n_max),
                                    np.random.default_rng(4)))
    per_chirp = np.fft.ifft(y[:, :n_fast] * np.conj(chirp(n_fast)), axis=1)[:, : n_max + 1]
    comp = n_fast / (n_fast - np.arange(n_max + 1))
    want = np.fft.fft(per_chirp.T * comp[:, None], axis=1) / m_slow
    assert fmcw_range_doppler(y, chirp(n_fast), n_max).values.tobytes() == want.tobytes()


def test_ofdm_map_rejects_zero_pilot_in_a_later_tile():
    s = _blocks(ROW_TILE + 3, 16, seed=14).copy()
    s[ROW_TILE + 1, 5] = 0.0
    with pytest.raises(ValueError):
        ofdm_range_doppler(s, s, 2)


# ------------------------------------------------- cross-waveform checks


def test_peak_equivalence_across_waveforms():
    # the same noiseless two-target scene reads the same |gain| on all three
    # processing chains; N and M must be large enough that the strong
    # target's sidelobe ridge stays well under the weak peak
    m_slow, n_fast, n_max = 64, 1024, 8
    targets = [Path(2, 4, 1.0), Path(6, 9, 0.25)]
    scene = _scene(targets, n_max=n_max)
    s = _blocks(m_slow, n_fast, seed=12)
    maps = {
        "sc": sc_range_doppler(mf_bank(
            apply_channel_sc([s], scene, None), s, n_max)),
        "ofdm": ofdm_range_doppler(apply_channel_ofdm([s], scene, None), s, n_max),
    }
    maps["fmcw"] = fmcw_range_doppler(
        apply_channel_sc([synth_frame(n_fast, m_slow)], scene, None), chirp(n_fast), n_max)
    for p in targets:
        levels = [abs(m.value_at(p.range_bin, p.doppler_bin)) for m in maps.values()]
        # each chain reads |gain| up to cross-target sidelobe contamination,
        # so all three agree within 1 dB
        for lv in levels:
            assert 20 * np.log10(lv / abs(p.gain)) == pytest.approx(0.0, abs=1.0)
        spread = 20 * np.log10(max(levels) / min(levels))
        assert spread < 1.0


def test_doppler_dft_suppresses_sidelobe_ridge():
    # a fixed-range chi sidelobe ridge loses close to 10 log10(M) = 30 dB
    # through the slow-time DFT at M = 1024
    m_slow, n_fast, n_max = 1024, 256, 8
    s = _blocks(m_slow, n_fast, seed=13)
    scene = _scene([Path(0, m_slow, 1.0)], n_max=n_max)
    y = apply_channel_sc([s], scene, None)
    r = mf_bank(y, s, n_max)
    rd = sc_range_doppler(r)
    pre = np.median(np.abs(r[1:]), axis=1)
    post = np.median(np.abs(rd.values[1:]), axis=1)
    gain_db = 20 * np.log10(np.mean(pre) / np.mean(post))
    assert 25.0 <= gain_db <= 35.0


# ----------------------------------------------------------- map object


def test_map_accessors_and_validation():
    vals = np.zeros((3, 4), dtype=complex)
    vals[1, 0] = 2.0
    rd = RangeDopplerMap(vals)
    assert rd.n_max == 2 and rd.n_slow == 4
    assert rd.value_at(1, 4) == 2.0  # bin M wraps to column 0
    with pytest.raises(ValueError):
        rd.value_at(3, 1)
    with pytest.raises(ValueError):
        rd.value_at(0, 0)
    with pytest.raises(ValueError):
        rd.value_at(0, 5)


def test_map_csv_export(tmp_path):
    vals = np.zeros((2, 4), dtype=complex)
    vals[0, 0] = 1.0
    vals[1, 2] = 0.1
    rd = RangeDopplerMap(vals)
    path = tmp_path / "map.csv"
    rd.export_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "l,nu,abs_db"
    assert len(rows) == 1 + 2 * 4
    table = {(int(r.split(",")[0]), int(r.split(",")[1])): float(r.split(",")[2])
             for r in rows[1:]}
    assert table[(0, 4)] == pytest.approx(0.0, abs=1e-9)
    assert table[(1, 2)] == pytest.approx(-20.0, abs=1e-6)
    assert table[(1, 1)] == pytest.approx(-400.0, abs=1e-6)


def test_map_csv_export_matches_csv_writer_bytes(tmp_path):
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    vals[1, 0] = 0.0  # exact zero: clipped at -400 dB
    vals[2, 3] = 1e-30j
    rd = RangeDopplerMap(vals)
    rd.export_csv(tmp_path / "map.csv")
    with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["l", "nu", "abs_db"])
        mags = 20.0 * np.log10(np.maximum(np.abs(vals), 1e-20))
        for l in range(3):
            for col in range(5):
                w.writerow([l, col if col else 5, f"{mags[l, col]:.6f}"])
    got = (tmp_path / "map.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    assert b"1,5,-400.000000\r\n" in got and b"2,3,-400.000000\r\n" in got


def test_map_csv_export_matches_f_string_bytes(tmp_path):
    rng = np.random.default_rng(12)
    vals = rng.standard_normal((33, 64)) + 1j * rng.standard_normal((33, 64))
    vals[0, 0] = 0.0
    vals[7, 5] = np.nan
    vals[32, 63] = np.inf
    RangeDopplerMap(vals).export_csv(tmp_path / "map.csv")
    mags = (20.0 * np.log10(np.maximum(np.abs(vals), 1e-20))).tolist()
    want = "l,nu,abs_db\r\n" + "".join(f"{l},{col if col else 64},{mags[l][col]:.6f}\r\n"
                                       for l in range(33) for col in range(64))
    got = (tmp_path / "map.csv").read_bytes()
    assert got == want.encode()
    assert b"0,64,-400.000000\r\n" in got and b"7,5,nan\r\n" in got and b"32,63,inf\r\n" in got


def test_map_binary_export(tmp_path):
    rng = np.random.default_rng(14)
    vals = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    rd = RangeDopplerMap(vals)
    path = tmp_path / "map.bin"
    rd.export_binary(path)
    assert np.array_equal(read_frame_bin(path), vals)


# ------------------------------------------- streamed frames against materialized


@pytest.mark.parametrize("noise_var", [0.0, 0.4])
@pytest.mark.parametrize("frames", ["labels", "C", "F"])
@pytest.mark.parametrize("receiver", ["sc", "ofdm", "fmcw"])
def test_streamed_maps_equal_maps_of_the_materialized_frame(receiver, frames, noise_var):
    # each receiver reads the channel's Received stream a row tile at a time;
    # the oracle is the same receiver on np.asarray of the same stream.  37
    # rows: two full tiles and a short one.
    m_slow, n_fast, n_max = 37, 24, 5
    own, other = _frame(m_slow, n_fast, seed=5), _frame(m_slow, n_fast, seed=6)
    if frames != "labels":
        own, other = (np.asarray(np.asarray(f), order=frames) for f in (own, other))
    scene = _scene([Path(1, 37, 0.8), Path(4, 20, -0.3j)], interference=[(Path(3, 19, 2.5),)],
                   noise_var=noise_var, n_max=n_max)
    sent = [synth_frame(n_fast, m_slow) if receiver == "fmcw" else own, other]
    channel = apply_channel_ofdm if receiver == "ofdm" else apply_channel_sc
    read = {"sc": lambda y: sc_range_doppler(mf_bank(y, own, n_max)),
            "ofdm": lambda y: ofdm_range_doppler(y, own, n_max),
            "fmcw": lambda y: fmcw_range_doppler(y, chirp(n_fast), n_max)}[receiver]
    streamed = read(channel(sent, scene, np.random.default_rng(9)))
    oracle = read(np.asarray(channel(sent, scene, np.random.default_rng(9))))
    assert streamed.values.tobytes() == oracle.values.tobytes()


@pytest.mark.parametrize("channel", [apply_channel_sc, apply_channel_ofdm])
def test_received_stream_reads_once_in_row_order(channel):
    own = _frame(37, 24, seed=1)
    scene = _scene([Path(1, 2, 1.0)], noise_var=0.3, n_max=5)
    y = channel([own], scene, np.random.default_rng(1))
    with pytest.raises(ValueError, match="read once"):
        y[ROW_TILE:2 * ROW_TILE]  # out of order
    with pytest.raises(ValueError, match="read once"):
        y[:, :24]  # not a row tile
    first = y[0:ROW_TILE].copy()
    with pytest.raises(ValueError, match="read once"):
        y[0:ROW_TILE]  # second read
    with pytest.raises(ValueError, match="read once"):
        np.asarray(y)  # the rest of a partly read stream is no frame
    whole = channel([own], scene, np.random.default_rng(1))
    frame = np.asarray(whole)
    assert frame[:ROW_TILE].tobytes() == first.tobytes()
    receiver = ofdm_range_doppler if channel is apply_channel_ofdm else mf_bank
    for second_read in (lambda: np.asarray(whole), lambda: receiver(whole, own, 5),
                        lambda: fmcw_range_doppler(whole, chirp(24), 5)):
        with pytest.raises(ValueError, match="read once"):
            second_read()
