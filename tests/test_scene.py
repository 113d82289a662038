"""FMCW frame synthesis, channel application, noise, and the binary frame format."""

import copy
import itertools
import struct
import tracemalloc

import numpy as np
import pytest

from ccsradar.coding import CodeConfig
from ccsradar.modulation import constellation, generate_ccs_blocks
from ccsradar.scene import (
    ROW_TILE,
    Path,
    TargetScene,
    apply_channel_ofdm,
    apply_channel_sc,
    awgn,
    chirp,
    read_frame_bin,
    synth_frame,
    write_frame_bin,
)


# _frame, _blocks and _scene serve tests/test_receiver.py too
def _frame(m_slow, n_fast, seed=0, name="qpsk"):
    """An uncoded (m_slow, n_fast) LabelFrame with messages from rng(seed).  It has
    no parity, so its interleaver generator draws nothing."""
    const = constellation(name)
    bits = n_fast * const.bits_per_symbol
    code = CodeConfig(kind="uncoded", n_code_bits=bits, n_msg_bits=bits)
    return generate_ccs_blocks(code, const, m_slow, np.random.default_rng(seed),
                               np.random.default_rng(0))


def _blocks(m_slow, n_fast, seed=0, name="qpsk"):
    """_frame mapped to its complex symbols."""
    return np.asarray(_frame(m_slow, n_fast, seed, name))


def _scene(targets, interference=(), noise_var=0.0, n_max=8):
    return TargetScene(targets=tuple(targets), interference=tuple(interference),
                       noise_var=noise_var, n_max=n_max)


# ------------------------------------------------------------- synthesis


def test_fmcw_frame_repeats_reference():
    frame = synth_frame(32, 5)
    assert frame.shape == (5, 32)
    ref = chirp(32)
    assert ref.shape == (32,)
    assert np.max(np.abs(np.abs(ref) - 1.0)) < 1e-12
    for m in range(5):
        assert np.array_equal(frame[m], ref)
    # quadratic phase law
    n = np.arange(32)
    assert np.max(np.abs(ref - np.exp(1j * np.pi * n * n / 32))) < 1e-12


# --------------------------------------------------------------- channel


def test_identity_channel_sc():
    mat = _blocks(6, 32)
    scene = _scene([Path(0, 6, 1.0)], n_max=4)
    y = np.asarray(apply_channel_sc([mat], scene, rng=None))
    assert y.shape == (6, 36)
    assert np.max(np.abs(y[:, :32] - mat)) < 1e-12
    assert np.max(np.abs(y[:, 32:])) == 0.0


def test_delay_and_doppler_placement_sc():
    mat = _blocks(8, 16)
    scene = _scene([Path(3, 2, 0.5)], n_max=4)
    y = np.asarray(apply_channel_sc([mat], scene, None))
    phases = np.exp(2j * np.pi * 2 * np.arange(8) / 8)
    assert np.max(np.abs(y[:, 3:19] - 0.5 * mat * phases[:, None])) < 1e-12
    assert np.max(np.abs(y[:, :3])) == 0.0


def test_interference_only_sc():
    own = _blocks(4, 16, seed=1)
    other = _blocks(4, 16, seed=2)
    scene = _scene([], interference=[(Path(0, 4, 2.0),)], n_max=4)
    y = np.asarray(apply_channel_sc([own, other], scene, None))
    assert np.max(np.abs(y[:, :16] - 2.0 * other)) < 1e-12


def test_channel_linearity_in_gains():
    mat = _blocks(4, 16, seed=3)
    intf = _blocks(4, 16, seed=4)
    paths = [Path(1, 2, 0.7 + 0.1j), Path(2, 3, -0.4j)]
    ipaths = [(Path(0, 4, 1.3),)]
    base = _scene(paths, ipaths, n_max=4)
    doubled = _scene([Path(p.range_bin, p.doppler_bin, 2 * p.gain) for p in paths],
                     [tuple(Path(p.range_bin, p.doppler_bin, 2 * p.gain) for p in q)
                      for q in ipaths], n_max=4)
    frames = [mat, intf]
    y1 = np.asarray(apply_channel_sc(frames, base, None))
    y2 = np.asarray(apply_channel_sc(frames, doubled, None))
    assert np.max(np.abs(y2 - 2 * y1)) < 1e-12


def test_stationary_target_uses_top_doppler_bin():
    mat = np.ones((4, 8), dtype=np.complex128)
    scene = _scene([Path(0, 4, 1.0)], n_max=2)  # bin M = 4 is phase zero
    y = np.asarray(apply_channel_sc([mat], scene, None))
    assert np.max(np.abs(y[1:, :] - y[:1, :])) < 1e-12


def test_doppler_bin_bounds():
    mat = _blocks(4, 8)
    for bad in (0, 5):
        scene = _scene([Path(0, bad, 1.0)], n_max=2)
        with pytest.raises(ValueError):
            apply_channel_sc([mat], scene, None)


def test_scene_validation():
    with pytest.raises(ValueError):
        _scene([Path(9, 1, 1.0)], n_max=8)
    with pytest.raises(ValueError):
        _scene([Path(0, 1, 1.0)], noise_var=-1.0)
    with pytest.raises(ValueError):
        apply_channel_sc([_blocks(2, 8)],
                         _scene([], interference=[(Path(0, 1, 1.0),)], n_max=2), None)


def test_sir_energy_bookkeeping():
    # direct-path interferer at +11 dB over the unit near target
    m_slow, n_fast = 64, 256
    own = _blocks(m_slow, n_fast, seed=5)
    other = _blocks(m_slow, n_fast, seed=6)
    alpha_i = 10.0 ** (11.0 / 20.0)
    near = _scene([Path(1, 3, 1.0)], n_max=4)
    direct = _scene([], interference=[(Path(0, 7, alpha_i),)], n_max=4)
    e_near = np.mean(np.abs(np.asarray(apply_channel_sc([own], near, None))) ** 2)
    e_intf = np.mean(np.abs(np.asarray(apply_channel_sc(
        [own, other], direct, None))) ** 2)
    ratio_db = 10.0 * np.log10(e_intf / e_near)
    assert abs(ratio_db - 11.0) < 0.1


def test_snr_bookkeeping():
    rng = np.random.default_rng(77)
    m_slow, n_fast = 64, 256
    own = _blocks(m_slow, n_fast, seed=8)
    noisy = _scene([Path(0, 3, 1.0)], noise_var=1.0, n_max=4)
    clean = _scene([Path(0, 3, 1.0)], noise_var=0.0, n_max=4)
    y = np.asarray(apply_channel_sc([own], noisy, rng=rng))
    y0 = np.asarray(apply_channel_sc([own], clean, None))
    snr_db = 10.0 * np.log10(np.mean(np.abs(own) ** 2)
                             / np.mean(np.abs(y - y0) ** 2))
    assert abs(snr_db - 0.0) < 0.1


def test_ofdm_channel_matches_time_domain_oracle():
    m_slow, n_fast = 8, 64
    own = _blocks(m_slow, n_fast, seed=9)
    other = _blocks(m_slow, n_fast, seed=10, name="16qam")
    paths = [Path(2, 5, 0.8), Path(5, 1, 0.3j)]
    ipaths = [(Path(1, 7, 1.1),)]
    scene = _scene(paths, ipaths, n_max=8)
    got = np.asarray(apply_channel_ofdm([own, other], scene, None))

    def time_shift(mat, p):
        x = np.fft.ifft(mat, axis=1) * np.sqrt(n_fast)
        rolled = np.roll(x, p.range_bin, axis=1)
        phase = np.exp(2j * np.pi * p.doppler_bin * np.arange(m_slow) / m_slow)
        return p.gain * rolled * phase[:, None]

    y_time = sum(time_shift(own, p) for p in paths)
    y_time += sum(time_shift(other, p) for p in ipaths[0])
    want = np.fft.fft(y_time, axis=1) / np.sqrt(n_fast)
    assert np.max(np.abs(got - want)) < 1e-9


def test_ofdm_channel_zero_delay_is_scaled_copy():
    own = _blocks(4, 32, seed=11)
    scene = _scene([Path(0, 4, 0.6)], n_max=4)
    got = np.asarray(apply_channel_ofdm([own], scene, None))
    assert np.max(np.abs(got - 0.6 * own)) < 1e-12


def test_ofdm_channel_additive_in_targets():
    own = _blocks(4, 32, seed=12)
    s1 = _scene([Path(1, 2, 0.5)], n_max=4)
    s2 = _scene([Path(3, 1, 0.25j)], n_max=4)
    both = _scene([Path(1, 2, 0.5), Path(3, 1, 0.25j)], n_max=4)
    got = np.asarray(apply_channel_ofdm([own], both, None))
    want = (np.asarray(apply_channel_ofdm([own], s1, None))
            + np.asarray(apply_channel_ofdm([own], s2, None)))
    assert np.max(np.abs(got - want)) < 1e-12


# ----------------------------------------------------------------- noise


def _reference_awgn(x, noise_var, rng):
    w = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
    return x + np.sqrt(noise_var / 2.0) * w


def _reference_channel(mats, scene, rng, ofdm):
    # one plain sum per path, then the noise, as the channel model reads
    m_slow, n_fast = mats[0].shape
    width = n_fast if ofdm else n_fast + scene.n_max
    y = np.zeros((m_slow, width), dtype=np.complex128)
    k = np.arange(n_fast)
    for mat, paths in zip(mats, [scene.targets] + list(scene.interference)):
        for p in paths:
            phase = np.exp(2j * np.pi * p.doppler_bin * np.arange(m_slow) / m_slow)
            if ofdm:
                ramp = np.exp(-2j * np.pi * p.range_bin * k / n_fast)
                y += p.gain * mat * ramp[None, :] * phase[:, None]
            else:
                y[:, p.range_bin:p.range_bin + n_fast] += p.gain * mat * phase[:, None]
    return _reference_awgn(y, scene.noise_var, rng) if scene.noise_var else y


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("ofdm", [False, True])
@pytest.mark.parametrize("noise_var", [0.0, 0.7])
def test_channel_matches_per_path_reference_bytes(order, ofdm, noise_var):
    own = np.asarray(_blocks(16, 32, seed=3), order=order)
    other = np.asarray(_blocks(16, 32, seed=4), order=order)
    scene = _scene([Path(2, 3, 0.9), Path(5, 16, 0.25 - 0.1j)],
                   interference=[(Path(6, 7, 3.5),)], noise_var=noise_var, n_max=6)
    rng = np.random.default_rng(8)
    want = _reference_channel([own, other], scene, copy.deepcopy(rng), ofdm)
    channel = apply_channel_ofdm if ofdm else apply_channel_sc
    got = np.asarray(channel([own, other], scene, rng))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("x", [np.zeros((3, 5), dtype=complex),
                               np.arange(12.0).reshape(3, 4),
                               np.asfortranarray(_blocks(6, 8, seed=9))])
def test_awgn_matches_reference_bytes(x):
    rng = np.random.default_rng(77)
    twin = copy.deepcopy(rng)
    got = awgn(x, 0.3, rng)
    want = _reference_awgn(x, 0.3, twin)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    assert rng.random() == twin.random()  # same number of draws consumed


@pytest.mark.parametrize("ofdm", [False, True])
def test_channel_matches_reference_bytes_across_row_tiles(ofdm):
    # 37 rows: two full tiles and a short one, in both memory orders, noiseless
    # and noisy; channels alternate (sc -> OFDM -> sc, or the reverse), and each
    # stream reads byte for byte what a fresh frame gets, in as many draws
    for order, noise_var in itertools.product("CF", (0.0, 0.4)):
        own = np.asarray(_blocks(37, 24, seed=5), order=order)
        other = np.asarray(_blocks(37, 24, seed=6), order=order)
        scene = _scene([Path(1, 37, 0.8), Path(4, 20, -0.3j)],
                       interference=[(Path(3, 19, 2.5),)], noise_var=noise_var, n_max=5)
        for kind in (ofdm, not ofdm, ofdm):
            rng = np.random.default_rng(21)
            twin = copy.deepcopy(rng)
            want = _reference_channel([own, other], scene, twin, kind)
            channel = apply_channel_ofdm if kind else apply_channel_sc
            y = channel([own, other], scene, rng)
            assert y.shape == want.shape and y.size == want.size
            assert np.asarray(y).tobytes() == want.tobytes()
            assert rng.random() == twin.random()


@pytest.mark.parametrize("shape", [(1, 7), (ROW_TILE, 7), (ROW_TILE + 1, 7), (37, 7),
                                   (50,), (37, 3, 4)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_awgn_matches_reference_bytes_across_row_tiles(shape, order):
    x = np.asarray(np.random.default_rng(2).standard_normal(shape + (2,)) @ [1, 1j],
                   order=order)
    rng = np.random.default_rng(31)
    twin = copy.deepcopy(rng)
    got = awgn(x, 0.3, rng)
    want = _reference_awgn(x, 0.3, twin)
    assert got.shape == want.shape
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    assert rng.random() == twin.random()


def test_channel_noise_leaves_input_frames_untouched():
    own, other = _blocks(20, 16, seed=11), _blocks(20, 16, seed=12)
    before = own.tobytes(), other.tobytes()
    scene = _scene([Path(0, 20, 1.0)], interference=[(Path(0, 20, 1.0),)],
                   noise_var=0.5, n_max=4)
    for channel in (apply_channel_sc, apply_channel_ofdm):
        y = np.asarray(channel([own, other], scene, np.random.default_rng(3)))
        assert (own.tobytes(), other.tobytes()) == before
        assert not np.shares_memory(y, own) and not np.shares_memory(y, other)


def test_awgn_zero_variance_is_copy():
    x = _blocks(2, 8)
    y = awgn(x, 0.0, np.random.default_rng(0))
    assert np.array_equal(x, y)
    assert y is not x


def test_awgn_moments():
    rng = np.random.default_rng(123)
    w = awgn(np.zeros((1000, 1000), dtype=complex), 1.0, rng)
    assert abs(np.mean(np.abs(w) ** 2) - 1.0) < 0.01
    assert abs(np.var(w.real) - 0.5) < 0.01
    assert abs(np.var(w.imag) - 0.5) < 0.01
    assert abs(w.mean()) < 0.01


def test_awgn_rejects_negative_variance():
    with pytest.raises(ValueError):
        awgn(np.zeros(4, dtype=complex), -0.5, np.random.default_rng(0))


def test_ofdm_noise_matches_time_domain_level():
    # per-bin variance equals the time-domain variance under the unitary
    # convention, keeping SNR definitions waveform independent
    scene = _scene([], noise_var=2.0, n_max=2)
    rng = np.random.default_rng(5)
    y = np.asarray(apply_channel_ofdm([np.zeros((200, 128), dtype=complex)], scene, rng=rng))
    assert abs(np.mean(np.abs(y) ** 2) - 2.0) < 0.05


# --------------------------------------------------------- binary frames


def test_frame_binary_roundtrip(tmp_path):
    mat = _blocks(5, 12, seed=13, name="16qam")
    path = tmp_path / "frame.bin"
    write_frame_bin(path, mat)
    back = read_frame_bin(path)
    assert back.dtype == np.complex128
    assert np.array_equal(back, mat)


def test_frame_binary_roundtrip_keeps_inf_nan_and_signed_zero(tmp_path):
    # built from (re, im) pairs: 1 + inf*1j would itself read nan + inf j
    pairs = np.array([[1.0, np.inf], [-0.0, 2.0], [np.nan, -np.inf],
                      [np.inf, 0.0], [0.0, -0.0], [-np.inf, np.nan]])
    mat = pairs.view(np.complex128)[:, 0].reshape(2, 3)
    path = tmp_path / "frame.bin"
    write_frame_bin(path, mat)
    back = read_frame_bin(path)
    assert back.dtype == np.complex128 and back.tobytes() == mat.tobytes()


def test_frame_binary_header_layout(tmp_path):
    mat = np.arange(6, dtype=np.complex128).reshape(2, 3) + 0.5j
    path = tmp_path / "frame.bin"
    write_frame_bin(path, mat)
    raw = path.read_bytes()
    assert len(raw) == 16 + 2 * 3 * 2 * 8
    assert raw[:8] == b"CCSFRM01"
    n_fast, m_slow = struct.unpack("<II", raw[8:16])
    assert (n_fast, m_slow) == (3, 2)
    first_re, first_im = struct.unpack("<dd", raw[16:32])
    assert first_re == 0.0 and first_im == 0.5


@pytest.mark.parametrize("mat", [np.asfortranarray(_blocks(3, 5, seed=14)),
                                 _blocks(4, 6, seed=15)[:, ::-2],
                                 _blocks(2, 3, seed=16).astype(np.complex64),
                                 _blocks(2, 3, seed=17).astype(">c16"),
                                 np.arange(6).reshape(2, 3)])
def test_frame_binary_payload_is_interleaved_float64(tmp_path, mat):
    inter = np.empty(mat.shape + (2,), dtype="<f8")
    inter[..., 0] = mat.real
    inter[..., 1] = mat.imag
    path = tmp_path / "frame.bin"
    write_frame_bin(path, mat)
    assert path.read_bytes()[16:] == inter.tobytes()


@pytest.mark.parametrize("frame", [
    _frame(37, 40, seed=18),
    synth_frame(24, 37),
    np.asfortranarray(_blocks(37, 9, seed=19))])
def test_frame_binary_streams_any_frame(tmp_path, frame):
    # a LabelFrame, a broadcast view and an F-ordered array, written tile by
    # tile, give the bytes of the whole C-ordered frame
    whole, tiled = tmp_path / "whole.bin", tmp_path / "tiled.bin"
    write_frame_bin(whole, np.ascontiguousarray(np.asarray(frame)))
    write_frame_bin(tiled, frame)
    assert tiled.read_bytes() == whole.read_bytes()


def test_frame_binary_writes_without_a_frame_copy(tmp_path):
    frame = _frame(128, 128, seed=20)
    frame_bytes = 16 * 128 * 128
    write_frame_bin(tmp_path / "warm.bin", frame)
    tracemalloc.start()
    try:
        write_frame_bin(tmp_path / "frame.bin", frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * frame_bytes, f"peak {peak / frame_bytes:.2f} frames"


def test_frame_binary_rejects_corruption(tmp_path):
    mat = _blocks(2, 4)
    good = tmp_path / "good.bin"
    write_frame_bin(good, mat)
    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXSFRM01" + good.read_bytes()[8:])
    with pytest.raises(ValueError):
        read_frame_bin(bad_magic)
    truncated = tmp_path / "short.bin"
    truncated.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_frame_bin(truncated)
    with pytest.raises(ValueError):
        write_frame_bin(tmp_path / "x.bin", np.zeros(4, dtype=complex))
