"""Frames, target scenes and channel synthesis.

Conventions.  A frame holds M slow-time blocks of N fast-time samples as an
(M, N) array, row m being block m+1.  Delays are integer range bins applied as
linear (zero-fill) shifts, so a single-carrier receive window spans N + n_max
samples.  A path with Doppler bin m_t rotates block m by exp(j 2 pi m_t (m-1)/M),
bin M (phase 0) meaning stationary.  The OFDM channel is evaluated directly in
the frequency domain with unitary-DFT bookkeeping: a delay is the phase ramp
exp(-j 2 pi n_t k / N) and the per-bin noise variance equals the time-domain
noise variance.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._rng import as_rng
from .modulation import as_frame

_BIN_MAGIC = b"CCSFRM01"

# The channel, the noise and the OFDM / FMCW receivers work ROW_TILE rows at a
# time (256 KiB at N = 1024), so they make no frame-sized temporary.
ROW_TILE = 16


def row_tiles(m: int, rows: int = ROW_TILE):
    """Consecutive slices of at most `rows` rows covering rows 0..m-1."""
    return (slice(i, min(i + rows, m)) for i in range(0, m, rows))


@dataclass(frozen=True)
class Path:
    """One propagation path: range bin, Doppler bin, complex gain."""

    range_bin: int
    doppler_bin: int
    gain: complex


@dataclass(frozen=True)
class TargetScene:
    """Own-radar targets plus per-interferer path lists and the noise level."""

    targets: tuple[Path, ...]
    interference: tuple[tuple[Path, ...], ...] = ()
    noise_var: float = 0.0
    n_max: int = 32

    def __post_init__(self):
        if self.noise_var < 0:
            raise ValueError("noise variance must be nonnegative")
        for p in chain(self.targets, *self.interference):
            if not 0 <= p.range_bin <= self.n_max:
                raise ValueError(f"range bin {p.range_bin} outside [0, {self.n_max}]")


def chirp(n_fast: int) -> np.ndarray:
    """The FMCW reference: one chirp sweeping the full bandwidth in N samples."""
    n = np.arange(n_fast)
    return np.exp(1j * np.pi * n * n / n_fast)


def synth_frame(n_fast: int, n_chirps: int) -> np.ndarray:
    """The (M, N) FMCW transmit frame: the chirp repeated once per block, as a
    read-only broadcast view of one chirp."""
    return np.broadcast_to(chirp(n_fast), (n_chirps, n_fast))


def awgn(x: np.ndarray, noise_var: float, rng) -> np.ndarray:
    """x plus circularly-symmetric complex white noise of the given variance."""
    if noise_var < 0:
        raise ValueError("noise variance must be nonnegative")
    if noise_var == 0:
        return np.array(x, copy=True)
    out = np.empty(x.shape, dtype=np.result_type(x.dtype, np.complex128))
    return _add_noise(x, noise_var, rng, out)


def _add_noise(x: np.ndarray, noise_var: float, rng, out: np.ndarray) -> np.ndarray:
    """Write x plus noise into out (which may be x itself); returns out.

    Same draws and arithmetic as x + sqrt(v/2) * (a + 1j*b), one plane at a
    time: draw a, scale it, add x.real; then b and x.imag.  Consecutive
    row-tile fills of a plane draw what one fill of it would.
    """
    gen = as_rng(rng)
    scale = np.sqrt(noise_var / 2.0)
    rows_x = x.reshape(1, -1) if x.ndim < 2 else x
    rows_out = out.reshape(rows_x.shape)
    draw = np.empty((min(ROW_TILE, len(rows_x)),) + rows_x.shape[1:])
    for plane in (np.real, np.imag):
        for rows in row_tiles(len(rows_x)):
            tile = draw[: rows.stop - rows.start]
            gen.standard_normal(out=tile)
            tile *= scale
            np.add(plane(rows_x[rows]), tile, out=plane(rows_out[rows]))
    return out


def _doppler_phase(m_slow: int, doppler_bin: int) -> np.ndarray:
    if not 1 <= doppler_bin <= m_slow:
        raise ValueError(f"doppler bin {doppler_bin} outside [1, {m_slow}]")
    return np.exp(2j * np.pi * doppler_bin * np.arange(m_slow) / m_slow)


def _gather_frames(frames, scene: TargetScene) -> list[tuple]:
    """(frame, paths) per radar: own frame and scene.targets, then each interferer.

    A frame is a LabelFrame or an array; the channels read either by row tiles.
    """
    mats = [as_frame(f) for f in frames]
    if len(mats) != 1 + len(scene.interference):
        raise ValueError("need one frame per radar (own first, then interferers)")
    if any(m.shape != mats[0].shape for m in mats):
        raise ValueError("mismatched frame sizes")
    return list(zip(mats, [scene.targets, *scene.interference]))


def apply_channel_sc(frames, scene: TargetScene, rng=None) -> np.ndarray:
    """Time-domain received frame, (M, N + n_max) with zero-fill delays.

    frames[0] is the own transmission (echoes per scene.targets); frames[1:]
    line up with scene.interference.
    """
    radars = _gather_frames(frames, scene)
    m_slow, n_fast = radars[0][0].shape
    y = np.zeros((m_slow, n_fast + scene.n_max), dtype=np.complex128)
    terms = [(mat, p, _doppler_phase(m_slow, p.doppler_bin)[:, None])
             for mat, paths in radars for p in paths]
    echo = np.empty((min(ROW_TILE, m_slow), n_fast), dtype=np.complex128)
    for rows in row_tiles(m_slow):
        tile = echo[: rows.stop - rows.start]
        for mat, p, phase in terms:
            # gain * mat * phase in that order, so the sum is unchanged bit for bit
            np.multiply(p.gain, mat[rows], out=tile)
            tile *= phase[rows]
            y[rows, p.range_bin:p.range_bin + n_fast] += tile
    return _add_noise(y, scene.noise_var, rng, y) if scene.noise_var else y


def apply_channel_ofdm(blocks, scene: TargetScene, rng=None) -> np.ndarray:
    """Frequency-domain received frame Y[k, m] as an (M, N) array.

    Each path contributes gain * s * exp(-j 2 pi n_t k / N) * doppler(m); the
    noise is i.i.d. complex Gaussian with the time-domain variance, which is
    exact under the unitary DFT convention.
    """
    radars = _gather_frames(blocks, scene)
    m_slow, n_fast = radars[0][0].shape
    y = np.zeros((m_slow, n_fast), dtype=np.complex128)
    terms = [(mat, p, np.exp(-2j * np.pi * p.range_bin * np.arange(n_fast) / n_fast),
              _doppler_phase(m_slow, p.doppler_bin)[:, None])
             for mat, paths in radars for p in paths]
    echo = np.empty((min(ROW_TILE, m_slow), n_fast), dtype=np.complex128)
    for rows in row_tiles(m_slow):
        tile = echo[: rows.stop - rows.start]
        for mat, p, ramp, phase in terms:
            # gain * mat * ramp * phase in that order, so the sum is unchanged bit for bit
            np.multiply(p.gain, mat[rows], out=tile)
            tile *= ramp
            tile *= phase[rows]
            y[rows] += tile
    return _add_noise(y, scene.noise_var, rng, y) if scene.noise_var else y


def write_frame_bin(path, samples) -> None:
    """Dump a complex 2-D array: 16-byte header (magic, n_fast, n_slow), then
    little-endian float64 (re, im) pairs in slow-major order."""
    mat = np.asarray(samples)
    if mat.ndim != 2:
        raise ValueError("expected a 2-D array")
    m_slow, n_fast = mat.shape
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC + struct.pack("<II", n_fast, m_slow))
        # a C-ordered little-endian complex128 buffer is those (re, im) pairs
        fh.write(np.ascontiguousarray(mat, dtype="<c16"))


def read_frame_bin(path) -> np.ndarray:
    """Inverse of write_frame_bin; returns the (n_slow, n_fast) complex array."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) != 16 or head[:8] != _BIN_MAGIC:
            raise ValueError("bad frame file header")
        n_fast, m_slow = struct.unpack("<II", head[8:])
        data = fh.read()
    if len(data) != 16 * n_fast * m_slow:
        raise ValueError("truncated frame file")
    # a native-order copy of the (re, im) pairs: exact for inf, nan and -0.0
    return np.frombuffer(data, dtype="<c16").reshape(m_slow, n_fast).astype(np.complex128)
