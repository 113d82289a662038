"""Frames, target scenes and channel synthesis.

Conventions.  A frame holds M slow-time blocks of N fast-time samples as an
(M, N) array, row m being block m+1.  Delays are integer range bins applied as
linear (zero-fill) shifts, so a single-carrier receive window spans N + n_max
samples.  A path with Doppler bin m_t rotates block m by exp(j 2 pi m_t (m-1)/M),
bin M (phase 0) meaning stationary.  The OFDM channel is evaluated directly in
the frequency domain with unitary-DFT bookkeeping: a delay is the phase ramp
exp(-j 2 pi n_t k / N) and the per-bin noise variance equals the time-domain
noise variance.  Both channels run one tile loop, into a caller's receive
buffer or a fresh frame, and frame dumps go out a row tile at a time.
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
    y = np.array(x, dtype=np.result_type(x.dtype, np.complex128), order="C")
    _fill_tiles(y.reshape(1, -1) if y.ndim < 2 else y, lambda *_: None, noise_var, rng)
    return y


def _fill_tiles(y: np.ndarray, fill, noise_var: float, rng) -> np.ndarray:
    """Write the complex y a row tile at a time with fill(rows, y[rows]) and add
    noise of variance v in place, as y + sqrt(v/2) * (a + 1j*b) in the same draws
    and arithmetic: each tile's real plane draws as soon as the tile is written
    (tiles go in row order, so they draw what one whole-plane fill would), then
    the imaginary plane tile by tile.  Returns y."""
    gen, scale = as_rng(rng) if noise_var else None, np.sqrt(noise_var / 2.0)
    draw = np.empty((min(ROW_TILE, len(y)),) + y.shape[1:])
    for plane in (np.real, np.imag)[: 2 if noise_var else 1]:
        for rows in row_tiles(len(y)):
            if plane is np.real:
                fill(rows, y[rows])
            if noise_var:
                noise = draw[: rows.stop - rows.start]
                gen.standard_normal(out=noise)
                noise *= scale
                np.add(plane(y[rows]), noise, out=plane(y[rows]))
    return y


def _doppler_phase(m_slow: int, doppler_bin: int) -> np.ndarray:
    if not 1 <= doppler_bin <= m_slow:
        raise ValueError(f"doppler bin {doppler_bin} outside [1, {m_slow}]")
    return np.exp(2j * np.pi * doppler_bin * np.arange(m_slow) / m_slow)


def _receive(frames, scene: TargetScene, rng, buf, ofdm: bool) -> np.ndarray:
    """The one channel tile loop: apply_channel_ofdm if ofdm else apply_channel_sc.

    Each row tile of buf[:, :width] (of a fresh frame without buf) is zeroed,
    then every path adds gain * sym [* ramp] * phase in that order, so the sum
    is unchanged bit for bit; a radar's row tile is mapped once for its paths.
    """
    mats = [as_frame(f) for f in frames]
    if len(mats) != 1 + len(scene.interference):
        raise ValueError("need one frame per radar (own first, then interferers)")
    if any(m.shape != mats[0].shape for m in mats):
        raise ValueError("mismatched frame sizes")
    m_slow, n_fast = mats[0].shape
    width = n_fast if ofdm else n_fast + scene.n_max
    y = (np.empty((m_slow, width), dtype=np.complex128) if buf is None else buf)[:, :width]
    if y.shape != (m_slow, width) or y.dtype != np.complex128:
        raise ValueError(f"receive buffer must be complex128 ({m_slow}, >= {width})")
    k = np.arange(n_fast)
    terms = [(mat, [(p.gain, 0 if ofdm else p.range_bin,
                     np.exp(-2j * np.pi * p.range_bin * k / n_fast) if ofdm else None,
                     _doppler_phase(m_slow, p.doppler_bin)[:, None]) for p in paths])
             for mat, paths in zip(mats, [scene.targets, *scene.interference]) if paths]
    echo = np.empty((min(ROW_TILE, m_slow), n_fast), dtype=np.complex128)

    def fill(rows, tile):
        tile.fill(0)
        part = echo[: len(tile)]
        for mat, paths in terms:
            sym = mat[rows]
            for gain, shift, ramp, phase in paths:
                np.multiply(gain, sym, out=part)
                if ramp is not None:
                    part *= ramp
                part *= phase[rows]
                tile[:, shift:shift + n_fast] += part

    return _fill_tiles(y, fill, scene.noise_var, rng)


def apply_channel_sc(frames, scene: TargetScene, rng=None, buf=None) -> np.ndarray:
    """Time-domain received frame, (M, N + n_max) with zero-fill delays.

    frames[0] is the own transmission (echoes per scene.targets); frames[1:]
    line up with scene.interference.  With buf, an (M, >= N + n_max) complex128
    array, the frame is written into it and buf[:, :N + n_max] is returned.
    """
    return _receive(frames, scene, rng, buf, ofdm=False)


def apply_channel_ofdm(blocks, scene: TargetScene, rng=None, buf=None) -> np.ndarray:
    """Frequency-domain received frame Y[k, m] as an (M, N) array.

    Each path contributes gain * s * exp(-j 2 pi n_t k / N) * doppler(m); the
    noise is i.i.d. complex Gaussian with the time-domain variance, which is
    exact under the unitary DFT convention.  With buf, an (M, >= N) complex128
    array, the frame is written into it and buf[:, :N] is returned.
    """
    return _receive(blocks, scene, rng, buf, ofdm=True)


def write_frame_bin(path, samples) -> None:
    """Dump a complex 2-D array or LabelFrame: 16-byte header (magic, n_fast,
    n_slow), then little-endian float64 (re, im) pairs in slow-major order,
    written a row tile at a time so no frame-sized copy is made."""
    mat = as_frame(samples)
    if len(mat.shape) != 2:
        raise ValueError("expected a 2-D array")
    m_slow, n_fast = mat.shape
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC + struct.pack("<II", n_fast, m_slow))
        # a C-ordered little-endian complex128 buffer is those (re, im) pairs
        for rows in row_tiles(m_slow):
            fh.write(np.ascontiguousarray(mat[rows], dtype="<c16"))


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
