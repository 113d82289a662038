"""Frames, target scenes and channel synthesis.

Conventions.  A frame holds M slow-time blocks of N fast-time samples as an
(M, N) array, row m being block m+1.  Delays are integer range bins applied as
linear (zero-fill) shifts, so a single-carrier receive window spans N + n_max
samples.  A path with Doppler bin m_t rotates block m by exp(j 2 pi m_t (m-1)/M),
bin M (phase 0) meaning stationary.  The OFDM channel is evaluated directly in
the frequency domain with unitary-DFT bookkeeping: a delay is the phase ramp
exp(-j 2 pi n_t k / N) and the per-bin noise variance equals the time-domain
noise variance.  Both channels return a Received stream that writes each row
tile as a receiver reads it, holding only its own float64 real noise plane;
frame dumps go out a row tile at a time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain

import numpy as np

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
    """Own-radar targets, per-interferer path lists (empty for none), the noise
    variance and n_max, the largest range bin a path may take."""

    targets: tuple[Path, ...]
    interference: tuple[tuple[Path, ...], ...]
    noise_var: float
    n_max: int

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


class Received:
    """A received (M, width) frame as a one-pass stream of row tiles.

    Made, it has drawn the scaled real noise plane of y + sqrt(v/2) * (a + 1j*b)
    into a fresh float64 (M, width) array.  y[rows] for each row_tiles slice in
    order writes one reused tile: fill(rows, tile), the stored real noise, then
    the imaginary noise drawn now, as the whole-frame formula draws and sums.
    Rereads and out-of-order reads raise ValueError; np.asarray(y) reads all
    tiles into a fresh complex128 frame.
    """

    def __init__(self, shape, fill, noise_var: float, rng):
        m, width = shape
        self.shape, self.size, self._fill, self._next = (m, width), m * width, fill, 0
        self._tile = np.empty((min(ROW_TILE, m), width), dtype=np.complex128)
        self._gen, self._scale = None, 0
        if noise_var:
            self._gen, self._scale = np.random.default_rng(rng), np.sqrt(noise_var / 2.0)
            self._plane = self._gen.standard_normal((m, width))
            self._plane *= self._scale

    def __getitem__(self, rows):
        start = self._next
        if start >= self.shape[0] or rows != slice(start, min(start + ROW_TILE, self.shape[0])):
            raise ValueError("a received frame is read once, a row tile at a time in order")
        self._next = rows.stop
        tile = self._tile[:rows.stop - start]
        self._fill(rows, tile)
        if self._gen is not None:
            noise = self._plane[rows]
            np.add(tile.real, noise, out=tile.real)
            self._gen.standard_normal(out=noise)
            noise *= self._scale
            np.add(tile.imag, noise, out=tile.imag)
        return tile

    def __array__(self, dtype=None, copy=None):
        y = np.empty(self.shape, dtype=np.complex128)
        for rows in row_tiles(self.shape[0]):
            y[rows] = self[rows]
        return y  # numpy casts to a requested dtype itself


def awgn(x: np.ndarray, noise_var: float, rng) -> np.ndarray:
    """x plus circularly-symmetric complex white noise of the given variance."""
    if noise_var < 0:
        raise ValueError("noise variance must be nonnegative")
    if noise_var == 0:
        return np.array(x, copy=True)
    x = np.asarray(x)
    rows = x.reshape((len(x), int(np.prod(x.shape[1:]))) if x.ndim > 1 else (1, x.size))
    stream = Received(rows.shape, lambda r, tile: np.copyto(tile, rows[r]), noise_var, rng)
    return np.asarray(stream).reshape(x.shape)


def _doppler_phase(m_slow: int, doppler_bin: int) -> np.ndarray:
    if not 1 <= doppler_bin <= m_slow:
        raise ValueError(f"doppler bin {doppler_bin} outside [1, {m_slow}]")
    return np.exp(2j * np.pi * doppler_bin * np.arange(m_slow) / m_slow)


def _receive(frames, scene: TargetScene, rng, ofdm: bool) -> Received:
    """The one channel tile loop: apply_channel_ofdm if ofdm else apply_channel_sc.

    Each row tile the reader takes is zeroed, then every path adds
    gain * sym [* ramp] * phase in that order, so the sum is unchanged bit for
    bit; a radar's row tile is mapped once for its paths.
    """
    if len(frames) != 1 + len(scene.interference):
        raise ValueError("need one frame per radar (own first, then interferers)")
    if any(f.shape != frames[0].shape for f in frames):
        raise ValueError("mismatched frame sizes")
    m_slow, n_fast = frames[0].shape
    width = n_fast if ofdm else n_fast + scene.n_max
    k = np.arange(n_fast)
    terms = [(mat, [(p.gain, 0 if ofdm else p.range_bin,
                     np.exp(-2j * np.pi * p.range_bin * k / n_fast) if ofdm else None,
                     _doppler_phase(m_slow, p.doppler_bin)[:, None]) for p in paths])
             for mat, paths in zip(frames, [scene.targets, *scene.interference]) if paths]
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

    return Received((m_slow, width), fill, scene.noise_var, rng)


def apply_channel_sc(frames, scene: TargetScene, rng) -> Received:
    """Time-domain received frame, (M, N + n_max) with zero-fill delays, as a
    Received stream.

    frames[0] is the own transmission (echoes per scene.targets); frames[1:]
    line up with scene.interference.  rng draws the noise; a noiseless scene
    draws none, so None will do there.
    """
    return _receive(frames, scene, rng, ofdm=False)


def apply_channel_ofdm(blocks, scene: TargetScene, rng) -> Received:
    """Frequency-domain received frame Y[k, m], (M, N), as a Received stream.

    Each path contributes gain * s * exp(-j 2 pi n_t k / N) * doppler(m); the
    noise is i.i.d. complex Gaussian with the time-domain variance, which is
    exact under the unitary DFT convention; rng draws it, as in apply_channel_sc.
    """
    return _receive(blocks, scene, rng, ofdm=True)


def write_frame_bin(path, samples) -> None:
    """Dump a complex 2-D array or LabelFrame: 16-byte header (magic, n_fast,
    n_slow), then little-endian float64 (re, im) pairs in slow-major order,
    written a row tile at a time so no frame-sized copy is made."""
    if len(samples.shape) != 2:
        raise ValueError("expected a 2-D array")
    m_slow, n_fast = samples.shape
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC + struct.pack("<II", n_fast, m_slow))
        # a C-ordered little-endian complex128 buffer is those (re, im) pairs
        for rows in row_tiles(m_slow):
            fh.write(np.ascontiguousarray(samples[rows], dtype="<c16"))


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
