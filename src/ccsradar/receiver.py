"""Range-Doppler processing for single-carrier, OFDM and FMCW frames.

All maps share one normalization contract: a unit-gain on-bin path produces a
unit-magnitude peak, fast-time sums carry 1/N and the slow-time DFT carries
1/M.  Maps are truncated to range bins 0..n_max.  Doppler bins are 1..M with
bin M (stationary) stored in column 0, matching the slow-time DFT index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scene import ROW_TILE, row_tiles, write_frame_bin

_DB_FLOOR = 1e-20


@dataclass(frozen=True)
class RangeDopplerMap:
    """(n_max + 1, M) complex map; values[l, (nu % M)]."""

    values: np.ndarray

    @property
    def n_max(self) -> int:
        return self.values.shape[0] - 1

    @property
    def n_slow(self) -> int:
        return self.values.shape[1]

    def value_at(self, range_bin: int, doppler_bin: int) -> complex:
        if not 0 <= range_bin <= self.n_max:
            raise ValueError("range bin out of map")
        if not 1 <= doppler_bin <= self.n_slow:
            raise ValueError("doppler bin out of map")
        return self.values[range_bin, doppler_bin % self.n_slow]

    def export_csv(self, path) -> None:
        """Rows (l, nu, abs_db); magnitudes are clipped at -400 dB.

        The text is what csv.writer's default dialect writes for these rows
        (no field needs quoting, rows end in CRLF), built in one join: one
        %-format string per map row, fed that row's interleaved (l, value).
        """
        mags = 20.0 * np.log10(np.maximum(np.abs(self.values), _DB_FLOOR))
        row_fmt = "".join(f"%d,{col if col else self.n_slow},%.6f\r\n"
                          for col in range(self.n_slow))
        text = ["l,nu,abs_db\r\n"]
        for l, row in enumerate(mags.tolist()):
            fields = [l] * (2 * self.n_slow)
            fields[1::2] = row
            text.append(row_fmt % tuple(fields))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("".join(text))

    def export_binary(self, path) -> None:
        """Same container as frame dumps: header dims are (M, n_max + 1)."""
        write_frame_bin(path, self.values)


def _slow_dft(r: np.ndarray) -> np.ndarray:
    out = np.fft.fft(r, axis=1)
    out /= r.shape[1]
    return out


def mf_bank(y: np.ndarray, x, n_max: int) -> np.ndarray:
    """Per-block matched-filter outputs r[l, m] = (1/N) sum_n y[n, m] x*[n-l, m].

    x is the reference frame, an array or a LabelFrame.  y may carry the
    delayed tail (width N + n_max) or be truncated to N; short inputs are
    zero-extended, which matches the zero-fill channel convention.
    """
    m_slow, n_fast = x.shape
    if n_max >= n_fast:
        raise ValueError("n_max must be smaller than the block length")
    if y.shape[0] != m_slow or y.shape[1] < n_fast:
        raise ValueError("received frame incompatible with reference frame")
    # Overlapping windows keep matmul off BLAS: each output sums from zero in
    # order, as a per-lag einsum does.  One window would go to BLAS zdotu: take two.
    lags = max(n_max, 1) + 1
    ext = np.zeros((min(ROW_TILE, m_slow), n_fast + lags - 1), dtype=np.complex128)
    # row by row the same matmul as over the whole frame, so the same bits:
    # each tile's windows against that tile of the conjugated reference
    r = np.empty((m_slow, n_max + 1), dtype=np.complex128)  # (m, l)
    for rows in row_tiles(m_slow):
        tile = y[rows]
        if tile.shape[1] < ext.shape[1]:  # zero-extended
            ext[:len(tile), :tile.shape[1]] = tile
            tile = ext[:len(tile)]
        win = np.lib.stride_tricks.sliding_window_view(tile, n_fast, axis=1)[:, :lags]
        r[rows] = np.matmul(win, np.conj(x[rows])[:, :, None])[:, : n_max + 1, 0]
    return r.T / n_fast


def sc_range_doppler(r: np.ndarray) -> RangeDopplerMap:
    """Slow-time DFT of the matched-filter bank, 1/M normalized."""
    return RangeDopplerMap(_slow_dft(r))


def ofdm_range_doppler(y_freq: np.ndarray, s, n_max: int) -> RangeDopplerMap:
    """Zero-forcing map: divide out the own symbols (an array or a LabelFrame),
    inverse DFT over subcarriers, forward DFT over blocks."""
    if y_freq.shape != s.shape:
        raise ValueError("received and reference symbol shapes differ")
    if n_max >= s.shape[1]:
        raise ValueError("n_max must be smaller than the block length")
    per_block = np.empty((s.shape[0], n_max + 1), dtype=np.complex128)  # (m, l)
    for rows in row_tiles(s.shape[0]):
        sym = s[rows]
        if np.any(np.abs(sym) < 1e-12):
            raise ValueError("reference symbols contain a (near) zero")
        per_block[rows] = np.fft.ifft(y_freq[rows] / sym, axis=1)[:, : n_max + 1]
    return RangeDopplerMap(_slow_dft(per_block.T))


def fmcw_range_doppler(y: np.ndarray, ref: np.ndarray, n_max: int) -> RangeDopplerMap:
    """Dechirp every block against the one chirp ref, range IDFT, slow-time DFT.

    A delay-l beat tone only occupies N - l samples of the reference window,
    so each range bin is rescaled by N / (N - l); on-bin peaks then read |gain|
    exactly while the rectangular-window leakage of the truncated tone stays.
    """
    ref = np.asarray(ref, dtype=np.complex128)
    if ref.ndim != 1:
        raise ValueError("the FMCW reference is one chirp")
    n_fast = ref.size
    if n_max >= n_fast:
        raise ValueError("n_max must be smaller than the chirp length")
    if len(y.shape) != 2 or y.shape[1] < n_fast:
        raise ValueError("received frame shorter than the chirp")
    ref = np.conj(ref)  # broadcast over rows: a per-row reference moves bits
    per_chirp = np.empty((y.shape[0], n_max + 1), dtype=np.complex128)  # (m, l)
    for rows in row_tiles(y.shape[0]):
        per_chirp[rows] = np.fft.ifft(y[rows][:, :n_fast] * ref, axis=1)[:, : n_max + 1]
    per_chirp *= n_fast / (n_fast - np.arange(n_max + 1))
    return RangeDopplerMap(_slow_dft(per_chirp.T))
