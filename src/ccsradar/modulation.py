"""Constellations and c.c.s block assembly.

The c.c.s pipeline is message bits -> systematic encoder -> parity interleaver
-> Gray-labeled constellation symbols.  Gray labelings follow the published
3GPP TS 38.211 tables for QPSK/16QAM/256QAM (bit 0 first, even-indexed bits on
the in-phase axis); BPSK is the classic real +-1 mapping.  All constellations
are zero mean with unit average energy and contain no zero point.  A
LabelFrame holds a frame as its labels, mapped row tile by row tile where read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._rng import random_bits
from .coding import CodeConfig, encode, interleave_codeword

CONSTELLATION_NAMES = ("bpsk", "qpsk", "16qam", "256qam")


@dataclass(frozen=True)
class Constellation:
    name: str
    points: np.ndarray  # complex, indexed by the bit label (bit 0 = MSB)

    def __post_init__(self):
        pts = np.asarray(self.points)
        if pts.size & (pts.size - 1) or pts.size < 2:
            raise ValueError("constellation size must be a power of two >= 2")
        if np.any(np.abs(pts) < 1e-12):
            raise ValueError("constellation contains a zero point")
        if abs(pts.mean()) > 1e-9 or abs(np.mean(np.abs(pts) ** 2) - 1.0) > 1e-9:
            raise ValueError("constellation must be zero mean with unit energy")

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(self.points.size))


def _qam_axis_levels(n_axis_bits: int, axis_bits: np.ndarray) -> np.ndarray:
    # 38.211 nesting: level = 2^t - (1-2b)(...), built from the innermost term;
    # the last axis bit sits innermost, the first axis bit carries the sign
    level = np.ones(axis_bits.shape[0])
    for t in range(1, n_axis_bits):
        level = (1 << t) - (1.0 - 2.0 * axis_bits[:, n_axis_bits - t]) * level
    return (1.0 - 2.0 * axis_bits[:, 0]) * level


@lru_cache(maxsize=None)
def constellation(name: str) -> Constellation:
    """Built-in Gray-labeled constellation by name."""
    if name not in CONSTELLATION_NAMES:
        raise ValueError(f"unknown constellation {name!r}")
    if name == "bpsk":
        return Constellation("bpsk", np.array([1.0 + 0j, -1.0 + 0j]))
    m = {"qpsk": 2, "16qam": 4, "256qam": 8}[name]
    labels = np.arange(1 << m)
    bits = (labels[:, None] >> np.arange(m - 1, -1, -1)) & 1
    i_levels = _qam_axis_levels(m // 2, bits[:, 0::2])
    q_levels = _qam_axis_levels(m // 2, bits[:, 1::2])
    pts = i_levels + 1j * q_levels
    pts /= np.sqrt(np.mean(np.abs(pts) ** 2))
    return Constellation(name, pts)


# multiplier and shift that gather the m bit-bytes of one little-endian word
# (bit t in byte t) into the label sum_t bit_t * 2^(m-1-t): bit t lands at
# bit (m-1-t) of the top byte, every other product term lies below it or
# beyond the word, and no two terms share a bit, so nothing carries
_LABEL_GATHER = {
    2: (np.uint16(0x201), 8),
    4: (np.uint32(0x8040201), 24),
    8: (np.uint64(sum(1 << (63 - 9 * i) for i in range(8))), 56),
}


def gray_labels(bits: np.ndarray, const: Constellation) -> np.ndarray:
    """One integer label (index into const.points) per symbol of a bit stream."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    m = const.bits_per_symbol
    if bits.shape[-1] % m:
        raise ValueError(f"bit count {bits.shape[-1]} not divisible by {m}")
    if m == 1:
        return bits
    mult, shift = _LABEL_GATHER[m]
    words = bits.view(f"<u{m}") * mult
    words >>= shift
    return words


def map_bits(bits: np.ndarray, const: Constellation) -> np.ndarray:
    """Gray-map a bit stream to symbols; length must divide into whole symbols."""
    return const.points.take(gray_labels(bits, const))


@dataclass(frozen=True)
class LabelFrame:
    """An (M, N) symbol frame held as its uint8 Gray labels (indices into points).

    frame[rows] maps only those rows, so a reader that takes a row tile at a
    time never holds the 16-byte complex frame; np.asarray(frame) maps it whole.
    """

    labels: np.ndarray
    points: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.labels.shape

    def __getitem__(self, rows) -> np.ndarray:
        return self.points.take(self.labels[rows])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self[...], dtype=dtype)


def product_bound_b(const: Constellation) -> float:
    """Bound b with |s[n] s*[n']| <= b, i.e. the peak symbol energy."""
    return float(np.max(np.abs(const.points)) ** 2)


def ratio_bound_b(num_const: Constellation, den_const: Constellation) -> float:
    """Bound b with |s_q[k] / s_i[k]| <= b for cross-waveform symbol ratios."""
    return float(np.max(np.abs(num_const.points)) / np.min(np.abs(den_const.points)))


def generate_ccs_blocks(code: CodeConfig, const: Constellation, n_blocks: int, rng,
                        interleaver_rng) -> LabelFrame:
    """Batch of i.i.d.-message blocks as an (n_blocks, N) LabelFrame, N the
    code's length in symbols.  The messages come from rng, then one parity
    permutation shared by all blocks from interleaver_rng (which may be rng).
    """
    msgs = random_bits(np.random.default_rng(rng), (n_blocks, code.n_msg_bits))
    # no name holds the codewords, so they are freed before the labels are copied
    words = gray_labels(interleave_codeword(encode(msgs, code), code,
                                            np.random.default_rng(interleaver_rng)), const)
    return LabelFrame(words.astype(np.uint8), const.points)
