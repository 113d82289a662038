"""Channel codes and interleaving for c.c.s construction.

All encoders are systematic: a codeword is [message | parity], so the first
n_msg_bits positions carry the message verbatim.  Codes that are not naturally
systematic (polar, LDPC) are brought to that form deterministically, by a fixed
reparameterization and bit-position reordering of the same codebook.

Bits are uint8 arrays in {0, 1}; batch encoding acts on the last axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

CODE_KINDS = ("uncoded", "repetition", "polar", "ldpc")

_LDPC_ROW_WEIGHT = 3


@dataclass(frozen=True)
class CodeConfig:
    """One channel code: its kind and dimensions.  construction_seed only
    matters for ldpc, where it seeds the pseudo-random parity-check construction."""

    kind: str
    n_code_bits: int
    n_msg_bits: int
    construction_seed: int = 0

    def __post_init__(self):
        if self.kind not in CODE_KINDS:
            raise ValueError(f"unknown code kind {self.kind!r}")
        if self.n_msg_bits < 1 or self.n_code_bits < self.n_msg_bits:
            raise ValueError(f"bad code dimensions ({self.n_msg_bits}, {self.n_code_bits})")
        if self.kind == "uncoded" and self.n_code_bits != self.n_msg_bits:
            raise ValueError("uncoded requires n_code_bits == n_msg_bits")
        if self.kind == "repetition" and self.n_code_bits % self.n_msg_bits:
            raise ValueError("repetition factor must be an integer")
        if self.kind == "polar" and self.n_code_bits & (self.n_code_bits - 1):
            raise ValueError("polar codeword length must be a power of two")
        if self.kind == "ldpc" and self.n_code_bits == self.n_msg_bits:
            raise ValueError("ldpc needs at least one parity bit")
        if self.kind == "ldpc" and self.n_code_bits - self.n_msg_bits > math.comb(
                self.n_msg_bits, min(_LDPC_ROW_WEIGHT, self.n_msg_bits)):
            raise ValueError("ldpc rate too low for distinct parity checks")


# ---------------------------------------------------------------------------
# polar

# Bit i of a packed row is bit i % 64 of little-endian word i // 64.  Stage h
# XORs bit i ^ h into bit i for every i with i & h set; below 64 that is a
# masked shift inside each word, from 64 on a XOR of whole words.
_WORD = np.dtype("<u8")
_STAGE_MASKS = tuple((h, np.uint64(sum(1 << i for i in range(64) if not i & h)))
                     for h in (1, 2, 4, 8, 16, 32))


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """{0, 1} bits along the last axis as 64-bit words, zero-padded to one word."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), axis=-1, bitorder="little")
    if packed.shape[-1] < _WORD.itemsize:
        packed = np.pad(packed, [(0, 0)] * (packed.ndim - 1)
                        + [(0, _WORD.itemsize - packed.shape[-1])])
    return packed.view(_WORD)


def _unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little")


def _polar_transform_words(words: np.ndarray, n: int) -> None:
    """In-place polar transform of packed length-n rows; words must be
    C-contiguous, as _pack_bits returns them, so the reshapes below are views."""
    scratch = np.empty_like(words)
    for h, mask in _STAGE_MASKS:
        if h >= n:
            return
        np.bitwise_and(words, mask, out=scratch)
        scratch <<= h
        words ^= scratch
    h = 1
    while 64 * h < n:
        v = words.reshape(-1, n // (128 * h), 2, h)
        v[:, :, 1, :] ^= v[:, :, 0, :]
        h *= 2


def _subset_closed(info: np.ndarray, n: int) -> bool:
    """Whether clearing any set bit of any index in info stays inside info."""
    member = np.zeros(n, dtype=bool)
    member[info] = True
    b = 1
    while b < n:
        if not member[info[info & b != 0] ^ b].all():
            return False
        b <<= 1
    return True


@lru_cache(maxsize=32)
def polar_info_set(n_code_bits: int, n_msg_bits: int) -> tuple[int, ...]:
    """Input positions carrying message bits, by Bhattacharyya ranking at design
    erasure 0.5.  The returned set is closed under the bitwise-subset order,
    which the systematic encoder relies on.
    """
    z = np.array([0.5])
    while z.size < n_code_bits:
        z = np.concatenate([z * z, 2.0 * z - z * z])
    order = np.argsort(z, kind="stable")
    info = np.sort(order[:n_msg_bits])
    if not _subset_closed(info, n_code_bits):
        raise AssertionError("info set is not subset-closed")
    return tuple(int(v) for v in info)


@lru_cache(maxsize=32)
def _polar_tables(n_code_bits: int, n_msg_bits: int):
    """(slot, info_mask, order) of the systematic polar encoder: the message bit
    each input position gathers (0 for frozen ones), the packed info-set mask and
    the output order listing the info positions first."""
    info = np.array(polar_info_set(n_code_bits, n_msg_bits))
    member = np.zeros(n_code_bits, dtype=bool)
    member[info] = True
    slot = np.zeros(n_code_bits, dtype=np.intp)
    slot[info] = np.arange(info.size)
    tables = slot, _pack_bits(member), np.concatenate([info, np.flatnonzero(~member)])
    for table in tables:  # shared by every later call
        table.flags.writeable = False
    return tables


def _encode_polar_systematic(msg: np.ndarray, config: CodeConfig) -> np.ndarray:
    # Two transforms with a mask in between give the codeword x with
    # x[info] = msg and frozen transform-domain inputs zero; subset closure of
    # the info set makes the masked double transform exact.  Both transforms
    # and both masks act on packed words: u is gathered with msg[0] in the
    # frozen slots, which the first mask clears.  The systematic form then
    # lists the info positions first (np.take keeps it C-ordered).
    n = config.n_code_bits
    slot, info_mask, order = _polar_tables(n, config.n_msg_bits)
    words = _pack_bits(np.take(msg, slot, axis=-1))
    words &= info_mask
    _polar_transform_words(words, n)
    words &= info_mask
    _polar_transform_words(words, n)
    return np.take(_unpack_bits(words, n), order, axis=-1)


# ---------------------------------------------------------------------------
# ldpc

@lru_cache(maxsize=8)
def _ldpc_tables(n_code_bits: int, n_msg_bits: int, construction_seed: int) -> np.ndarray:
    """Check supports of the systematic parity-check [A | I], seeded.

    Row-regular Gallager-style construction: every check involves
    _LDPC_ROW_WEIGHT distinct message bits plus its own parity bit, and all
    check supports are distinct, so no parity bit is constant or duplicated
    and the matrix is full rank by the identity block.  Returns the (w, m)
    table whose column r lists the message bits of check r.

    The supports are the first m distinct sorted draws of
    rng.choice(n_msg_bits, w, replace=False), in draw order.  That call runs
    Floyd's algorithm (w bounded draws with maxima k - w .. k - 1, a draw
    already taken replaced by its maximum) and then shuffles (w - 1 draws with
    maxima w - 1 .. 1), so batches of candidates come from one rng.integers
    call over the tiled maxima, on the same stream.
    """
    k, m = n_msg_bits, n_code_bits - n_msg_bits
    w = min(_LDPC_ROW_WEIGHT, k)  # CodeConfig ensures comb(k, w) >= m
    rng = np.random.default_rng(
        np.random.SeedSequence((construction_seed, n_code_bits, n_msg_bits)))
    highs = np.concatenate([np.arange(k - w, k), np.arange(w - 1, 0, -1)])
    total = math.comb(k, w)
    place = k ** np.arange(w - 1, -1, -1)  # a sorted support as one integer
    cand = np.empty((0, w), dtype=np.int64)
    first = np.empty(0, dtype=np.intp)  # index of each distinct support's first draw
    while first.size < m:
        # about the expected number of draws for the supports still missing
        # (a harmonic sum over the unseen share), with some slack
        batch = 16 + int(1.1 * total * math.log((total - first.size + 0.5) / (total - m + 0.5)))
        new = rng.integers(0, np.tile(highs, batch), endpoint=True).reshape(batch, -1)[:, :w]
        for j in range(1, w):
            taken = (new[:, :j] == new[:, j:j + 1]).any(axis=1)
            new[taken, j] = k - w + j
        new.sort(axis=1)
        cand = np.concatenate([cand, new])
        _, first = np.unique(cand @ place, return_index=True)
    return np.ascontiguousarray(cand[np.sort(first)[:m]].T, dtype=np.intp)


# ---------------------------------------------------------------------------
# dispatch

def encode(msg: np.ndarray, config: CodeConfig) -> np.ndarray:
    """Systematic encoding for any configured code; batch shape (..., n_msg_bits).
    Repetition repeats the message; ldpc appends the parity bits of its [A | I]
    parity-check matrix."""
    msg = np.asarray(msg, dtype=np.uint8)
    if msg.shape[-1] != config.n_msg_bits:
        raise ValueError("message length mismatch")
    if config.kind == "uncoded":
        return msg.copy()
    if config.kind == "repetition":
        return np.concatenate([msg] * (config.n_code_bits // config.n_msg_bits), axis=-1)
    if config.kind == "polar":
        return _encode_polar_systematic(msg, config)
    support = _ldpc_tables(config.n_code_bits, config.n_msg_bits, config.construction_seed)
    # parity bit r is the XOR of the message bits in column r of the support
    parity = np.take(msg, support[0], axis=-1)
    for cols in support[1:]:
        parity ^= np.take(msg, cols, axis=-1)
    return np.concatenate([msg, parity], axis=-1)


def interleave_codeword(codeword: np.ndarray, config: CodeConfig,
                        rng: np.random.Generator) -> np.ndarray:
    """Permute the parity positions by one rng.permutation, shared by every
    codeword of a batch; the message prefix stays in place, and a code without
    parity is returned as is, drawing nothing."""
    k = config.n_msg_bits
    if config.n_code_bits == k:
        return codeword
    tail = k + rng.permutation(config.n_code_bits - k)
    # np.take keeps a batch C-ordered; x[..., table] would return it F-ordered
    return np.take(codeword, np.concatenate([np.arange(k), tail]), axis=-1)
