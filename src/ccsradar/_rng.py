"""Seed handling shared across modules."""

from __future__ import annotations

import numpy as np


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent, order-free stream derived from a master seed and an integer key path."""
    return np.random.default_rng(np.random.SeedSequence((int(master_seed),) + tuple(int(k) for k in key)))


def random_bits(rng: np.random.Generator, shape) -> np.ndarray:
    """Fair uint8 bits, equal value for value to rng.integers(0, 2, shape, dtype=np.uint8).

    That draw keeps the top bit of each byte of successive 32-bit outputs, low
    byte first.  Here the same ceil(n / 4) outputs are drawn as whole words
    and shifted in place, so the generator also ends in the same state.
    """
    n = int(np.prod(shape))
    words = rng.integers(0, 1 << 32, size=-(-n // 4), dtype=np.uint32)
    bits = words.astype("<u4", copy=False).view(np.uint8)[:n]
    bits >>= 7
    return bits.reshape(shape)
