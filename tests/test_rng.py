"""Seed helpers: the byte-drawn message bits against the draw they replaced."""

import numpy as np
import pytest

from ccsradar._rng import random_bits


@pytest.mark.parametrize("shape", [(0,), (1,), (3,), (4,), (7,), (8,), (2, 4), (3, 5),
                                   (2, 0), (256, 60), (5, 3, 9)])
def test_random_bits_equals_integers_draw(shape):
    # value for value and state for state, also chained with random(): a
    # numpy whose integers() drew uint8 bits differently fails here before
    # any golden digest does
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(3):
        got = random_bits(a, shape)
        want = b.integers(0, 2, shape, dtype=np.uint8)
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert a.bit_generator.state == b.bit_generator.state
        assert a.random(5).tobytes() == b.random(5).tobytes()
    assert a.bit_generator.state == b.bit_generator.state
