"""The per-block parity permutation and the symbol tiles of the sweep and bound drivers.

experiments._permute_rows sorts each parity bit under its scaled random key as
one uint32 word; the tests here hold it, and _symbol_batch through it, to the
argsort of those keys, exact ties and keys equal in their top 31 bits included,
and hold every row tiling of a _symbol_batch batch to its one-tile batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccsradar import experiments
from ccsradar.coding import CodeConfig, encode
from ccsradar.experiments import _permute_rows, _symbol_batch
from ccsradar.modulation import constellation, map_bits

_EDGE_KEY = np.nextafter(1.0, 0.0)  # the largest key rng.random can return


def _argsort_oracle(bits, keys):
    return np.take_along_axis(bits, keys.argsort(axis=1), axis=1)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 8), cols=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1),
       ties=st.sets(st.sampled_from(["dup_column", "equal_row", "zero_row", "edge", "coarse",
                                     "near_tie"])))
def test_permute_rows_matches_argsort(rows, cols, seed, ties):
    rng = np.random.default_rng(seed)
    # a tail view of a wider codeword batch, as _symbol_batch passes it
    bits = rng.integers(0, 2, size=(rows, cols + 3), dtype=np.uint8)[:, 3:]
    keys = rng.random((rows, cols))
    r = int(rng.integers(rows))
    if "coarse" in ties:  # many ties in every row
        keys = rng.integers(0, 4, size=keys.shape) / 4.0
    if "dup_column" in ties and cols > 1:
        keys[:, -1] = keys[:, 0]
    if "equal_row" in ties:
        keys[r] = keys[r, 0]
    if "zero_row" in ties:
        keys[(r + 1) % rows] = 0.0
    if "edge" in ties:
        keys[:, rng.integers(cols, size=2)] = _EDGE_KEY
    if "near_tie" in ties and cols > 1:
        # distinct keys equal in their top 31 bits: one 32-bit word per key
        # cannot order them, so every row takes the argsort fallback; the bits
        # are set so that ordering by the word's bit instead would show.  The
        # step is downward: upward, the edge key would become 1.0, which
        # rng.random never returns (a zero key stays an exact tie)
        keys[:, -1] = np.nextafter(keys[:, 0], 0.0)
        bits[:, 0], bits[:, -1] = 0, 1
    want = _argsort_oracle(bits, keys)
    got = _permute_rows(bits, keys)  # scales keys in place
    assert got.dtype == np.uint8 and got.flags.c_contiguous
    assert np.array_equal(got, want)


class _TiedKeys:
    """A Generator whose random() repeats key columns and flattens one row,
    so _symbol_batch itself runs the argsort fallback."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self, shape):
        keys = self._rng.random(shape)
        keys[:, 1::2] = keys[:, 0:-1:2]
        keys[0] = keys[0, 0]
        return keys


def _oracle_batch(cfg, const, rows, rng, interleaved):
    # the argsort composition of
    # tests/test_modulation.py::test_interleaved_symbol_covariance_vanishes
    k, n = cfg.n_msg_bits, cfg.n_code_bits
    cw = encode(rng.integers(0, 2, size=(rows, k), dtype=np.uint8), cfg)
    if interleaved and n > k:
        order = rng.random((rows, n - k)).argsort(axis=1)
        tail = np.take_along_axis(cw[:, k:], order, axis=1)
        cw = np.concatenate([cw[:, :k], tail], axis=1)
    return map_bits(cw, const)


@pytest.mark.parametrize("make_rng", [np.random.default_rng, _TiedKeys],
                         ids=["generator", "tied_keys"])
@pytest.mark.parametrize("rows", [1, 7, 256])
@pytest.mark.parametrize("interleaved", [True, False])
@pytest.mark.parametrize("kind,n_msg", [("uncoded", 128), ("repetition", 32),
                                        ("polar", 30), ("ldpc", 60)])
def test_symbol_batch_matches_argsort_oracle(kind, n_msg, interleaved, rows, make_rng):
    cfg = CodeConfig(kind=kind, n_code_bits=128, n_msg_bits=n_msg)
    const = constellation("qpsk")
    got, = _symbol_batch(cfg, const, rows, make_rng(11), interleaved, rows)
    want = _oracle_batch(cfg, const, rows, make_rng(11), interleaved)
    assert got.shape == (rows, 64) and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


class _CoarseKeys:
    """A Generator whose random() rounds every key down to a multiple of 1/8.

    The rounding acts key by key, so any row tiling of the draws gives the keys
    of one whole-batch draw, and every parity row of more than eight bits holds
    tied keys and takes the _permute_rows argsort fallback."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self, shape):
        return np.floor(self._rng.random(shape) * 8.0) / 8.0


@pytest.mark.parametrize("make_rng", [np.random.default_rng, _CoarseKeys],
                         ids=["generator", "tied_keys"])
@pytest.mark.parametrize("tile_rows", ["one", "sweep", "uneven"])
@pytest.mark.parametrize("interleaved", [True, False])
@pytest.mark.parametrize("kind,n_msg", [("uncoded", 1024), ("repetition", 256),
                                        ("polar", 400), ("ldpc", 600)])
def test_symbol_tiles_equal_the_batch(kind, n_msg, interleaved, tile_rows, make_rng):
    # a 256-row sweep batch at N = 512: the sweep's own tiles are 128 rows,
    # 74-row tiles leave a 34-row one
    cfg = CodeConfig(kind=kind, n_code_bits=1024, n_msg_bits=n_msg)
    const = constellation("qpsk")
    m, n = experiments._CHUNK, 512
    rows = {"one": 1, "sweep": max(1, experiments._TILE_POINTS // n), "uneven": 74}[tile_rows]
    tiled_rng, batch_rng = make_rng(5), make_rng(5)
    tiles = list(_symbol_batch(cfg, const, m, tiled_rng, interleaved, rows))
    batch, = _symbol_batch(cfg, const, m, batch_rng, interleaved, m)
    assert [len(t) for t in tiles] == [min(rows, m - i) for i in range(0, m, rows)]
    assert all(t.shape[1] == n and t.flags.c_contiguous for t in tiles)
    assert np.concatenate(tiles).tobytes() == batch.tobytes()
    # the stream itself, not only the rows compared: both routes drew the same outputs
    assert tiled_rng.bit_generator.state == batch_rng.bit_generator.state


@pytest.mark.parametrize("words", [2, 6])
@pytest.mark.parametrize("tile_rows", [7, 3])
@pytest.mark.parametrize("kind,n_msg", [("uncoded", 128), ("polar", 30), ("ldpc", 61)])
def test_message_chunks_equal_one_draw(kind, n_msg, tile_rows, words, monkeypatch):
    # message bits drawn a few words at a time, packed, and unpacked per row
    # tile, against one whole draw; 7 rows of 30 or 61 bits are no whole
    # number of bytes, and 3-row tiles start inside a byte
    cfg = CodeConfig(kind=kind, n_code_bits=128, n_msg_bits=n_msg)
    const = constellation("qpsk")
    want_rng = np.random.default_rng(19)
    want = _oracle_batch(cfg, const, 7, want_rng, True)
    monkeypatch.setattr(experiments, "_MSG_WORDS", words)
    got_rng = np.random.default_rng(19)
    got = np.concatenate(list(_symbol_batch(cfg, const, 7, got_rng, True, tile_rows)))
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
