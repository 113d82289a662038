"""Constellation tables, boundedness constants, and block assembly."""

import numpy as np
import pytest

from ccsradar._rng import random_bits
from ccsradar.coding import CodeConfig, encode, interleave_codeword
from ccsradar.experiments import _symbol_batch
from ccsradar.modulation import (
    LabelFrame,
    constellation,
    generate_ccs_blocks,
    generate_ccs_labels,
    map_bits,
    product_bound_b,
    ratio_bound_b,
)


def _label_bits(label, m):
    return [(label >> (m - 1 - t)) & 1 for t in range(m)]


def _ts38211_point(label, m):
    # independent re-implementation of the published Gray mappings, written
    # out literally rather than via the package's nesting loop
    b = _label_bits(label, m)
    s = lambda t: 1 - 2 * b[t]
    if m == 2:
        return (s(0) + 1j * s(1)) / np.sqrt(2)
    if m == 4:
        return (s(0) * (2 - s(2)) + 1j * s(1) * (2 - s(3))) / np.sqrt(10)
    if m == 8:
        i = s(0) * (8 - s(2) * (4 - s(4) * (2 - s(6))))
        q = s(1) * (8 - s(3) * (4 - s(5) * (2 - s(7))))
        return (i + 1j * q) / np.sqrt(170)
    raise AssertionError(m)


@pytest.mark.parametrize("name,m", [("qpsk", 2), ("16qam", 4), ("256qam", 8)])
def test_gray_tables_match_published_mapping(name, m):
    const = constellation(name)
    for label in range(1 << m):
        want = _ts38211_point(label, m)
        assert const.points[label] == pytest.approx(want, abs=1e-12), label


def test_bpsk_is_real_antipodal():
    const = constellation("bpsk")
    assert np.array_equal(const.points, np.array([1.0 + 0j, -1.0 + 0j]))
    assert np.array_equal(map_bits(np.array([0, 1], dtype=np.uint8), const),
                          np.array([1.0 + 0j, -1.0 + 0j]))


@pytest.mark.parametrize("name", ["bpsk", "qpsk", "16qam", "256qam"])
def test_constellation_moments(name):
    pts = constellation(name).points
    assert abs(pts.mean()) < 1e-12
    assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.abs(pts)) > 0.0


@pytest.mark.parametrize("name", ["qpsk", "16qam", "256qam"])
def test_labels_are_gray(name):
    # nearest-neighbor points differ in exactly one bit
    pts = constellation(name).points
    n = pts.size
    d = np.abs(pts[:, None] - pts[None, :])
    d[np.arange(n), np.arange(n)] = np.inf
    dmin = d.min()
    ii, jj = np.nonzero(d < dmin * 1.001)
    ham = np.array([bin(i ^ j).count("1") for i, j in zip(ii, jj)])
    assert np.all(ham == 1)


def test_product_bound_values():
    assert product_bound_b(constellation("bpsk")) == pytest.approx(1.0, abs=1e-12)
    assert product_bound_b(constellation("qpsk")) == pytest.approx(1.0, abs=1e-12)
    assert product_bound_b(constellation("16qam")) == pytest.approx(1.8, abs=1e-12)
    assert product_bound_b(constellation("256qam")) == pytest.approx(450.0 / 170.0, abs=1e-12)


def test_ratio_bound_values():
    qpsk, qam16, qam256 = map(constellation, ("qpsk", "16qam", "256qam"))
    assert ratio_bound_b(qpsk, qpsk) == pytest.approx(1.0, abs=1e-12)
    assert ratio_bound_b(qam256, qam256) == pytest.approx(15.0, abs=1e-12)
    # qpsk peak over the innermost 16qam point
    assert ratio_bound_b(qpsk, qam16) == pytest.approx(np.sqrt(5.0), abs=1e-12)


def test_map_bits_shape_and_batch():
    const = constellation("qpsk")
    with pytest.raises(ValueError):
        map_bits(np.array([0, 1, 0], dtype=np.uint8), const)
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=(3, 8), dtype=np.uint8)
    batch = map_bits(bits, const)
    assert batch.shape == (3, 4)
    for k in range(3):
        assert np.array_equal(batch[k], map_bits(bits[k], const))


@pytest.mark.parametrize("name,m", [("bpsk", 1), ("qpsk", 2), ("16qam", 4), ("256qam", 8)])
def test_map_bits_matches_label_reference_in_either_memory_order(name, m):
    const = constellation(name)
    bits = np.random.default_rng(m).integers(0, 2, size=(5, 6 * m), dtype=np.uint8)
    labels = [[int("".join(map(str, row[j:j + m])), 2) for j in range(0, row.size, m)]
              for row in bits]
    want = const.points[np.array(labels)]
    for x in (bits, np.asfortranarray(bits)):
        assert map_bits(x, const).tobytes() == want.tobytes()


def _strided_labels(bits, m):
    # the per-bit label formula map_bits used before its word-level gather:
    # label = sum_t bit_t * 2^(m-1-t), one strided pass per bit position
    weights = 1 << np.arange(m - 1, -1, -1)
    labels = bits[..., 0::m] * weights[0]
    for t in range(1, m):
        labels += bits[..., t::m] * weights[t]
    return labels


@pytest.mark.parametrize("name,m", [("bpsk", 1), ("qpsk", 2), ("16qam", 4), ("256qam", 8)])
def test_map_bits_matches_strided_label_oracle(name, m):
    const = constellation(name)
    rng = np.random.default_rng(100 + m)
    labels = rng.permutation(np.repeat(np.arange(1 << m), 3))  # every label, 3 times
    bits = ((labels[:, None] >> np.arange(m - 1, -1, -1)) & 1).astype(np.uint8).ravel()
    assert np.array_equal(_strided_labels(bits, m), labels)
    batch = rng.integers(0, 2, size=(2, 3, bits.size), dtype=np.uint8)
    batch[1, 2] = bits
    wide = rng.integers(0, 2, size=(4, 2 * bits.size + 3), dtype=np.uint8)
    wide[1, 3:3 + bits.size] = bits
    wide[2, 0:2 * bits.size:2] = bits
    inputs = {
        "1d": bits,
        "batched": batch,
        "tail_view": wide[:, 3:3 + bits.size],  # rows contiguous, row stride wider
        "step_view": wide[:, 0:2 * bits.size:2],  # no contiguous axis
        "fortran": np.asfortranarray(batch[1]),
    }
    for key, x in inputs.items():
        want = const.points[_strided_labels(x, m)]
        got = map_bits(x, const)
        assert got.shape == want.shape and got.flags.c_contiguous, key
        assert got.tobytes() == want.tobytes(), key
    if m > 1:
        with pytest.raises(ValueError, match="not divisible"):
            map_bits(batch[..., 1:], const)


def _messages(n_blocks, n_msg, seed):
    """The message bits generate_ccs_blocks draws first from a fresh rng(seed)."""
    return np.random.default_rng(seed).integers(0, 2, size=(n_blocks, n_msg), dtype=np.uint8)


def test_block_systematic_prefix_qpsk():
    code = CodeConfig(kind="polar", n_code_bits=512, n_msg_bits=60)
    const = constellation("qpsk")
    mat = generate_ccs_blocks(256, code, const, 3, np.random.default_rng(21))
    assert mat.shape == (3, 256)
    assert np.array_equal(mat[:, :30], map_bits(_messages(3, 60, 21), const))


def test_block_systematic_prefix_fractional_symbols():
    # rational symbol-level message length: 1365 bits over 8-bit symbols is
    # 170.625 symbols, so exactly 170 whole symbols are pure message
    code = CodeConfig(kind="polar", n_code_bits=2048, n_msg_bits=1365)
    const = constellation("256qam")
    mat = generate_ccs_blocks(256, code, const, 2, np.random.default_rng(22))
    want = map_bits(_messages(2, 1365, 22)[:, : 170 * 8], const)
    assert np.array_equal(mat[:, :170], want)


@pytest.mark.parametrize("name", ["bpsk", "qpsk", "16qam", "256qam"])
def test_label_route_maps_to_the_symbol_blocks(name):
    const = constellation(name)
    m = const.bits_per_symbol
    code = CodeConfig(kind="polar", n_code_bits=64 * m, n_msg_bits=16 * m)
    frame = generate_ccs_labels(64, code, const, 20, np.random.default_rng(9))
    blocks = generate_ccs_blocks(64, code, const, 20, np.random.default_rng(9))
    # the symbol route the labels replaced: map_bits of the interleaved codewords
    msgs = random_bits(np.random.default_rng(9), (20, code.n_msg_bits))
    want = map_bits(interleave_codeword(encode(msgs, code), code), const)
    assert blocks.tobytes() == want.tobytes()
    assert isinstance(frame, LabelFrame) and frame.shape == blocks.shape
    assert frame.labels.dtype == np.uint8 and frame.labels.max() < const.points.size
    assert const.points.take(frame.labels).tobytes() == blocks.tobytes()
    assert np.asarray(frame).tobytes() == blocks.tobytes()
    assert frame[5:12].tobytes() == blocks[5:12].tobytes()


def test_block_generation_is_reproducible():
    code = CodeConfig(kind="ldpc", n_code_bits=128, n_msg_bits=32)
    const = constellation("qpsk")
    a = generate_ccs_blocks(64, code, const, 4, np.random.default_rng(77))
    b = generate_ccs_blocks(64, code, const, 4, np.random.default_rng(77))
    assert np.array_equal(a, b)
    assert not np.array_equal(a[0], a[1])  # messages differ between blocks


def test_block_size_mismatch_raises():
    code = CodeConfig(kind="uncoded", n_code_bits=100, n_msg_bits=100)
    with pytest.raises(ValueError):
        generate_ccs_blocks(64, code, constellation("qpsk"), 2, np.random.default_rng(0))


def test_blocks_batch_matches_marginals():
    code = CodeConfig(kind="polar", n_code_bits=128, n_msg_bits=16)
    const = constellation("qpsk")
    mat = generate_ccs_blocks(64, code, const, 12, np.random.default_rng(5))
    assert mat.shape == (12, 64)
    assert np.all(np.abs(np.abs(mat) - 1.0) < 1e-12)


def test_uncoded_symbols_are_uniform():
    code = CodeConfig(kind="uncoded", n_code_bits=128, n_msg_bits=128)
    const = constellation("qpsk")
    mat = generate_ccs_blocks(64, code, const, 2000, np.random.default_rng(8))
    _, counts = np.unique(np.round(mat.ravel(), 6), return_counts=True)
    assert counts.size == 4
    expect = mat.size / 4
    chi2 = np.sum((counts - expect) ** 2 / expect)
    assert chi2 < 3 + 3 * np.sqrt(6)


@pytest.mark.parametrize("n_symbols", [256, 1024])
def test_interleaved_symbol_covariance_vanishes(n_symbols):
    # off-diagonal symbol covariance of the interleaved coded ensemble stays
    # inside Monte Carlo noise; fresh interleaver per block
    n_code = 2 * n_symbols
    n_msg = int(n_code * 120 / 1024)
    code = CodeConfig(kind="polar", n_code_bits=n_code, n_msg_bits=n_msg)
    const = constellation("qpsk")
    k_sym = n_msg // 2
    pairs = [(0, 1), (0, k_sym + 5), (k_sym + 1, k_sym + 9)]
    trials, chunk = 20000, 2000
    acc = np.zeros(len(pairs), dtype=np.complex128)
    rng = np.random.default_rng(31)
    from ccsradar.coding import encode, interleave_codeword

    for _ in range(trials // chunk):
        msgs = rng.integers(0, 2, size=(chunk, n_msg), dtype=np.uint8)
        cw = encode(msgs, code)
        order = rng.random((chunk, n_code - n_msg)).argsort(axis=1)
        tail = np.take_along_axis(cw[:, n_msg:], order, axis=1)
        sym = map_bits(np.concatenate([cw[:, :n_msg], tail], axis=1), const)
        for p, (i, j) in enumerate(pairs):
            acc[p] += np.sum(sym[:, i] * np.conj(sym[:, j]))
    est = acc / trials
    assert np.all(np.abs(est) <= 3.0 / np.sqrt(trials))


@pytest.mark.parametrize("interleave", [True, False])
@pytest.mark.parametrize("kind,n_msg", [("uncoded", 64), ("repetition", 32),
                                        ("polar", 20), ("ldpc", 40)])
def test_blocks_batch_is_c_contiguous(kind, n_msg, interleave):
    # both block generators return C order: the sweep one with or without its
    # per-row parity permutation, the near-far one (always interleaved)
    code = CodeConfig(kind=kind, n_code_bits=64, n_msg_bits=n_msg)
    const = constellation("qpsk")
    batches = [_symbol_batch(code, const, 16, np.random.default_rng(2), interleave)]
    if interleave:
        batches.append(generate_ccs_blocks(32, code, const, 16, np.random.default_rng(2)))
    for syms in batches:
        assert syms.shape == (16, 32) and syms.flags.c_contiguous
