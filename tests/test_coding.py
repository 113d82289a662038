"""Encoder, interleaver, and bit-correlation tests.

The closed-form bit correlations for the repetition ensemble are checked two
ways: exhaustive enumeration without interleaving, and Monte Carlo over joint
message/permutation draws with interleaving.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccsradar import coding
from ccsradar.coding import (
    CodeConfig,
    encode,
    interleave_codeword,
    parity_check_matrix,
    polar_info_set,
    repetition_bit_correlation,
    _pack_bits,
    _polar_transform_words,
    _subset_closed,
    _unpack_bits,
)
from ccsradar.config import ExperimentConfig, load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _bits(*vals):
    return np.array(vals, dtype=np.uint8)


def _message(n_bits, rng):
    return rng.integers(0, 2, size=n_bits, dtype=np.uint8)


# ------------------------------------------------- oracles (GF(2), polar)


def gf2_matmul(a, b):
    """Product a @ b over GF(2) of {0, 1} arrays; a is (..., k), b is (k, n).
    float32 products are exact while k stays below 2**24."""
    assert b.shape[0] < 1 << 24
    prod = a.astype(np.float32) @ b.astype(np.float32)
    return (prod.astype(np.int64) & 1).astype(np.uint8)


def gf2_rank(mat):
    """Rank over GF(2) by Gauss-Jordan elimination, scanning columns left to right."""
    m = mat.astype(np.uint8).copy()
    rank = 0
    for c in range(m.shape[1]):
        if rank == m.shape[0]:
            break
        hits = np.nonzero(m[rank:, c])[0]
        if hits.size == 0:
            continue
        p = rank + hits[0]
        m[[rank, p]] = m[[p, rank]]
        clear = np.nonzero(m[:, c])[0]
        m[clear[clear != rank]] ^= m[rank]
        rank += 1
    return rank


def _polar_transform(bits):
    """Kronecker-power transform of the lower-triangular 2x2 kernel on the last
    axis, through the packed-word kernel the systematic encoder uses."""
    n = np.shape(bits)[-1]
    words = _pack_bits(bits)
    _polar_transform_words(words, n)
    return _unpack_bits(words, n)


def encode_polar(msg, config):
    """Plain (non-systematic) polar transform of the frozen-bit-padded message."""
    info = np.array(polar_info_set(config.n_code_bits, config.n_msg_bits))
    u = np.zeros(msg.shape[:-1] + (config.n_code_bits,), dtype=np.uint8)
    u[..., info] = msg
    return _polar_transform(u)


# ---------------------------------------------------------------- kernels


def test_polar_transform_kernel():
    assert np.array_equal(_polar_transform(_bits(1, 0, 0, 0)), _bits(1, 1, 1, 1))
    assert np.array_equal(_polar_transform(_bits(0, 0, 0, 1)), _bits(0, 0, 0, 1))
    # involution: T(T(u)) = u for the 2x2 kernel power
    rng = np.random.default_rng(3)
    u = rng.integers(0, 2, size=64).astype(np.uint8)
    assert np.array_equal(_polar_transform(_polar_transform(u)), u)


def test_polar_rate_one_plain_transform():
    cfg = CodeConfig(kind="polar", n_code_bits=4, n_msg_bits=4)
    out = encode_polar(_bits(1, 0, 0, 0), cfg)
    assert np.array_equal(out, _bits(1, 1, 1, 1))


def test_polar_info_set_properties():
    info = polar_info_set(32, 13)
    assert len(info) == 13 and len(set(info)) == 13
    assert all(0 <= i < 32 for i in info)
    # reliability ordering is nested: a smaller code uses a subset
    assert set(polar_info_set(32, 8)) <= set(info)
    # under the column convention the heavily-combined input is index 0, the
    # uncombined one is index N-1; they bracket the reliability order
    assert 0 in info
    assert 31 not in info


def test_repetition_layout():
    code = CodeConfig(kind="repetition", n_code_bits=12, n_msg_bits=4)
    cw = encode(_bits(1, 0, 1, 1), code)
    assert np.array_equal(cw, np.tile(_bits(1, 0, 1, 1), 3))


# ------------------------------------------------------- systematic shape


@pytest.mark.parametrize("kind,n_code,n_msg", [
    ("uncoded", 16, 16),
    ("repetition", 16, 8),
    ("polar", 32, 13),
    ("ldpc", 24, 12),
])
def test_encode_is_systematic(kind, n_code, n_msg):
    cfg = CodeConfig(kind=kind, n_code_bits=n_code, n_msg_bits=n_msg)
    rng = np.random.default_rng(7)
    msg = _message(n_msg, rng)
    cw = encode(msg, cfg)
    assert cw.shape == (n_code,)
    assert np.array_equal(cw[:n_msg], msg)


def test_encode_batch_matches_rows():
    cfg = CodeConfig(kind="polar", n_code_bits=32, n_msg_bits=13)
    rng = np.random.default_rng(11)
    msgs = rng.integers(0, 2, size=(5, 13)).astype(np.uint8)
    batch = encode(msgs, cfg)
    for k in range(5):
        assert np.array_equal(batch[k], encode(msgs[k], cfg))


def test_polar_systematic_codewords_live_in_plain_code():
    # systematic re-encoding must not leave the linear code generated by the
    # plain transform of frozen-padded messages
    n_code, n_msg = 32, 13
    cfg = CodeConfig(kind="polar", n_code_bits=n_code, n_msg_bits=n_msg)
    basis = np.stack([encode_polar(row, cfg) for row in np.eye(n_msg, dtype=np.uint8)])
    assert gf2_rank(basis) == n_msg
    rng = np.random.default_rng(5)
    msgs = rng.integers(0, 2, size=(20, n_msg)).astype(np.uint8)
    info = list(polar_info_set(n_code, n_msg))
    comp = [i for i in range(n_code) if i not in info]
    for msg in msgs:
        cw = encode(msg, cfg)
        natural = np.empty(n_code, dtype=np.uint8)
        natural[info] = cw[:n_msg]
        natural[comp] = cw[n_msg:]
        stacked = np.vstack([basis, natural])
        assert gf2_rank(stacked) == n_msg


def test_ldpc_codewords_satisfy_parity_checks():
    cfg = CodeConfig(kind="ldpc", n_code_bits=48, n_msg_bits=24)
    h = parity_check_matrix(cfg)
    assert h.shape == (24, 48)
    assert gf2_rank(h) == 24
    rng = np.random.default_rng(13)
    msgs = rng.integers(0, 2, size=(16, 24)).astype(np.uint8)
    cw = encode(msgs, cfg)
    assert not np.any(gf2_matmul(cw, h.T))


def test_ldpc_construction_is_seeded():
    a = parity_check_matrix(CodeConfig(kind="ldpc", n_code_bits=48, n_msg_bits=24,
                                       construction_seed=1))
    b = parity_check_matrix(CodeConfig(kind="ldpc", n_code_bits=48, n_msg_bits=24,
                                       construction_seed=2))
    assert not np.array_equal(a, b)


def _ldpc_tables_loop(n_code_bits, n_msg_bits, construction_seed):
    # the per-candidate rng.choice loop the vectorised draw replaced: the first
    # m distinct sorted supports, in draw order
    m = n_code_bits - n_msg_bits
    w = min(3, n_msg_bits)
    rng = np.random.default_rng(np.random.SeedSequence(
        (construction_seed, n_code_bits, n_msg_bits)))
    supports, seen = [], set()
    while len(supports) < m:
        support = tuple(sorted(rng.choice(n_msg_bits, size=w, replace=False).tolist()))
        if support not in seen:
            seen.add(support)
            supports.append(support)
    return np.ascontiguousarray(np.array(supports, dtype=np.intp).T)


# (n_code_bits, n_msg_bits) of the sweep rates' LDPC codes at N = 256..4096
_SWEEP_LDPC_SIZES = [
    (c.n_code_bits, c.n_msg_bits)
    for n in (256, 512, 1024, 2048, 4096)
    for num, den, mod in ((120, 1024, "qpsk"), (682.5, 1024, "256qam"))
    for c in [ExperimentConfig(kind="pslr").code_config("ldpc", num, den, n, mod)]]


@pytest.mark.parametrize("n_code,n_msg", [
    (2, 1), (3, 2),  # weights 1 and 2: one support each
    (4, 3),  # n_msg_bits = 3: its one weight-3 support
    (7, 4), (8, 4), (26, 6), (130, 10), (1160, 20),  # m = C(k, 3) checks: saturated
    (36, 26), (48, 24), (512, 60), (1000, 900),
] + _SWEEP_LDPC_SIZES)
@pytest.mark.parametrize("seed", [0, 5])
def test_ldpc_tables_match_choice_loop(n_code, n_msg, seed):
    got = coding._ldpc_tables(n_code, n_msg, seed)
    want = _ldpc_tables_loop(n_code, n_msg, seed)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


# ------------------------------------------- packed kernels vs references


def _polar_transform_loop(bits):
    """Byte-per-bit reference: log2(n) in-place XOR stages over uint8 rows."""
    x = np.array(bits, dtype=np.uint8, copy=True)
    n = x.shape[-1]
    flat = x.reshape(-1, n)
    h = 1
    while h < n:
        v = flat.reshape(-1, n // (2 * h), 2, h)
        v[:, :, 1, :] ^= v[:, :, 0, :]
        h *= 2
    return flat.reshape(x.shape)


@pytest.mark.parametrize("log_n", range(16))
def test_polar_transform_matches_byte_loop(log_n):
    n = 1 << log_n
    rng = np.random.default_rng(log_n)
    for shape in [(n,), (3, n), (2, 3, n)]:
        bits = rng.integers(0, 2, size=shape, dtype=np.uint8)
        before = bits.copy()
        got = _polar_transform(bits)
        assert got.shape == shape and got.dtype == np.uint8
        assert np.array_equal(got, _polar_transform_loop(bits))
        assert np.array_equal(bits, before)


def _reference_polar_codes():
    """Every polar CodeConfig the five reference configs build."""
    built = []
    original = ExperimentConfig.code_config

    def record(self, *args, **kwargs):
        built.append(original(self, *args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExperimentConfig, "code_config", record)
        for path in sorted(CONFIGS.glob("*.ini")):
            load_config(path).validate()
    return sorted({(c.n_code_bits, c.n_msg_bits) for c in built if c.kind == "polar"})


def test_reference_configs_build_polar_codes():
    pairs = _reference_polar_codes()
    assert (2048, 240) in pairs and max(pairs)[0] == 32768


@pytest.mark.parametrize("n_code,n_msg", [(8, 3), (32, 13), (128, 50)]
                         + _reference_polar_codes())
def test_systematic_polar_matches_unpacked_reference(n_code, n_msg):
    cfg = CodeConfig(kind="polar", n_code_bits=n_code, n_msg_bits=n_msg)
    msgs = np.random.default_rng(n_code + n_msg).integers(0, 2, size=(3, n_msg),
                                                          dtype=np.uint8)
    info = np.array(polar_info_set(n_code, n_msg))
    comp = np.setdiff1d(np.arange(n_code), info)
    u = np.zeros((3, n_code), dtype=np.uint8)
    u[:, info] = msgs
    y = _polar_transform_loop(u)
    y[:, comp] = 0
    want = _polar_transform_loop(y)[:, np.concatenate([info, comp])]
    got = encode(msgs, cfg)
    assert got.flags.c_contiguous and got.dtype == np.uint8
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n_code,n_msg", [(2, 1), (3, 2), (48, 24), (512, 60), (2048, 1365)])
def test_ldpc_parity_matches_dense_product(n_code, n_msg):
    cfg = CodeConfig(kind="ldpc", n_code_bits=n_code, n_msg_bits=n_msg)
    a = parity_check_matrix(cfg)[:, :n_msg]
    msgs = np.random.default_rng(n_code).integers(0, 2, size=(2, 5, n_msg), dtype=np.uint8)
    cw = encode(msgs, cfg)
    assert cw.shape == (2, 5, n_code) and cw.dtype == np.uint8
    assert np.array_equal(cw[..., :n_msg], msgs)
    assert np.array_equal(cw[..., n_msg:], gf2_matmul(msgs, a.T))


def test_parity_check_matrix_is_row_regular():
    h = parity_check_matrix(CodeConfig(kind="ldpc", n_code_bits=512, n_msg_bits=60))
    assert np.array_equal(h[:, 60:], np.eye(452, dtype=np.uint8))
    assert np.all(h[:, :60].sum(axis=1) == 3)
    assert len({row.tobytes() for row in h[:, :60]}) == 452


def test_subset_closure_check():
    assert _subset_closed(np.array([0, 1, 2, 3, 4]), 8)
    assert not _subset_closed(np.array([0, 3]), 8)
    assert not _subset_closed(np.array([1]), 2)
    assert _subset_closed(np.array(polar_info_set(32768, 21840)), 32768)


def test_polar_info_set_raises_when_not_subset_closed(monkeypatch):
    monkeypatch.setattr(coding, "_subset_closed", lambda info, n: False)
    with pytest.raises(AssertionError, match="subset-closed"):
        polar_info_set.__wrapped__(32, 13)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["uncoded", "repetition", "polar", "ldpc"]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_encoders_are_gf2_linear(kind, seed):
    n_msg = 16
    n_code = 16 if kind == "uncoded" else 32
    cfg = CodeConfig(kind=kind, n_code_bits=n_code, n_msg_bits=n_msg)
    rng = np.random.default_rng(seed)
    a = _message(n_msg, rng)
    b = _message(n_msg, rng)
    lhs = encode(a ^ b, cfg)
    rhs = encode(a, cfg) ^ encode(b, cfg)
    assert np.array_equal(lhs, rhs)
    assert not np.any(encode(np.zeros(n_msg, dtype=np.uint8), cfg))


# ------------------------------------------------------------ interleaver


def _interleaver_table(cfg, seed):
    """The position table interleave_codeword applies with rng(seed): out[p] = in[table[p]]."""
    return interleave_codeword(np.arange(cfg.n_code_bits), cfg, np.random.default_rng(seed))


def test_interleaver_fixes_systematic_prefix():
    table = _interleaver_table(CodeConfig(kind="repetition", n_code_bits=16, n_msg_bits=8), 42)
    assert np.array_equal(table[:8], np.arange(8))
    assert sorted(table.tolist()) == list(range(16))
    # the parity draw is the generator's permutation of the parity positions
    assert np.array_equal(table[8:], 8 + np.random.default_rng(42).permutation(8))
    # no parity: nothing to permute, and nothing drawn
    plain = CodeConfig(kind="uncoded", n_code_bits=8, n_msg_bits=8)
    cw, rng = np.arange(8), np.random.default_rng(42)
    state = rng.bit_generator.state
    assert interleave_codeword(cw, plain, rng) is cw
    assert rng.bit_generator.state == state


def test_interleaver_seeded_generators_agree():
    # two generators built from one seed give one codeword
    cfg = CodeConfig(kind="repetition", n_code_bits=16, n_msg_bits=8)
    cw = encode(_message(8, np.random.default_rng(0)), cfg)
    assert np.array_equal(interleave_codeword(cw, cfg, np.random.default_rng(7)),
                          interleave_codeword(cw, cfg, np.random.default_rng(7)))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_interleaver_roundtrip(seed):
    # one seed, one permutation for every codeword: undoing the table
    # recovers the bits
    cfg = CodeConfig(kind="repetition", n_code_bits=24, n_msg_bits=8)
    table = _interleaver_table(cfg, seed)
    bits = np.random.default_rng(seed).integers(0, 2, size=(3, 24)).astype(np.uint8)
    mixed = interleave_codeword(bits, cfg, np.random.default_rng(seed))
    assert np.array_equal(mixed, bits[:, table])
    assert np.array_equal(mixed[:, np.argsort(table)], bits)


def test_interleave_codeword_permutes_parity_only():
    cfg = CodeConfig(kind="repetition", n_code_bits=16, n_msg_bits=8)
    msg = _message(8, np.random.default_rng(0))
    cw = encode(msg, cfg)
    mixed = interleave_codeword(cw, cfg, np.random.default_rng(3))
    assert np.array_equal(mixed[:8], msg)
    assert sorted(mixed[8:].tolist()) == sorted(cw[8:].tolist())


@pytest.mark.parametrize("interleave", [True, False])
@pytest.mark.parametrize("kind,n_code,n_msg", [("uncoded", 64, 64), ("repetition", 64, 16),
                                               ("polar", 64, 20), ("ldpc", 64, 40)])
def test_batch_codewords_are_c_contiguous(kind, n_code, n_msg, interleave):
    # row-major batches keep the mapper, channel and matched filter on unit
    # stride, with or without the interleaver; last-axis fancy indexing
    # would hand them Fortran order
    cfg = CodeConfig(kind=kind, n_code_bits=n_code, n_msg_bits=n_msg)
    msgs = np.random.default_rng(1).integers(0, 2, size=(8, n_msg), dtype=np.uint8)
    cw = encode(msgs, cfg)
    mixed = interleave_codeword(cw, cfg, np.random.default_rng(5)) if interleave else cw
    assert cw.flags.c_contiguous and mixed.flags.c_contiguous
    assert np.array_equal(mixed, cw[:, _interleaver_table(cfg, 5)]
                          if interleave else cw)


def test_interleaver_draws_are_uniform_over_seeds():
    # gamma=2, K=4 repetition: the parity half has 4! = 24 permutations;
    # chi-square over 20000 seeds should sit near its df = 23 mean
    counts = {}
    cfg = CodeConfig(kind="repetition", n_code_bits=8, n_msg_bits=4)
    for seed in range(20000):
        key = tuple(_interleaver_table(cfg, seed)[4:].tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 24
    expect = 20000 / 24
    chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
    assert chi2 < 23 + 3 * np.sqrt(46)


# ---------------------------------------------- bit correlation formulas


def _pm(bits):
    return 1.0 - 2.0 * bits.astype(float)


def test_plain_repetition_correlation_exact_by_enumeration():
    for n_msg, gamma in [(4, 2), (2, 3)]:
        n_code = n_msg * gamma
        cfg = CodeConfig(kind="repetition", n_code_bits=n_code, n_msg_bits=n_msg)
        msgs = np.array(list(itertools.product([0, 1], repeat=n_msg)), dtype=np.uint8)
        cw = _pm(encode(msgs, cfg))
        emp = cw.T @ cw / msgs.shape[0]
        for i in range(n_code):
            for j in range(n_code):
                if i == j:
                    continue
                want = repetition_bit_correlation(i, j, n_msg, gamma, interleaved=False)
                assert emp[i, j] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n_msg", [4, 8, 16])
def test_interleaved_repetition_correlation_monte_carlo(n_msg):
    gamma = 2
    n_code = gamma * n_msg
    cfg = CodeConfig(kind="repetition", n_code_bits=n_code, n_msg_bits=n_msg)
    trials = 120_000
    rng = np.random.default_rng(97)
    msgs = rng.integers(0, 2, size=(trials, n_msg), dtype=np.uint8)
    cw = encode(msgs, cfg)
    # fresh uniform permutation of the parity tail per draw
    order = rng.random((trials, n_code - n_msg)).argsort(axis=1)
    tail = np.take_along_axis(cw[:, n_msg:], order, axis=1)
    cw = np.concatenate([cw[:, :n_msg], tail], axis=1)
    sym = _pm(cw)
    pairs = [(0, 1), (0, n_msg), (n_msg - 1, n_code - 1), (n_msg, n_msg + 1)]
    for i, j in pairs:
        want = repetition_bit_correlation(i, j, n_msg, gamma, interleaved=True)
        prod = sym[:, i] * sym[:, j]
        est = prod.mean()
        se = prod.std(ddof=1) / np.sqrt(trials)
        assert abs(est - want) <= 3 * max(se, 1e-12), (i, j, est, want, se)


def test_interleaved_correlation_classes():
    # systematic pairs stay uncorrelated, systematic-parity pairs carry 1/K,
    # parity pairs vanish for gamma = 2
    assert repetition_bit_correlation(0, 1, 8, 2, interleaved=True) == 0.0
    assert repetition_bit_correlation(0, 9, 8, 2, interleaved=True) == pytest.approx(1 / 8)
    assert repetition_bit_correlation(8, 9, 8, 2, interleaved=True) == 0.0
    # gamma = 3: two parity copies of the same bit can collide
    val = repetition_bit_correlation(8, 9, 8, 3, interleaved=True)
    assert val == pytest.approx((3 - 2) / ((3 - 1) * 8 - 1))


def test_plain_correlation_closed_form():
    assert repetition_bit_correlation(0, 4, 4, 2, interleaved=False) == 1.0
    assert repetition_bit_correlation(0, 5, 4, 2, interleaved=False) == 0.0
    assert repetition_bit_correlation(3, 7, 4, 2, interleaved=False) == 1.0


# ------------------------------------------------------------- validation


def test_code_config_validation():
    with pytest.raises(ValueError):
        CodeConfig(kind="repetition", n_code_bits=10, n_msg_bits=4)  # not a multiple
    with pytest.raises(ValueError):
        CodeConfig(kind="polar", n_code_bits=24, n_msg_bits=8)  # not a power of two
    with pytest.raises(ValueError):
        CodeConfig(kind="uncoded", n_code_bits=8, n_msg_bits=4)
    with pytest.raises(ValueError):
        CodeConfig(kind="nope", n_code_bits=8, n_msg_bits=8)
    with pytest.raises(ValueError, match="rate too low"):
        CodeConfig(kind="ldpc", n_code_bits=9, n_msg_bits=4)  # 5 checks, C(4, 3) = 4 supports
    CodeConfig(kind="ldpc", n_code_bits=8, n_msg_bits=4)  # exactly C(4, 3) = 4 checks
