"""The sweep engine's row tiles: tiled statistics equal untiled ones byte for byte.

experiments._tiled_stats generates the symbols of an (m, N) batch and applies
each statistic to them max(1, _TILE_POINTS // N) rows at a time, for the
sidelobe sweeps and the bound statistics alike.  Every row's correlation bytes
are the same whatever batch it is computed in (tests/test_correlation.py), so
any row tiling, down to one row per call, gives the bytes of one call on the
whole batch, and no whole batch is held.  The bound statistics' V[1] is a
matrix-vector product, whose one-row case BLAS computes otherwise: its tiles
never hold one row of a multi-row batch.
"""

import tracemalloc

import numpy as np
import pytest

from ccsradar import experiments
from ccsradar._rng import substream
from ccsradar.config import ExperimentConfig
from ccsradar.correlation import autocorr, crosscorr, idft_ratio, pslr, suppression_metric
from ccsradar.experiments import _pslr_stat, _window_lags
from ccsradar.modulation import constellation
from ccsradar.scene import row_tiles

from test_acceptance import all_lags
from test_correlation import windowed

WINDOW = 32


def _suppress_stat(s_i, s_q):
    lags = _window_lags(WINDOW, s_i.shape[-1])
    return (suppression_metric(crosscorr(s_q, s_i, lags=lags), max_lag=WINDOW),
            suppression_metric(idft_ratio(s_i, s_q), max_lag=WINDOW))


def _tiled(stat, syms, rows):
    parts = [stat(*(s[t] for s in syms)) for t in row_tiles(syms[0].shape[0], rows)]
    return [np.concatenate(v) for v in zip(*parts)]


def _assert_tiles_equal_whole(syms, rows):
    for stat, args in ((_pslr_stat(WINDOW), syms[:1]), (_suppress_stat, syms)):
        whole = stat(*args)
        tiled = _tiled(stat, args, rows)
        assert len(tiled) == len(whole)
        for a, b in zip(tiled, whole):
            assert a.tobytes() == b.tobytes()


def _qpsk_batches(m, n, seed):
    const = constellation("qpsk")
    rng = np.random.default_rng(seed)
    return [const.points[rng.integers(0, 4, size=(m, n))] for _ in range(2)]


@pytest.mark.parametrize("m", [16, 74, 232, 256])
@pytest.mark.parametrize("n", [64, 256, 512, 4096])
def test_tiled_statistics_equal_untiled_bytes(n, m):
    syms = _qpsk_batches(m, n, 1000 * n + m)
    # the sweep's own tiles, and one row per call
    for rows in (max(1, experiments._TILE_POINTS // n), 1):
        _assert_tiles_equal_whole(syms, rows)
    # and the windowed statistic reads what the full profile reads
    full = pslr(windowed(autocorr(syms[0], all_lags(n)), WINDOW))
    assert full.tobytes() == _pslr_stat(WINDOW)(syms[0])[0].tobytes()


def test_uncoded_n64_tiles_equal_the_batch():
    # 64-row tiles (128 KiB products) of a 256 x 64 batch (a 512 KiB product)
    # once changed the last digit of the uncoded N = 64 median
    _assert_tiles_equal_whole(_qpsk_batches(experiments._CHUNK, 64, 64), 64)


@pytest.mark.parametrize("kind", ["pslr", "suppress", "interleave"])
def test_driver_rows_equal_untiled(kind, monkeypatch):
    # 300 trials: one full 256-row batch (16 tiles at N = 4096) and a 44-row one
    config = ExperimentConfig(kind=kind, seed=3, trials=300, n_list=(64, 512, 4096),
                              codes=("uncoded", "polar"),
                              rates=((120.0, 1024, "qpsk"),))
    driver = {"pslr": experiments.run_pslr_sweep,
              "suppress": experiments.run_suppression_sweep,
              "interleave": experiments.run_interleaver_study}[kind]
    tiled = driver(config).rows
    # one untiled call per batch, then the fewest rows per call (two)
    for points in (10 ** 12, 1):
        monkeypatch.setattr(experiments, "_TILE_POINTS", points)
        assert driver(config).rows == tiled


def test_suppress_point_peak_memory():
    # The largest sweep point: two 256-row streams of 256-QAM polar symbols at
    # N = 4096, 16 MiB each as whole complex batches.  Built whole before the
    # first tile was read, the two batches peaked at 67 MiB; generated and read
    # one row tile at a time, at 22 MiB, most of it the one-byte message bits
    # of both batches.  With the bits held packed and the FFT buffers of one
    # correlation.workspace() per sweep, the traced peak is about 13 MiB
    # (numpy 2.4): below one whole complex batch.
    config = ExperimentConfig(kind="suppress", seed=0, trials=experiments._CHUNK,
                              n_list=(4096,), codes=("polar",),
                              rates=((682.5, 1024, "256qam"),))
    batch_bytes = 16 * experiments._CHUNK * 4096
    experiments.run_suppression_sweep(config)  # fill the code caches first
    tracemalloc.start()
    try:
        experiments.run_suppression_sweep(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < batch_bytes, f"peak {peak / 2 ** 20:.1f} MiB"


def _whole_batch_bound_statistics(cfg, const, trials, seed, key):
    # _bound_statistics as it read each stream's batch whole
    n = cfg.n_code_bits // const.bits_per_symbol
    chi, rho, v1 = [], [], []
    kernel = np.exp(2j * np.pi * np.arange(n) / n)
    for ci, start in enumerate(range(0, trials, experiments._CHUNK)):
        m = min(experiments._CHUNK, trials - start)
        s, s_i, s_q = (next(experiments._symbol_batch(cfg, const, m,
                                                      substream(seed, *key, j, ci), True, m))
                       for j in range(3))
        chi.append(np.einsum("tn,tn->t", s[:, 1:], np.conj(s[:, :-1])) / n)
        rho.append(np.einsum("tn,tn->t", s_q, np.conj(s_i)) / n)
        v1.append((s_q / s_i) @ kernel / n)
    return {"chi1": np.concatenate(chi), "rho0": np.concatenate(rho),
            "v1": np.concatenate(v1)}


def _bound_config(kind, n):
    config = ExperimentConfig(kind="bounds", seed=0, trials=1)
    return config.code_config(kind, 120.0, 1024, n, "qpsk"), constellation("qpsk")


@pytest.mark.parametrize("tile_rows,trials", [
    (None, 300),  # the drivers' own tiles: one at N = 256, four at N = 1024
    (74, 300),    # 74 + 74 + 74 + 34 rows, then one 44-row tile
    (64, 321),    # the 65-row last batch: naively 64 + 1 rows, taken as one tile
], ids=["driver", "uneven", "one_row_tail"])
@pytest.mark.parametrize("kind", ["uncoded", "polar"])
@pytest.mark.parametrize("n", [256, 1024])
def test_bound_statistics_tiles_equal_the_batch(n, kind, tile_rows, trials, monkeypatch):
    cfg, const = _bound_config(kind, n)
    key = (experiments._D_BND, 1, 0)
    want = _whole_batch_bound_statistics(cfg, const, trials, 4, key)
    if tile_rows is not None:
        monkeypatch.setattr(experiments, "_TILE_POINTS", tile_rows * n)
    got = experiments._bound_statistics(cfg, const, trials, 4, key)
    assert list(got) == list(experiments._BOUND_STATS) == list(want)
    for stat in want:
        assert got[stat].tobytes() == want[stat].tobytes(), stat


def test_bound_statistics_peak_memory():
    # Three 256 x 1024 complex streams are 4 MiB each as whole batches; read in
    # 64-row tiles, the bound statistics hold a quarter of that per stream.
    cfg, const = _bound_config("polar", 1024)
    args = (cfg, const, experiments._CHUNK, 0, (experiments._D_BND, 1, 1))
    peaks = []
    for fn in (_whole_batch_bound_statistics, experiments._bound_statistics):
        fn(*args)  # fill the code caches first
        tracemalloc.start()
        try:
            fn(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    whole, tiled = peaks
    assert tiled < whole / 2, (f"peak {tiled / 2 ** 20:.1f} MiB, "
                               f"whole batches {whole / 2 ** 20:.1f} MiB")
