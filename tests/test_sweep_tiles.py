"""The sweep engine's row tiles: tiled statistics equal untiled ones byte for byte.

experiments._sweep applies each sidelobe statistic to experiments._row_tiles(m,
N) row tiles of an (m, N) batch.  The tiles are byte-identical to one call on
the whole batch only while every 2N-point FFT product in
correlation._aperiodic stays on the same side of numpy's 256 KiB
temporary-elision threshold (rows x N >= 8192) as the untiled batch's.
"""

import numpy as np
import pytest

from ccsradar import experiments
from ccsradar.config import ExperimentConfig
from ccsradar.correlation import autocorr, crosscorr, idft_ratio, pslr, suppression_metric
from ccsradar.experiments import _pslr_stat, _row_tiles, _window_lags
from ccsradar.modulation import constellation

ELISION_POINTS = 8192  # rows x N of a 256 KiB product: 16 B x 2N per row
WINDOW = 32


def _tile_rows(m, n):
    return [t.size for t in np.array_split(np.arange(m), _row_tiles(m, n))]


def _suppress_stat(s_i, s_q):
    lags = _window_lags(WINDOW, s_i.shape[-1])
    return (suppression_metric(crosscorr(s_q, s_i, lags=lags), max_lag=WINDOW),
            suppression_metric(idft_ratio(s_i, s_q), max_lag=WINDOW))


def _tiled(stat, syms):
    k = _row_tiles(syms[0].shape[0], syms[0].shape[1])
    parts = [stat(*tile) for tile in zip(*(np.array_split(s, k) for s in syms))]
    return [np.concatenate(v) for v in zip(*parts)]


@pytest.mark.parametrize("m", [16, 74, 232, 256])
@pytest.mark.parametrize("n", [64, 256, 512, 4096])
def test_tiled_statistics_equal_untiled_bytes(n, m):
    const = constellation("qpsk")
    rng = np.random.default_rng(1000 * n + m)
    syms = [const.points[rng.integers(0, 4, size=(m, n))] for _ in range(2)]
    for stat, args in ((_pslr_stat(WINDOW), syms[:1]), (_suppress_stat, syms)):
        whole = stat(*args)
        tiled = _tiled(stat, args)
        assert len(tiled) == len(whole)
        for a, b in zip(tiled, whole):
            assert a.tobytes() == b.tobytes()
    # and the windowed statistic reads what the full profile reads
    full = pslr(autocorr(syms[0]), max_lag=WINDOW)
    assert full.tobytes() == _pslr_stat(WINDOW)(syms[0])[0].tobytes()


def test_tiles_keep_the_elision_side():
    # every batch size the sweeps draw, at the reference N and beyond
    ns = sorted({2, 3, 100, 255, 4095, 8191, 40000, 65535, 65537, 200000}
                | {2 ** e for e in range(1, 19)})
    for n in ns:
        for m in range(1, experiments._CHUNK + 1):
            rows = _tile_rows(m, n)
            assert sum(rows) == m and min(rows) >= 1 and max(rows) - min(rows) <= 1
            if len(rows) > 1:
                assert m * n >= 2 * experiments._TILE_POINTS, (n, m)
            if m * n >= ELISION_POINTS:
                assert min(rows) * n >= ELISION_POINTS, (n, m)


def test_uncoded_n64_stays_untiled():
    # fixed 64-row tiles once changed the last digit of this median
    # (128 KiB tiles of a 512 KiB batch product)
    assert all(_row_tiles(m, 64) == 1 for m in range(1, experiments._CHUNK + 1))


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
    monkeypatch.setattr(experiments, "_TILE_POINTS", 10 ** 12)
    assert _row_tiles(experiments._CHUNK, 4096) == 1
    assert driver(config).rows == tiled
