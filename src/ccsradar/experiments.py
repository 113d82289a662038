"""Experiment drivers: sidelobe sweeps, bound checks and the near-far study.

Each driver takes an ExperimentConfig and returns ResultTables built from
seeded substreams, so reruns with the same config and seed reproduce every
data row byte for byte.  Trials draw a fresh message and a fresh parity
interleaver per block; near-far trials additionally redraw the per-frame
interleaver of each radar.  Substreams are keyed by (domain, combo indices,
trial), which makes the merge order irrelevant.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from ._rng import random_bits, substream
from .bounds import (autocorr_tail_lb, autocorr_tail_ub, crosscorr_tail_ub, empirical_tail,
                     median_pslr_from_bound, median_suppression_from_bound, ofdm_tail_ub)
from .coding import CodeConfig, encode
from .config import BOUND_CODES, ExperimentConfig, ResultTable, k_symbols, result_meta
from .correlation import autocorr, crosscorr, idft_ratio, pslr, suppression_metric, workspace
from .detection import RocCurves, grid_pd_gap, summarize_map, threshold_sweep
from .modulation import (constellation, generate_ccs_blocks, map_bits, product_bound_b,
                         ratio_bound_b)
from .receiver import fmcw_range_doppler, mf_bank, ofdm_range_doppler, sc_range_doppler
from .scene import (apply_channel_ofdm, apply_channel_sc, row_tiles, synth_frame,
                    write_frame_bin)

# substream domains, one per independent randomness consumer
_D_PSLR, _D_SUPP, _D_INTL, _D_BND, _D_NF_MSG, _D_NF_PERM, _D_NF_NOISE = range(7)

_CHUNK = 256
# 32-bit words per message-bit draw: even, so a chunk packs to whole bytes
_MSG_WORDS = 1 << 14
# rows x N per sweep-statistic call: cache-sized row tiles
_TILE_POINTS = 65536
# LDPC rows stop at this block length.  Not for cost (building the tables
# takes well under a second even at N = 4096): the goldens and the benchmark
# reference pin this row set, so lifting the cap waits for a re-recording.
LDPC_N_CAP = 1024

NEARFAR_VARIANTS = ("ccs_sc", "ccs_sc_nointf", "ccs_ofdm", "ccs_ofdm_nointf", "fmcw")


def _permute_rows(bits: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """bits[r, keys[r].argsort()] for every row r, by a value sort; keys is scaled in place.

    keys lie in [0, 1).  Scaling them by 2**31 is exact and keeps their order,
    so each key's integer part floor(key * 2**31) shifted left by one carries
    its bit in bit 0 of a uint32 word through the sort.  A row where two sorted
    neighbours share that integer part (equal keys, or keys equal above
    2**-31: about m**2 / 2**32 rows of m rng.random keys) takes argsort of its
    scaled keys, which orders them, ties included, as argsort of the keys.
    """
    keys *= 2.0 ** 31
    words = keys.astype(np.uint32)
    words <<= 1
    words |= bits
    words.sort(axis=1)
    out = np.bitwise_and(words, 1, out=np.empty(bits.shape, np.uint8), casting="unsafe")
    words >>= 1
    for r in np.flatnonzero((words[:, 1:] == words[:, :-1]).any(axis=1)):
        out[r] = bits[r, keys[r].argsort()]
    return out


def _packed_messages(rng, n_bits: int) -> np.ndarray:
    """random_bits(rng, (n_bits,)), np.packbits-packed, drawn _MSG_WORDS words at a time.

    Split draws of 32-bit words leave the stream of one whole draw, and an even
    chunk of words is a whole number of bytes of bits, so the packed chunks
    join into the bits of one draw and rng ends in the same state.
    """
    packed = np.empty(-(-n_bits // 8), dtype=np.uint8)
    step = 4 * _MSG_WORDS
    for i in range(0, n_bits, step):
        packed[i // 8:(i + step) // 8] = np.packbits(random_bits(rng, (min(step, n_bits - i),)))
    return packed


def _unpack_rows(packed: np.ndarray, k: int, rows: slice) -> np.ndarray:
    """Rows `rows` of the (n_rows, k) bit matrix packed row after row."""
    lo, hi = rows.start * k, rows.stop * k
    bits = np.unpackbits(packed[lo // 8:-(-hi // 8)])
    return bits[lo % 8:lo % 8 + hi - lo].reshape(-1, k)


def _symbol_batch(cfg: CodeConfig, const, n_blocks: int, rng, interleaved: bool, tile_rows: int):
    """The (rows, N) symbol tiles of an n_blocks-row batch, tile_rows rows each,
    with a fresh message and, if interleaved, parity permutation per row.

    All messages are drawn before the first tile's parity keys and held packed,
    eight bits a byte; each float64 key takes one 64-bit output, so any tiling
    yields the rows of one whole-batch tile byte for byte and leaves rng in the
    same state.
    """
    k = cfg.n_msg_bits
    msgs = _packed_messages(rng, n_blocks * k)
    for rows in row_tiles(n_blocks, tile_rows):
        # encode returns a fresh array for every code: permuted in place
        cw = encode(_unpack_rows(msgs, k, rows), cfg)
        if interleaved and cfg.n_code_bits > k:
            cw[:, k:] = _permute_rows(cw[:, k:], rng.random((len(cw), cfg.n_code_bits - k)))
        yield map_bits(cw, const)


def _tiled_stats(cfg: CodeConfig, const, trials: int, rngs, stat, interleaved: bool):
    """stat's per-trial statistics over trials rows in _CHUNK-row batches.

    Batch ci draws one _symbol_batch per generator of rngs(ci); stat takes one
    row tile of each at a time.  Tiles hold max(1, _TILE_POINTS // N) rows,
    widened until none holds one row of a multi-row batch (a one-row product
    with a vector goes to BLAS zdotu, not zgemv, and moves bits).  Each stream's
    tile replaces its last before the next stream draws: freeing a whole set at
    once lets glibc trim the heap top, and the next set faults its pages again.
    """
    parts, syms = [], {}
    n = cfg.n_code_bits // const.bits_per_symbol
    for ci, start in enumerate(range(0, trials, _CHUNK)):
        m = min(_CHUNK, trials - start)
        rows = max(1, _TILE_POINTS // n)
        while m > 1 and (rows == 1 or m % rows == 1):
            rows += 1
        gens = [_symbol_batch(cfg, const, m, rng, interleaved, rows) for rng in rngs(ci)]
        for _ in row_tiles(m, rows):
            for j, gen in enumerate(gens):
                syms[j] = next(gen)
            parts.append(stat(*syms.values()))
    return [np.concatenate(v) for v in zip(*parts)]


def _curve_combos(config: ExperimentConfig):
    """(ci, ri, code, rate_num, rate_den, modulation) per plotted curve.

    Uncoded curves collapse to one entry per modulation since the rate is
    immaterial for them.
    """
    out, seen_uncoded = [], set()
    for ci, code in enumerate(config.codes):
        for ri, (num, den, mod) in enumerate(config.rates):
            if code == "uncoded":
                if mod in seen_uncoded:
                    continue
                seen_uncoded.add(mod)
                out.append((ci, ri, code, 1.0, 1, mod))
            else:
                out.append((ci, ri, code, num, den, mod))
    return out


def _rate_label(num: float, den: int) -> str:
    return f"{num:g}/{den}"


def _skip(code: str, n: int) -> bool:
    return code == "ldpc" and n > LDPC_N_CAP


def _window_lags(window: int, n: int) -> np.ndarray:
    """The lags |l| <= window the sidelobe statistics read, inside |l| <= N - 1."""
    w = min(window, n - 1)
    return np.arange(-w, w + 1)


def _pslr_stat(window: int):
    return lambda s: (pslr(autocorr(s, lags=_window_lags(window, s.shape[-1])),
                           max_lag=window),)


# ---------------------------------------------------------------------------
# sidelobe sweeps

def _sweep(config: ExperimentConfig, domain: int, stat, runs):
    """The (code, rate, N) walk shared by the three sidelobe sweeps.

    For each curve point and each (interleaved, keys) entry of runs(code),
    reads one symbol stream per key, substream(seed, domain, ci, ri, ni, *key),
    through _tiled_stats, with one correlation.workspace() for the whole walk.
    Yields (head, const, k_sym, interleaved, values): head = (code, rate,
    modulation, n) leads every row, values holds stat's per-trial statistics.
    """
    seed = config.require_seed()
    trials = config.resolved_trials()
    with workspace():
        for ci, ri, code, num, den, mod in _curve_combos(config):
            const = constellation(mod)
            for ni, n in enumerate(config.n_list):
                if _skip(code, n):
                    continue
                cfg = config.code_config(code, num, den, n, mod)
                head = (code, _rate_label(num, den), mod, n)
                for interleaved, keys in runs(code):
                    rngs = [substream(seed, domain, ci, ri, ni, *key) for key in keys]
                    values = _tiled_stats(cfg, const, trials, lambda _: rngs, stat, interleaved)
                    yield head, const, k_symbols(cfg, const), interleaved, values


def run_pslr_sweep(config: ExperimentConfig) -> ResultTable:
    """Median windowed PSLR per (code, rate, N) plus the bound-implied median."""
    t0 = time.perf_counter()
    trials = config.resolved_trials()
    rows = []
    for head, const, k_sym, _interleaved, (vals,) in _sweep(
            config, _D_PSLR, _pslr_stat(config.sidelobe_window),
            runs=lambda code: ((True, ((),)),)):
        rows.append(head + (trials, float(np.median(vals)),
                            float(np.percentile(vals, 25)),
                            float(np.percentile(vals, 75)),
                            median_pslr_from_bound(n=head[3], lag=1,
                                                   b=product_bound_b(const), k=k_sym)))
    cols = ("code", "rate", "modulation", "n", "trials", "median_pslr_db",
            "p25_db", "p75_db", "bound_median_db")
    return ResultTable(cols, rows, result_meta(config, time.perf_counter() - t0))


def run_suppression_sweep(config: ExperimentConfig) -> ResultTable:
    """Median windowed suppression of an independent interferer, per statistic.

    sc_cross is the aperiodic cross-correlation peak between the two signals;
    ofdm_kernel is the peak of the inverse-DFT ratio kernel.  Both windows
    cover |l| <= sidelobe_window including the zero lag.
    """
    t0 = time.perf_counter()
    trials = config.resolved_trials()
    window = config.sidelobe_window

    def stat(s_i, s_q):
        lags = _window_lags(window, s_i.shape[-1])
        return (suppression_metric(crosscorr(s_q, s_i, lags=lags), max_lag=window),
                suppression_metric(idft_ratio(s_i, s_q), max_lag=window))

    rows = []
    for head, const, k_sym, _interleaved, (vals_cross, vals_ofdm) in _sweep(
            config, _D_SUPP, stat, runs=lambda code: ((True, ((0,), (1,))),)):
        for metric, vals, kind, b in (
                ("sc_cross", vals_cross, "cross", product_bound_b(const)),
                ("ofdm_kernel", vals_ofdm, "ofdm", ratio_bound_b(const, const))):
            rows.append(head + (trials, metric, float(np.median(vals)),
                                median_suppression_from_bound(kind, n=head[3], b=b,
                                                              k_i=k_sym, k_q=k_sym)))
    cols = ("code", "rate", "modulation", "n", "trials", "metric",
            "median_db", "bound_median_db")
    return ResultTable(cols, rows, result_meta(config, time.perf_counter() - t0))


def run_interleaver_study(config: ExperimentConfig) -> ResultTable:
    """Median PSLR with and without the parity interleaver, vs the uncoded
    reference at the same modulation."""
    t0 = time.perf_counter()
    trials = config.resolved_trials()

    def runs(code):
        # substream key 1 runs with the parity interleaver, key 0 without
        if code == "uncoded":
            return ((True, ((1,),)),)
        return ((True, ((1,),)), (False, ((0,),)))

    rows = []
    for head, _const, _k_sym, interleaved, (vals,) in _sweep(
            config, _D_INTL, _pslr_stat(config.sidelobe_window), runs):
        rows.append(head + (int(interleaved), trials, float(np.median(vals))))
    cols = ("code", "rate", "modulation", "n", "interleaved", "trials",
            "median_pslr_db")
    return ResultTable(cols, rows, result_meta(config, time.perf_counter() - t0))


# ---------------------------------------------------------------------------
# tail bounds

_BOUND_STATS = ("chi1", "rho0", "v1")

def _bound_statistics(cfg: CodeConfig, const, trials: int, seed: int, key: tuple) -> dict:
    """10^4-scale samples of chi(1), rho(0) and V[1] for one signal family; stream s
    of batch ci is substream(seed, *key, s, ci): chi(1) reads 0, rho(0) and V[1] 1, 2."""
    n = cfg.n_code_bits // const.bits_per_symbol
    kernel = np.exp(2j * np.pi * np.arange(n) / n)
    chi, = _tiled_stats(cfg, const, trials, lambda ci: [substream(seed, *key, 0, ci)],
                        lambda s: (np.einsum("tn,tn->t", s[:, 1:], np.conj(s[:, :-1])) / n,),
                        interleaved=True)
    rho, v1 = _tiled_stats(cfg, const, trials,
                           lambda ci: [substream(seed, *key, s, ci) for s in (1, 2)],
                           lambda s_i, s_q: (np.einsum("tn,tn->t", s_q, np.conj(s_i)) / n,
                                             (s_q / s_i) @ kernel / n),
                           interleaved=True)
    return {"chi1": chi, "rho0": rho, "v1": v1}


def _lb_witness_rows() -> list:
    """Exhaustive all-message enumeration of the short repetition code.

    The all-zero message makes every symbol identical, so |Re chi(l)| reaches
    (N - l)/N with probability at least 2^-K; enumeration gives the exact tail.
    """
    u = 0.01
    cfg = CodeConfig("repetition", 8, 4)
    const = constellation("bpsk")
    msgs = ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1).astype(np.uint8)
    syms = map_bits(encode(msgs, cfg), const)
    rows = []
    for lag in (1, 2):
        chi = np.einsum("tn,tn->t", syms[:, lag:], np.conj(syms[:, :8 - lag])) / 8
        p_hat = float(np.mean(np.abs(chi.real) > u))
        lb = autocorr_tail_lb(k=4, m_s=1)
        rows.append((f"chi_lb_l{lag}", "re", "repetition", "1/2", "bpsk", 8, 16,
                     u, p_hat, p_hat, p_hat, lb, "lb", int(p_hat >= lb)))
    return rows


def run_tail_bound_check(config: ExperimentConfig) -> ResultTable:
    """Empirical tails vs analytic bounds on a u grid, plus the enumeration
    witness for the lower bound.  Always compares uncoded and polar at the
    first of config.rates; config.codes is not read.

    dominated means the 3-sigma Wilson lower limit stays below the upper bound
    (side ub) or the exact tail stays above the lower bound (side lb).
    """
    t0 = time.perf_counter()
    seed = config.require_seed()
    trials = config.resolved_trials()
    num, den, mod = config.rates[0]
    const = constellation(mod)
    u = config.u_grid()
    rows = []
    for ki, kind in enumerate(BOUND_CODES):
        for ni, n in enumerate(config.bounds_n_list):
            cfg = config.code_config(kind, num, den, n, mod)
            stats = _bound_statistics(cfg, const, trials, seed, (_D_BND, ki, ni))
            k_sym = k_symbols(cfg, const)
            b_prod, b_ratio = product_bound_b(const), ratio_bound_b(const, const)
            per_stat = zip(_BOUND_STATS, (
                autocorr_tail_ub(u, n=n, lag=1, b=b_prod, k=k_sym),
                crosscorr_tail_ub(u, n=n, lag=0, b=b_prod, k_i=k_sym, k_q=k_sym),
                ofdm_tail_ub(u, n=n, b=b_ratio, k_i=k_sym, k_q=k_sym)))
            rate = _rate_label(1.0, 1) if kind == "uncoded" else _rate_label(num, den)
            for stat, ub in per_stat:
                for part, samples in (("re", stats[stat].real), ("im", stats[stat].imag)):
                    p, lo, hi = empirical_tail(samples, u, z=3.0)
                    for g in range(u.size):
                        rows.append((stat, part, kind, rate, mod, n, trials,
                                     float(u[g]), float(p[g]), float(lo[g]), float(hi[g]),
                                     float(ub[g]), "ub", int(lo[g] <= ub[g] + 1e-15)))
    rows.extend(_lb_witness_rows())
    cols = ("stat", "part", "code", "rate", "modulation", "n", "trials", "u",
            "p_hat", "wilson_lo", "wilson_hi", "bound", "bound_side", "dominated")
    return ResultTable(cols, rows, result_meta(config, time.perf_counter() - t0))


# ---------------------------------------------------------------------------
# near-far study

def _near_far_trial(config: ExperimentConfig, t: int, fmcw_frame: np.ndarray):
    """Trial t of the near-far study: (own frame s1, an iterator of
    (variant, RangeDopplerMap) in NEARFAR_VARIANTS order).

    fmcw_frame is the synth_frame transmission; its first row is the chirp.
    Both c.c.s frames are LabelFrames, mapped a row tile at a time by the
    channels and receivers that read them.  Each map is made when the iterator
    reaches it, its receiver reading its channel's Received stream, so a caller
    that drops each map before the next holds one at a time.  Radar j in
    (0, 1) draws its messages from substream (_D_NF_MSG, t, j) and its parity
    permutation from a generator seeded by one draw of (_D_NF_PERM, t, j);
    variant k of NEARFAR_VARIANTS draws its noise from (_D_NF_NOISE, t, k)."""
    seed = config.require_seed()
    n_max = config.n_max
    num, den, mod = config.rates[0]
    const = constellation(mod)
    cfg = config.code_config(config.nearfar_code_kind(), num, den, config.n_fast, mod)
    frames = []
    for j in (0, 1):
        perm = np.random.default_rng(int(substream(seed, _D_NF_PERM, t, j).integers(2 ** 62)))
        frames.append(generate_ccs_blocks(cfg, const, config.m_slow,
                                          substream(seed, _D_NF_MSG, t, j), perm))
    s1 = frames[0]
    scene_i = config.scene(with_interference=True)
    scene_n = config.scene(with_interference=False)
    # each chain looks its receive-path names up in this module when it runs
    chains = (
        lambda rng: sc_range_doppler(mf_bank(apply_channel_sc(frames, scene_i, rng), s1, n_max)),
        lambda rng: sc_range_doppler(mf_bank(apply_channel_sc([s1], scene_n, rng), s1, n_max)),
        lambda rng: ofdm_range_doppler(apply_channel_ofdm(frames, scene_i, rng), s1, n_max),
        lambda rng: ofdm_range_doppler(apply_channel_ofdm([s1], scene_n, rng), s1, n_max),
        lambda rng: fmcw_range_doppler(apply_channel_sc([fmcw_frame], scene_n, rng),
                                       fmcw_frame[0], n_max))
    maps = ((v, chain(substream(seed, _D_NF_NOISE, t, k)))
            for k, (v, chain) in enumerate(zip(NEARFAR_VARIANTS, chains)))
    return s1, maps


def run_near_far(config: ExperimentConfig, dump_dir=None):
    """Monte Carlo of the two-target scene with one interfering radar.

    Runs _near_far_trial for t = 0..trials-1 on one FMCW frame and reduces each
    of a trial's five maps (c.c.s single-carrier and OFDM each with and without
    the interferer, plus an interference-free FMCW reference) to summarize_map
    rows as it is made, dropping it before the next.
    Returns (summary ResultTable, RocCurves, {variant: levels array}), one
    [near, far, max_other] row per trial;
    when dump_dir is set the trial-0 maps and transmit frames are written there,
    the frames a row tile at a time.  A terminal stderr shows progress (trial
    t/T, trials/s, ETA).
    """
    t0 = time.perf_counter()
    trials = config.resolved_trials()
    tbins = config.target_bins()
    fmcw_frame = synth_frame(config.n_fast, config.m_slow)
    levels = {v: np.empty((trials, len(tbins) + 1)) for v in NEARFAR_VARIANTS}
    for t in range(trials):
        s1, maps = _near_far_trial(config, t, fmcw_frame)
        out = Path(dump_dir) if t == 0 and dump_dir is not None else None
        for v, rd_map in maps:
            levels[v][t] = summarize_map(rd_map, tbins)
            if out:
                rd_map.export_csv(out / f"map_{v}.csv")
                rd_map.export_binary(out / f"map_{v}.bin")
            del rd_map  # freed before the next variant's channel runs
        if out:
            write_frame_bin(out / "frame_ccs_sc.bin", s1)
            write_frame_bin(out / "frame_fmcw.bin", fmcw_frame)
        del s1, maps  # freed before the next trial allocates its frames
        if sys.stderr.isatty():
            rate = (t + 1) / (time.perf_counter() - t0)
            print(f"\rnearfar trial {t + 1}/{trials}, {rate:.2f} trials/s, ETA "
                  f"{(trials - t - 1) / rate:.0f} s", end="" if t + 1 < trials else "\n",
                  file=sys.stderr, flush=True)
    roc = threshold_sweep(levels, points=config.eta_points)
    rows = []
    for v in NEARFAR_VARIANTS:
        near, far, other = levels[v].T
        lo, hi, pts = _sweet_band(roc, v)
        rows.append((v, trials, float(near.mean()), float(near.min()),
                     float(far.mean()), float(far.min()), float(far.max()),
                     float(other.mean()), float(other.max()), lo, hi, pts))
    cols = ("variant", "trials", "near_mean", "near_min", "far_mean", "far_min",
            "far_max", "max_other_mean", "max_other_max", "band_lo", "band_hi",
            "band_points")
    table = ResultTable(cols, rows, result_meta(config, time.perf_counter() - t0))
    return table, roc, levels


def _sweet_band(roc: RocCurves, variant: str) -> tuple[float, float, int]:
    """Threshold band with every target detected and no false alarm."""
    mask = (roc.pd[variant] >= 1.0) & (roc.pf[variant] <= 0.0)
    if not np.any(mask):
        return float("nan"), float("nan"), 0
    eta = roc.eta[mask]
    return float(eta.min()), float(eta.max()), int(mask.sum())


# ---------------------------------------------------------------------------
# result properties: the one statement of each documented property, as
# (name, ok, detail) verdicts; `ccsradar <kind> --check` prints them and
# tests/test_acceptance.py asserts them

def _curve(table: ResultTable, **conds) -> dict:
    """{n: median dB} over the rows matching conds."""
    n_i = table.columns.index("n")
    v_i = table.columns.index("median_pslr_db" if "median_pslr_db" in table.columns
                              else "median_db")
    return {r[n_i]: r[v_i] for r in table.select(**conds)}


def _named_curves(config: ExperimentConfig):
    """(name, code, rate label, modulation) per plotted curve; the name carries
    the rate for coded curves, so two rates at one modulation stay apart."""
    for _ci, _ri, code, num, den, mod in _curve_combos(config):
        rate = _rate_label(num, den)
        yield (f"{code}_{mod}" if code == "uncoded" else f"{code}_{rate}_{mod}",
               code, rate, mod)


def _span(config: ExperimentConfig, code: str) -> list:
    """Block lengths a complete curve of this code covers."""
    return sorted(n for n in config.n_list if not _skip(code, n))


def _slope_check(name: str, curve: dict, span: list) -> list:
    """About 3 dB more per doubling of N, endpoint to endpoint of the full span."""
    if len(span) < 2:
        return []
    if sorted(curve) != span:
        return [(name, False, f"N = {sorted(curve)}, want {span}")]
    slope = (curve[span[-1]] - curve[span[0]]) / np.log2(span[-1] / span[0])
    return [(name, 2.5 <= slope <= 3.5, f"{slope:.2f} dB per doubling over "
             f"N = {span[0]}..{span[-1]} (want [2.5, 3.5])")]


def _gap_check(name: str, a: dict, b: dict, span: list, limit: float,
               strict: bool = False) -> list:
    """Largest |a - b| over the span, which both curves must cover."""
    if not span:
        return []
    shared = sorted(set(a) & set(b))
    if shared != span:
        return [(name, False, f"shared N = {shared}, want {span}")]
    gap = max(abs(a[n] - b[n]) for n in span)
    return [(name, gap < limit if strict else gap <= limit,
             f"max {gap:.3f} dB over N = {span[0]}..{span[-1]} "
             f"(want {'<' if strict else '<='} {limit})")]


def check_pslr(table: ResultTable, config: ExperimentConfig) -> list:
    checks = []
    for name, code, rate, mod in _named_curves(config):
        curve = _curve(table, code=code, rate=rate, modulation=mod)
        if name == "uncoded_qpsk" and 1024 in config.n_list:
            med = curve.get(1024, float("nan"))
            checks.append(("uncoded_qpsk_median_n1024", 23.0 <= med <= 27.0,
                           f"{med:.2f} dB at N = 1024 (want 25 +- 2)"))
        checks += _slope_check(f"slope_{name}", curve, _span(config, code))
    if "polar" in config.codes and "ldpc" in config.codes:
        for num, den, mod in config.rates:
            rate = _rate_label(num, den)
            checks += _gap_check(f"polar_ldpc_gap_{rate}_{mod}",
                                 _curve(table, code="polar", rate=rate, modulation=mod),
                                 _curve(table, code="ldpc", rate=rate, modulation=mod),
                                 _span(config, "ldpc"), 0.5, strict=True)
    return checks


def check_suppression(table: ResultTable, config: ExperimentConfig) -> list:
    checks = []
    for name, code, rate, mod in _named_curves(config):
        curves = {metric: _curve(table, code=code, rate=rate, modulation=mod, metric=metric)
                  for metric in ("sc_cross", "ofdm_kernel")}
        for metric, curve in curves.items():
            checks += _slope_check(f"slope_{metric}_{name}", curve, _span(config, code))
        if name == "uncoded_qpsk":
            checks += _gap_check("sc_vs_ofdm_qpsk", curves["sc_cross"],
                                 curves["ofdm_kernel"], _span(config, code), 1.0)
    return checks


def check_interleaver(table: ResultTable, config: ExperimentConfig) -> list:
    checks = []
    low = min(config.rates, key=lambda r: r[0] / r[1])
    high = max(config.rates, key=lambda r: r[0] / r[1])
    for code in config.codes:
        span = _span(config, code)
        if code == "uncoded" or not span:
            continue
        at_low = dict(code=code, rate=_rate_label(*low[:2]), modulation=low[2])
        inter = _curve(table, interleaved=1, **at_low)
        plain = _curve(table, interleaved=0, **at_low)
        if code == "polar":
            n0 = span[0]
            p_n0 = plain.get(n0, float("nan"))
            i_n0 = inter.get(n0, float("nan"))
            checks.append((f"plain_below_interleaved_{code}", p_n0 < i_n0,
                           f"{p_n0:.2f} < {i_n0:.2f} dB at N = {n0}"))
        elif code == "ldpc":
            # random weight-3 parity supports leave adjacent parity bits
            # nearly independent, so interleaving should change nothing
            checks += _gap_check(f"plain_matches_interleaved_{code}", plain, inter, span, 0.25)
        if "uncoded" in config.codes:
            checks += _gap_check(f"interleaved_matches_uncoded_{code}", inter,
                                 _curve(table, code="uncoded", modulation=low[2]), span, 0.5)
            checks += _gap_check(f"high_rate_plain_near_uncoded_{code}",
                                 _curve(table, code=code, rate=_rate_label(*high[:2]),
                                        modulation=high[2], interleaved=0),
                                 _curve(table, code="uncoded", modulation=high[2]), span, 1.0)
    return checks


def check_bounds(table: ResultTable, config: ExperimentConfig) -> list:
    cols = table.columns
    side = cols.index("bound_side")
    dom = cols.index("dominated")
    key = [cols.index(c) for c in ("stat", "part", "code", "n")]
    ub = [r for r in table.rows if r[side] == "ub"]
    lb = [r for r in table.rows if r[side] == "lb"]
    want = {(stat, part, code, n) for stat in _BOUND_STATS for part in ("re", "im")
            for code in BOUND_CODES for n in config.bounds_n_list}
    shape_ok = ({tuple(r[i] for i in key) for r in ub} == want
                and len(ub) == len(want) * config.u_points)
    # a row counts when its flag is set and its own columns agree with the flag
    p_hat, lo, bound = (cols.index(c) for c in ("p_hat", "wilson_lo", "bound"))
    n_ub = sum(1 for r in ub if r[dom] and r[lo] <= r[bound] + 1e-15)
    n_lb = sum(1 for r in lb if r[dom] and r[p_hat] >= r[bound])
    return [("upper_bounds_dominate", shape_ok and n_ub == len(ub),
             f"{n_ub}/{len(ub)} grid points, want {len(want) * config.u_points} = "
             f"{len(want)} (statistic, re/im, code, N) x {config.u_points} u"),
            ("lower_bound_witness", 0 < n_lb == len(lb),
             f"{n_lb}/{len(lb)} enumerations")]


def check_nearfar(table: ResultTable, roc: RocCurves, config: ExperimentConfig,
                  levels: dict) -> list:
    checks = []
    far_ref = config.gains()[1]
    lo_db, hi_db = far_ref * 10 ** (-3 / 20), far_ref * 10 ** (3 / 20)
    for row in table.rows:
        r = dict(zip(table.columns, row))
        v = r["variant"]
        checks.append((f"far_peak_within_3db_{v}",
                       lo_db <= r["far_min"] and r["far_max"] <= hi_db,
                       f"[{r['far_min']:.4f}, {r['far_max']:.4f}] vs "
                       f"[{lo_db:.4f}, {hi_db:.4f}]"))
        checks.append((f"targets_above_other_cells_{v}",
                       min(r["near_min"], r["far_min"]) > r["max_other_max"],
                       f"lowest near {r['near_min']:.4f} and far {r['far_min']:.4f} "
                       f"peaks vs highest other cell {r['max_other_max']:.4f}"))
        if v in ("ccs_sc", "ccs_ofdm"):
            checks.append((f"sweet_band_nonempty_{v}", r["band_points"] > 0,
                           f"{r['band_points']} grid points with P_d = 1 and P_f = 0"))
    checks.append(("fmcw_false_alarm_excess",
                   bool(np.any(roc.pf["fmcw"] > roc.pf["ccs_sc_nointf"])),
                   "fmcw exceeds interference-free sc somewhere on the grid"))
    gap_sc_ofdm = float(np.max(np.abs(roc.pd["ccs_sc"] - roc.pd["ccs_ofdm"])))
    checks.append(("sc_vs_ofdm_pd", gap_sc_ofdm <= 0.05,
                   f"max gap {gap_sc_ofdm:.3f} (want <= 0.05)"))
    far_std = {v: float(np.std(levels[v][:, 1]))
               for v in ("ccs_sc", "ccs_ofdm", "fmcw")}
    for v in ("ccs_sc", "ccs_ofdm"):
        gap = grid_pd_gap(roc.pd[v], roc.pd["fmcw"])
        point = np.abs(roc.pd[v] - roc.pd["fmcw"])
        g = int(np.argmax(point))
        checks.append((f"{v}_matches_fmcw_pd", gap <= 0.05,
                       f"gap at grid resolution {gap:.3f} (want <= 0.05); pointwise "
                       f"{point[g]:.3f} at eta {roc.eta[g]:.4f}; far-peak std "
                       f"{v} {far_std[v]:.5f}, fmcw {far_std['fmcw']:.5f}"))
    return checks
