"""End-to-end acceptance gate.

Each test checks one documented result property and records a single
``[acceptance] name: PASS/FAIL (detail)`` verdict line; the conftest
terminal-summary hook replays every recorded line after the run.
Driver-level properties consume the session fixtures from conftest, so the
five experiment pipelines run exactly once at their default trial counts, and
judge them with the property registry ``experiments.check_<kind>`` that
``ccsradar <kind> --check`` prints: each such test names its registry entries
and requires every one present and PASS.  The remaining tests check the
engines against independent oracles.
"""

import numpy as np
import pytest

from ccsradar import experiments
from ccsradar.coding import CodeConfig, repetition_bit_correlation
from ccsradar.correlation import autocorr, crosscorr, idft_ratio
from ccsradar.modulation import constellation, generate_ccs_blocks, map_bits
from ccsradar.receiver import ofdm_range_doppler
from ccsradar.scene import Path, TargetScene, apply_channel_ofdm


@pytest.fixture
def say(acceptance_log):
    def _say(name: str, ok: bool, detail: str) -> None:
        line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        acceptance_log.append(line)
        print(line)
        assert ok, line
    return _say


# The reference configuration the documented results are stated at.  The
# registry reads every span from the config, so a shrunk default would pass on
# less; each driver-level verdict fails unless these fields hold.
REFERENCE = {"n_list": (256, 512, 1024, 2048, 4096), "bounds_n_list": (256, 1024),
             "u_points": 20, "far_gain_db": -12.0}


@pytest.fixture
def registry(say, base_config):
    """say() one verdict over the named entries of a registry check list, at
    the reference configuration; an independent oracle's (ok, detail) may join it."""
    def _registry(name: str, checks: list, wanted, oracle=(True, "")) -> None:
        got = {n: (ok, detail) for n, ok, detail in checks}
        missing = [n for n in wanted if n not in got]
        off = {k: getattr(base_config, k) for k, v in REFERENCE.items()
               if getattr(base_config, k) != v}
        ok = not missing and not off and all(got[n][0] for n in wanted) and oracle[0]
        details = [f"{n}: {'PASS' if got[n][0] else 'FAIL'} {got[n][1]}"
                   for n in wanted if n in got]
        if missing:
            details.append(f"missing {missing}")
        if off:
            details.append(f"config {off}, want {REFERENCE}")
        if oracle[1]:
            details.append(oracle[1])
        say(name, ok, "; ".join(details))
    return _registry


# the plotted curves at the default config, as the registry names them
CURVES = ("uncoded_qpsk", "uncoded_256qam", "polar_120/1024_qpsk",
          "polar_682.5/1024_256qam", "ldpc_120/1024_qpsk", "ldpc_682.5/1024_256qam")


def _direct_aperiodic(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """(1/N) sum_t s1[t] s2*[t - l] on the full +-(N-1) grid, no FFT."""
    n = s1.size
    out = np.empty(2 * n - 1, dtype=np.complex128)
    for k, lag in enumerate(range(-(n - 1), n)):
        if lag >= 0:
            out[k] = np.dot(s1[lag:], np.conj(s2[:n - lag])) / n
        else:
            out[k] = np.dot(s1[:n + lag], np.conj(s2[-lag:])) / n
    return out


def _random_block(rng, n: int, mod: str) -> np.ndarray:
    const = constellation(mod)
    bits = rng.integers(0, 2, size=n * const.bits_per_symbol, dtype=np.uint8)
    return map_bits(bits, const)


# -- correlation engine -------------------------------------------------------

def test_fft_correlations_match_direct_evaluation(say):
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 65))
        blocks = [_random_block(rng, n, mod) for mod in ("qpsk", "16qam")]
        for s in blocks:
            gap = np.abs(autocorr(s).values - _direct_aperiodic(s, s)).max()
            worst = max(worst, float(gap))
        gap = np.abs(crosscorr(blocks[0], blocks[1]).values
                     - _direct_aperiodic(blocks[0], blocks[1])).max()
        worst = max(worst, float(gap))
    say("fft_matches_direct_correlation", worst <= 1e-9,
         f"max |fft - direct| = {worst:.2e} over 100 qpsk/16qam blocks, want <= 1e-9")


def test_correlation_identities(say):
    rng = np.random.default_rng(271)
    n = 64
    s = _random_block(rng, n, "qpsk")
    chi = autocorr(s)
    peak_err = abs(chi.value_at(0) - 1.0)
    support = max(abs(chi.value_at(n + 3)), abs(chi.value_at(-(n + 3))))
    herm = np.abs(chi.values - np.conj(chi.values[::-1])).max()
    v = idft_ratio(s, s).values
    kern = max(abs(v[0] - 1.0), float(np.abs(v[1:]).max()))
    ok = peak_err <= 1e-12 and support == 0.0 and herm <= 1e-12 and kern <= 1e-12
    say("correlation_identities", ok,
         f"|chi(0)-1| = {peak_err:.1e}, |chi| beyond N = {support:.1e}, "
         f"hermitian gap = {herm:.1e}, |V - delta| = {kern:.1e}, want <= 1e-12")


# -- coded-bit correlation class means ------------------------------------------

def test_repetition_class_means_match_monte_carlo(say):
    rng = np.random.default_rng(99)
    trials = 120_000
    worst_sigma = 0.0
    for k in (4, 8, 16):
        bits = rng.integers(0, 2, size=(trials, k), dtype=np.int8)
        x = (1 - 2 * bits).astype(np.float64)
        perm = np.argsort(rng.random((trials, k)), axis=1)
        stream = np.concatenate([x, np.take_along_axis(x, perm, axis=1)], axis=1)
        for i, j in ((0, 1), (0, k), (k, k + 1), (k, 2 * k - 1)):
            prods = stream[:, i] * stream[:, j]
            want = repetition_bit_correlation(i, j, k, 2, interleaved=True)
            se = float(prods.std(ddof=1)) / np.sqrt(trials)
            sigma = abs(float(prods.mean()) - want) / se
            worst_sigma = max(worst_sigma, sigma)
    say("repetition_class_means_monte_carlo", worst_sigma <= 3.0,
         f"max deviation {worst_sigma:.2f} SE over K in {{4,8,16}}, "
         f"{trials} joint message/permutation draws, want <= 3 SE")


def test_repetition_class_means_match_enumeration(say):
    worst = 0.0
    for k in (4, 8):
        msgs = ((np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1)
        x = (1 - 2 * msgs).astype(np.float64)
        stream = np.concatenate([x, x], axis=1)  # gamma = 2, no interleaving
        for i in range(2 * k):
            for j in range(i, 2 * k):
                mean = float(np.mean(stream[:, i] * stream[:, j]))
                want = repetition_bit_correlation(i, j, k, 2, interleaved=False)
                worst = max(worst, abs(mean - want))
    say("repetition_class_means_enumeration", worst == 0.0,
         f"max |enumerated - formula| = {worst:.1e} over all bit pairs, "
         f"K in {{4,8}}, want exact")


# -- analytic tail bounds -------------------------------------------------------

def test_tail_upper_bounds_dominate(registry, bounds_table, base_config):
    n_ub = bounds_table.column("bound_side").count("ub")
    registry("tail_upper_bounds_dominate",
             experiments.check_bounds(bounds_table, base_config), ["upper_bounds_dominate"],
             (n_ub == 480, f"{n_ub} ub rows, want 480 = 3 statistics x re/im x 2 codes "
                           f"x 2 N x 20 u"))


def test_tail_lower_bound_witness(registry, bounds_table, base_config):
    # independent exhaustive enumeration: 16 BPSK messages, gamma = 2, K = 4, N = 8
    msgs = ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1)
    syms = (1 - 2 * msgs).astype(np.float64)
    stream = np.concatenate([syms, syms], axis=1)
    chi1 = np.einsum("tn,tn->t", stream[:, 1:], stream[:, :-1]) / 8.0
    p_hat = float(np.mean(np.abs(chi1.real) > 0.01))
    registry("tail_lower_bound_witness",
             experiments.check_bounds(bounds_table, base_config), ["lower_bound_witness"],
             (p_hat >= 2.0 ** -4, f"enumerated P(|Re chi(1)| > 0.01) = {p_hat:.4f} over "
                                  f"all 16 BPSK messages, want >= 2^-4 = 0.0625"))


# -- sidelobe medians vs block length -------------------------------------------

def test_uncoded_qpsk_median_pslr_level(registry, pslr_table, base_config):
    registry("uncoded_qpsk_median_pslr", experiments.check_pslr(pslr_table, base_config),
             ["uncoded_qpsk_median_n1024"])


def test_pslr_growth_per_doubling(registry, pslr_table, base_config):
    registry("pslr_growth_per_doubling", experiments.check_pslr(pslr_table, base_config),
             [f"slope_{c}" for c in CURVES])


def test_suppression_growth_per_doubling(registry, suppression_table, base_config):
    registry("suppression_growth_per_doubling",
             experiments.check_suppression(suppression_table, base_config),
             [f"slope_{m}_{c}" for c in CURVES for m in ("sc_cross", "ofdm_kernel")]
             + ["sc_vs_ofdm_qpsk"])


def test_polar_ldpc_median_gap(registry, pslr_table, base_config):
    registry("polar_ldpc_median_gap", experiments.check_pslr(pslr_table, base_config),
             ["polar_ldpc_gap_120/1024_qpsk", "polar_ldpc_gap_682.5/1024_256qam"])


# -- interleaver effect ----------------------------------------------------------

def test_interleaved_polar_matches_uncoded(registry, interleaver_table, base_config):
    registry("interleaved_polar_matches_uncoded",
             experiments.check_interleaver(interleaver_table, base_config),
             [f"{p}_{c}" for p in ("interleaved_matches_uncoded", "high_rate_plain_near_uncoded")
              for c in ("polar", "ldpc")])


def test_plain_polar_below_interleaved_at_short_block(registry, interleaver_table,
                                                      base_config):
    registry("plain_polar_below_interleaved",
             experiments.check_interleaver(interleaver_table, base_config),
             ["plain_below_interleaved_polar"])


# -- OFDM receiver sparsity -------------------------------------------------------

def test_ofdm_map_exact_sparsity(say):
    far = 10.0 ** (-12.0 / 20.0)
    scene = TargetScene(targets=(Path(14, 516, 1.0), Path(27, 518, far)),
                        interference=(), noise_var=0.0, n_max=32)
    code = CodeConfig("uncoded", 2048, 2048)
    s = generate_ccs_blocks(code, constellation("qpsk"), 1024, np.random.default_rng(5),
                            np.random.default_rng(0))
    rd = ofdm_range_doppler(apply_channel_ofdm([s], scene, None), s, 32)
    p_near = abs(abs(rd.value_at(14, 516)) - 1.0)
    p_far = abs(abs(rd.value_at(27, 518)) - far)
    off = np.abs(rd.values) ** 2
    off[14, 516] = off[27, 518] = 0.0
    leak = float(off.sum()) / float(np.abs(rd.values).max() ** 2)
    ok = leak < 1e-16 and p_near <= 1e-9 and p_far <= 1e-9
    say("ofdm_map_exact_sparsity", ok,
         f"off-target energy {leak:.1e} of peak (want < 1e-16), peak errors "
         f"{p_near:.1e}/{p_far:.1e} vs |gain| (want <= 1e-9), noiseless 1024x1024")


# -- near-far study ---------------------------------------------------------------

def _nearfar_checks(nearfar_results, config):
    table, roc, levels = nearfar_results
    return experiments.check_nearfar(table, roc, config, levels)


def test_near_far_peak_levels(registry, nearfar_results, base_config):
    registry("near_far_peak_levels", _nearfar_checks(nearfar_results, base_config),
             [f"{p}_{v}" for v in experiments.NEARFAR_VARIANTS
              for p in ("far_peak_within_3db", "targets_above_other_cells")])


def test_near_far_sweet_band(registry, nearfar_results, base_config):
    registry("near_far_sweet_band", _nearfar_checks(nearfar_results, base_config),
             ["sweet_band_nonempty_ccs_sc", "sweet_band_nonempty_ccs_ofdm",
              "fmcw_false_alarm_excess"])


def test_near_far_ccs_matches_fmcw(registry, nearfar_results, base_config):
    # judged at the resolution of the 200-point threshold grid: a c.c.s far-peak
    # spread straddling one grid point next to the sharper FMCW step is not a
    # detection difference, a spread over several grid steps is
    registry("ccs_detection_matches_fmcw", _nearfar_checks(nearfar_results, base_config),
             ["ccs_sc_matches_fmcw_pd", "ccs_ofdm_matches_fmcw_pd"])


def test_near_far_sc_matches_ofdm(registry, nearfar_results, base_config):
    registry("sc_and_ofdm_detection_agree", _nearfar_checks(nearfar_results, base_config),
             ["sc_vs_ofdm_pd"])
