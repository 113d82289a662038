"""Analytic tail bounds on correlation statistics of coded blocks.

Every upper bound is Hoeffding's (1963) over K groups of M symbols that share
no message bits, two-sided on the real or imaginary part X of the statistic:

    P(|X| > u) <= min(1, 2 exp(-c u^2)),  c = N^2 / (2 b^2 M^2 K),

with N the block length in symbols and b the symbol product (or ratio) bound.
The statistics differ only in their group structure (K, M):

- autocorrelation chi(l), 1 <= l <= K - 1: K - l groups of M_l = ceil((N - l) / (K - l));
- cross-correlation rho(l), 0 <= l < N: K~ = max(K_i - l, K_q) groups of
  M~_l = ceil((N - l) / K~);
- OFDM ratio kernel V: K0 = min(K_i, K_q) groups of M0 = ceil(N / K0).

K, K_i and K_q count message symbols and may be fractional.  The lower bound
2^(-m_s K) is the all-zero-message event.  Probabilities that underflow double
precision are reported as 0.0.
"""

from __future__ import annotations

import math

import numpy as np


def _hoeffding_c(n: int, b: float, k: float, m: int) -> float:
    """c of the Hoeffding tail 2 exp(-c u^2) over k groups of m symbols."""
    if n < 2:
        raise ValueError("need at least two symbols")
    if b <= 0:
        raise ValueError("b must be positive")
    return n ** 2 / (2.0 * b ** 2 * m ** 2 * k)


def _auto_c(n: int, lag: int, b: float, k: float) -> float:
    if not (1 <= lag <= k - 1 and lag < n):
        raise ValueError("autocorrelation bound needs 1 <= lag <= K - 1 and lag < N")
    return _hoeffding_c(n, b, k - lag, math.ceil((n - lag) / (k - lag)))


def _cross_c(n: int, lag: int, b: float, k_i: float, k_q: float) -> float:
    if not 0 <= lag < n:
        raise ValueError("lag out of range")
    k_tilde = max(k_i - lag, k_q)
    return _hoeffding_c(n, b, k_tilde, math.ceil((n - lag) / k_tilde))


def _ofdm_c(n: int, b: float, k_i: float, k_q: float) -> float:
    k0 = min(k_i, k_q)
    return _hoeffding_c(n, b, k0, math.ceil(n / k0))


def _as_u(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValueError("u must be nonnegative")
    return u


def _hoeffding_tail(c: float, u) -> np.ndarray:
    return np.minimum(1.0, 2.0 * np.exp(-c * _as_u(u) ** 2))


def autocorr_tail_ub(u, *, n: int, lag: int, b: float, k: float) -> np.ndarray:
    """P(|Re chi(l)| > u) <= min(1, 2 exp(-N^2 u^2 / (2 b^2 M_l^2 (K - l))))."""
    return _hoeffding_tail(_auto_c(n, lag, b, k), u)


def autocorr_tail_lb(*, k: float, m_s: int) -> float:
    """All-zero-message floor 2^(-m_s K); 0.0 when it underflows."""
    return 2.0 ** (-float(m_s) * float(k))


def crosscorr_tail_ub(u, *, n: int, lag: int, b: float, k_i: float, k_q: float) -> np.ndarray:
    """Cross-correlation analogue with group count K~, size M~_l."""
    return _hoeffding_tail(_cross_c(n, lag, b, k_i, k_q), u)


def ofdm_tail_ub(u, *, n: int, b: float, k_i: float, k_q: float) -> np.ndarray:
    """Tail bound for the ratio kernel V with group count K0, size M0."""
    return _hoeffding_tail(_ofdm_c(n, b, k_i, k_q), u)


def wilson_interval(p, n: int, z: float) -> tuple[np.ndarray, np.ndarray]:
    """Wilson score interval (lo, hi) of success fractions p over n draws."""
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return np.maximum(0.0, center - half), np.minimum(1.0, center + half)


def empirical_tail(samples, u_grid, z: float = 1.96) -> tuple:
    """Empirical P(|sample| > u) on a u grid as (p, lo, hi), (lo, hi) its Wilson interval."""
    samples = np.abs(np.asarray(samples, dtype=float).ravel())
    if samples.size == 0:
        raise ValueError("no samples")
    u = _as_u(u_grid)
    p = (samples[None, :] > u.ravel()[:, None]).mean(axis=1).reshape(u.shape)
    return (p, *wilson_interval(p, samples.size, z))


def _median_db(c: float) -> float:
    """Level (dB) where 2 exp(-c u^2) = 1/2, i.e. u = sqrt(ln 4 / c)."""
    return -20.0 * math.log10(math.sqrt(math.log(4.0) / c))


def median_pslr_from_bound(*, n: int, lag: int, b: float, k: float) -> float:
    """Bound-implied median PSLR (dB): where the lag-l upper bound is 1/2."""
    return _median_db(_auto_c(n, lag, b, k))


def median_suppression_from_bound(kind: str, *, n: int, b: float, k_i: float, k_q: float) -> float:
    """Bound-implied median suppression (dB) of the lag-0 "cross" or the "ofdm" statistic."""
    if kind == "cross":
        return _median_db(_cross_c(n, 0, b, k_i, k_q))
    if kind == "ofdm":
        return _median_db(_ofdm_c(n, b, k_i, k_q))
    raise ValueError(f"unknown suppression statistic {kind!r}")
