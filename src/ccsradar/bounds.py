"""Analytic tail bounds on correlation statistics of coded blocks.

Upper bounds are Hoeffding-style over groups of symbols that share no message
bits; with K message symbols per block the group count and size enter through
the TailBoundSpec fields below.  Lower bounds come from the all-zero-message
event.
Probabilities that underflow double precision are reported as 0.0.

Exceedance is always two-sided: P(|X| > u) for the real or imaginary part of
the statistic under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TailBoundSpec:
    """Parameters shared by the bound evaluators.

    N is the block length in symbols, lag the correlation lag l, b the symbol
    product (or ratio) bound.  Autocorrelation bounds use K and m_s; cross and
    OFDM bounds use the per-signal message symbol counts K_i and K_q.  Message
    symbol counts may be fractional (bit counts stay integral).
    """

    N: int
    lag: int = 1
    b: float = 1.0
    K: float | None = None
    m_s: int | None = None
    K_i: float | None = None
    K_q: float | None = None

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("need at least two symbols")
        if self.b <= 0:
            raise ValueError("b must be positive")
        if not 0 <= self.lag < self.N:
            raise ValueError("lag out of range")

    # -- autocorrelation (group count K - l, group size M_l)
    @property
    def M_l(self) -> int:
        self._need_auto()
        return math.ceil((self.N - self.lag) / (self.K - self.lag))

    # -- cross-correlation (group count K_tilde, group size M_tilde_l)
    @property
    def K_tilde(self) -> float:
        self._need_pair()
        return max(self.K_i - self.lag, self.K_q)

    @property
    def M_tilde_l(self) -> int:
        return math.ceil((self.N - self.lag) / self.K_tilde)

    # -- OFDM ratio (group count K0, group size M0)
    @property
    def K0(self) -> float:
        self._need_pair()
        return min(self.K_i, self.K_q)

    @property
    def M0(self) -> int:
        return math.ceil(self.N / self.K0)

    def _need_auto(self):
        if self.K is None:
            raise ValueError("autocorrelation bound needs K")
        if self.lag < 1 or self.K - self.lag < 1:
            raise ValueError("autocorrelation bound needs 1 <= lag <= K - 1")

    def _need_pair(self):
        if self.K_i is None or self.K_q is None:
            raise ValueError("pair bound needs K_i and K_q")


def _clip_ub(exponent: np.ndarray) -> np.ndarray:
    return np.minimum(1.0, 2.0 * np.exp(exponent))


def _as_u(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValueError("u must be nonnegative")
    return u


def _hoeffding_c(spec: TailBoundSpec, kind: str) -> float:
    """c = N^2 / (2 b^2 M^2 K) of the Hoeffding tail 2 exp(-c u^2), for the K
    groups of M symbols of the "auto", "cross" or "ofdm" statistic."""
    if kind == "auto":
        m, k = spec.M_l, spec.K - spec.lag
    elif kind == "cross":
        m, k = spec.M_tilde_l, spec.K_tilde
    elif kind == "ofdm":
        m, k = spec.M0, spec.K0
    else:
        raise ValueError(f"unknown correlation statistic {kind!r}")
    return spec.N ** 2 / (2.0 * spec.b ** 2 * m ** 2 * k)


def autocorr_tail_ub(spec: TailBoundSpec, u) -> np.ndarray:
    """P(|Re chi(l)| > u) <= min(1, 2 exp(-N^2 u^2 / (2 b^2 M_l^2 (K - l))))."""
    spec._need_auto()
    u = _as_u(u)
    return _clip_ub(-_hoeffding_c(spec, "auto") * u ** 2)


def autocorr_tail_lb(spec: TailBoundSpec) -> float:
    """All-zero-message floor 2^(-m_s K); 0.0 when it underflows."""
    if spec.K is None or spec.m_s is None:
        raise ValueError("lower bound needs K and m_s")
    return 2.0 ** (-float(spec.m_s) * float(spec.K))


def crosscorr_tail_ub(spec: TailBoundSpec, u) -> np.ndarray:
    """Cross-correlation analogue with group count K_tilde, size M_tilde_l."""
    u = _as_u(u)
    return _clip_ub(-_hoeffding_c(spec, "cross") * u ** 2)


def ofdm_tail_ub(spec: TailBoundSpec, u) -> np.ndarray:
    """Tail bound for the ratio kernel V with group count K0, size M0."""
    u = _as_u(u)
    return _clip_ub(-_hoeffding_c(spec, "ofdm") * u ** 2)


@dataclass(frozen=True)
class EmpiricalTail:
    """Monte Carlo exceedance curve with a Wilson score interval per point."""

    p: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def wilson_interval(p, n: int, z: float) -> tuple[np.ndarray, np.ndarray]:
    """Wilson score interval (lo, hi) of success fractions p over n draws."""
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return np.maximum(0.0, center - half), np.minimum(1.0, center + half)


def empirical_tail(samples, u_grid, z: float = 1.96) -> EmpiricalTail:
    """Empirical P(|sample| > u) over a u grid, with Wilson z-score intervals."""
    samples = np.abs(np.asarray(samples, dtype=float).ravel())
    if samples.size == 0:
        raise ValueError("no samples")
    u = _as_u(u_grid)
    p = (samples[None, :] > u.ravel()[:, None]).mean(axis=1).reshape(u.shape)
    return EmpiricalTail(p, *wilson_interval(p, samples.size, z))


def _median_db(c: float) -> float:
    """Level (dB) where 2 exp(-c u^2) = 1/2, i.e. u = sqrt(ln 4 / c)."""
    return -20.0 * math.log10(math.sqrt(math.log(4.0) / c))


def median_pslr_from_bound(spec: TailBoundSpec) -> float:
    """Bound-implied median PSLR (dB): where the lag-l upper bound is 1/2."""
    spec._need_auto()
    return _median_db(_hoeffding_c(spec, "auto"))


def median_suppression_from_bound(spec: TailBoundSpec, kind: str = "cross") -> float:
    """Bound-implied median suppression (dB) for the cross or OFDM statistic."""
    spec._need_pair()
    if kind not in ("cross", "ofdm"):
        raise ValueError(f"unknown suppression statistic {kind!r}")
    return _median_db(_hoeffding_c(spec, kind))
