"""Aperiodic and OFDM-ratio correlation analytics.

Correlations are normalized by the block length N:

    chi(l)  = (1/N) sum_n s[n] s*[n-l]          aperiodic, lags -(N-1)..N-1
    rho(l)  = (1/N) sum_n s1[n] s2*[n-l]        aperiodic cross
    V(l)    = (1/N) sum_k (s_q[k]/s_i[k]) e^{+j 2 pi l k / N}   lags 0..N-1

Every routine accepts batched inputs (..., N) and computes along the last
axis.  The aperiodic correlations are evaluated through one zero-padded FFT at
the requested lags; the tests hold the independent O(N^2) direct sums they are
checked against.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

# The FFT scratch of the open workspace(), if any: {slot: flat complex128 buffer}
_SCRATCH: ContextVar[dict | None] = ContextVar("correlation_scratch", default=None)


@contextmanager
def workspace():
    """Reuse the FFT buffers of the aperiodic correlations made inside the block.

    Each buffer grows to the largest call and is dropped when the block ends.
    Results never share memory with them, so a profile keeps its values after
    later calls.
    """
    token = _SCRATCH.set({})
    try:
        yield
    finally:
        _SCRATCH.reset(token)


def _scratch(slot: int, shape: tuple) -> np.ndarray:
    """An uninitialised complex128 array of this shape: a view of the workspace
    buffer `slot` inside workspace(), a fresh array outside it."""
    store = _SCRATCH.get()
    if store is None:
        return np.empty(shape, dtype=np.complex128)
    size = int(np.prod(shape))
    buf = store.get(slot)
    if buf is None or buf.size < size:
        buf = store[slot] = np.empty(size, dtype=np.complex128)
    return buf[:size].reshape(shape)


@dataclass(frozen=True)
class CorrelationProfile:
    """Correlation values on an explicit lag grid; values may be batched."""

    lags: np.ndarray
    values: np.ndarray
    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("auto", "cross", "idft_ratio"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.values.shape[-1] != self.lags.size:
            raise ValueError("lag/value length mismatch")

    def value_at(self, lag: int) -> np.ndarray:
        if self.kind == "idft_ratio":
            lag = lag % self.n
        hit = np.nonzero(self.lags == lag)[0]
        if hit.size == 0:
            if self.kind in ("auto", "cross") and abs(lag) >= self.n:
                # aperiodic correlations have no overlap beyond |l| = N - 1
                return np.zeros(self.values.shape[:-1], dtype=self.values.dtype)[()]
            raise ValueError(f"lag {lag} not in profile")
        return self.values[..., hit[0]]


def _check_block(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=np.complex128)
    if s.shape[-1] < 1:
        raise ValueError("empty block")
    return s


def _lag_grid(n: int, lags) -> np.ndarray:
    """The requested lags as integers, each inside |l| <= N - 1."""
    lags = np.asarray(list(lags), dtype=int)
    if np.any(np.abs(lags) >= n):
        raise ValueError("requested lag outside the computable range")
    return lags


def _aperiodic(s1: np.ndarray, s2: np.ndarray, lags: np.ndarray) -> np.ndarray:
    n = s1.shape[-1]
    shape = s1.shape[:-1] + (2 * n,)
    f1 = np.fft.fft(s1, 2 * n, axis=-1, out=_scratch(0, shape))
    # prod = conj(f2), then prod *= f1: the order numpy's temporary elision
    # gives f1 * np.conj(f2) only from 256 KiB up (smaller products differ
    # in last-ulp imaginary bits); one order at every size keeps each row's
    # bytes independent of its batch
    prod = _scratch(1, shape)
    if s2 is s1:
        np.conjugate(f1, out=prod)
    else:
        np.fft.fft(s2, 2 * n, axis=-1, out=prod)
        np.conjugate(prod, out=prod)
    prod *= f1
    np.fft.ifft(prod, axis=-1, out=prod)
    # lag l sits at index l mod 2N of the circular correlation; the
    # gather copies it out of the scratch
    out = prod[..., lags % (2 * n)]
    out /= n
    return out


def autocorr(s: np.ndarray, lags) -> CorrelationProfile:
    """Aperiodic autocorrelation chi at the requested lags."""
    s = _check_block(s)
    lags = _lag_grid(s.shape[-1], lags)
    return CorrelationProfile(lags=lags, values=_aperiodic(s, s, lags),
                              kind="auto", n=s.shape[-1])


def crosscorr(s1: np.ndarray, s2: np.ndarray, lags) -> CorrelationProfile:
    """Aperiodic cross-correlation rho of two equal-length blocks at the
    requested lags."""
    s1, s2 = _check_block(s1), _check_block(s2)
    if s1.shape[-1] != s2.shape[-1]:
        raise ValueError("block length mismatch")
    lags = _lag_grid(s1.shape[-1], lags)
    return CorrelationProfile(lags=lags, values=_aperiodic(s1, s2, lags),
                              kind="cross", n=s1.shape[-1])


def idft_ratio(s_i: np.ndarray, s_q: np.ndarray) -> CorrelationProfile:
    """OFDM interference kernel V: inverse DFT of the symbol ratio s_q/s_i."""
    s_i, s_q = _check_block(s_i), _check_block(s_q)
    if s_i.shape[-1] != s_q.shape[-1]:
        raise ValueError("block length mismatch")
    if np.any(np.abs(s_i) < 1e-12):
        raise ValueError("own-signal symbols contain a (near) zero")
    vals = s_q / s_i
    np.fft.ifft(vals, axis=-1, out=vals)
    return CorrelationProfile(lags=np.arange(s_i.shape[-1]), values=vals,
                              kind="idft_ratio", n=s_i.shape[-1])


def pslr(profile: CorrelationProfile) -> np.ndarray | float:
    """Peak-to-sidelobe ratio in dB, -20 log10 of the largest nonzero-lag |chi|
    over the profile's lags, so the profile's lag window is the sidelobe window.

    Sidelobes are measured against the realized zero-lag peak, so a block's
    energy (unit on average, fluctuating for QAM) scales out; only an all-zero
    block, with no peak to measure against, is rejected.
    """
    if profile.kind != "auto":
        raise ValueError("pslr is defined on aperiodic autocorrelation profiles")
    peak = np.abs(profile.value_at(0))
    if np.any(peak < 1e-12):
        raise ValueError("zero-lag correlation is zero; empty block?")
    side = np.abs(profile.values[..., profile.lags != 0]).max(axis=-1)
    # A numerically-zero sidelobe (delta-like chi) reports +inf rather than
    # tripping log-of-zero warnings.
    ratio = np.where(side < 1e-15, np.nan, side) / peak
    with np.errstate(invalid="ignore"):
        out = np.where(np.asarray(side) < 1e-15, np.inf, -20.0 * np.log10(ratio))
    return float(out) if np.ndim(out) == 0 else out


def suppression_metric(profile: CorrelationProfile, max_lag: int) -> np.ndarray | float:
    """Interference suppression in dB: -20 log10 of the largest |value| over
    the profile's lags with |l| <= max_lag (zero lag included).

    An idft_ratio lag l > N/2 counts as l - N, since V is N-periodic.
    """
    if profile.kind not in ("cross", "idft_ratio"):
        raise ValueError("suppression is defined on cross or idft_ratio profiles")
    lags = profile.lags
    if profile.kind == "idft_ratio":
        lags = np.where(lags <= profile.n // 2, lags, lags - profile.n)
    worst = np.abs(profile.values[..., np.abs(lags) <= max_lag]).max(axis=-1)
    out = -20.0 * np.log10(worst)
    return float(out) if np.ndim(out) == 0 else out
