"""Experiment configuration and result tables.

Configs are flat dataclasses with defaults matching the reference desk scene
(1 GHz sweep at 140 GHz carrier, N = M = 1024, two targets plus one interfering
radar at -11 dB SIR).  They can be loaded from INI-style files; unknown keys
are rejected so typos fail loudly.  Result tables serialize to CSV with the
config hash embedded in '#' metadata lines, and identical config plus seed
yields byte-identical data rows.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .bounds import (autocorr_tail_ub, crosscorr_tail_ub, median_pslr_from_bound,
                     ofdm_tail_ub)
from .coding import CodeConfig
from .detection import false_alarm_mask
from .modulation import constellation, product_bound_b, ratio_bound_b
from .scene import Path, TargetScene

DEFAULT_TRIALS = {"pslr": 1000, "suppress": 1000, "interleave": 1000,
                  "bounds": 10000, "nearfar": 100}
# the codes the bounds driver compares, whatever config.codes lists
BOUND_CODES = ("uncoded", "polar")


def k_symbols(cfg: CodeConfig, const) -> float:
    return cfg.n_msg_bits / const.bits_per_symbol


class ConfigError(ValueError):
    """Invalid or missing configuration; the CLI maps this to exit code 2."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_rate(token: str) -> tuple[float, int, str]:
    try:
        frac, mod = token.strip().split(":")
        num, den = frac.split("/")
        return _finite(num), int(den), mod.strip()
    except ValueError as exc:
        raise ConfigError(f"bad rate spec {token!r}, expected num/den:modulation") from exc


def _tuple_of(cast):
    def parse(text):
        items = [t for t in (p.strip() for p in text.split(",")) if t]
        if not items:
            raise ConfigError("empty list value")
        return tuple(cast(t) for t in items)
    return parse


def _ini(section: str, default, parse, key: str | None = None):
    """A field that INI `[section] key` sets through parse; key defaults to the field name."""
    return field(default=default, metadata={"section": section, "key": key, "parse": parse})


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob for the five experiment drivers; defaults are the desk scene."""

    kind: str = _ini("experiment", "", str)
    seed: int | None = _ini("experiment", None, int)
    trials: int | None = _ini("experiment", None, int)
    out_dir: str = _ini("experiment", "out", str)
    n_list: tuple[int, ...] = _ini("signal", (256, 512, 1024, 2048, 4096), _tuple_of(int))
    n_fast: int = _ini("signal", 1024, int)
    m_slow: int = _ini("signal", 1024, int)
    codes: tuple[str, ...] = _ini("signal", ("uncoded", "polar", "ldpc"), _tuple_of(str))
    rates: tuple[tuple[float, int, str], ...] = _ini(
        "signal", ((120.0, 1024, "qpsk"), (682.5, 1024, "256qam")), _tuple_of(_parse_rate))
    code_seed: int = _ini("signal", 0, int)
    sidelobe_window: int = _ini("signal", 32, int)
    n_max: int = _ini("scene", 32, int)
    snr_db: float = _ini("scene", 0.0, _finite)
    sir_db: float = _ini("scene", -11.0, _finite)
    far_gain_db: float = _ini("scene", -12.0, _finite)
    near_range_bin: int = _ini("scene", 14, int)
    near_doppler_bin: int = _ini("scene", 516, int)
    far_range_bin: int = _ini("scene", 27, int)
    far_doppler_bin: int = _ini("scene", 518, int)
    intf_range_bin: int = _ini("scene", 29, int)
    intf_doppler_bin: int = _ini("scene", 518, int)
    eta_points: int = _ini("detection", 200, int)
    u_min: float = _ini("bounds", 0.01, _finite)
    u_max: float = _ini("bounds", 0.25, _finite)
    u_points: int = _ini("bounds", 20, int)
    bounds_n_list: tuple[int, ...] = _ini("bounds", (256, 1024), _tuple_of(int), key="n_list")

    def resolved_trials(self) -> int:
        if self.trials is not None:
            return self.trials
        return DEFAULT_TRIALS.get(self.kind, 100)

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigError("seed is mandatory (set [experiment] seed or pass --seed)")
        if self.seed < 0:
            raise ConfigError(f"seed = {self.seed} must be nonnegative")
        return self.seed

    # -- derived pieces -----------------------------------------------------
    def _from_db(self, key: str, sign: float, per_decade: float) -> float:
        """10 ** (sign * self.<key> / per_decade); ConfigError when it overflows."""
        value = getattr(self, key)
        try:
            return 10.0 ** (sign * value / per_decade)
        except OverflowError:
            raise ConfigError(f"{key} = {value:g} overflows as a linear value") from None

    def gains(self) -> tuple[float, float, float]:
        """(near, far, interferer) magnitudes with the near target at 0 dB."""
        return (1.0, self._from_db("far_gain_db", 1.0, 20.0),
                self._from_db("sir_db", -1.0, 20.0))

    def noise_var(self) -> float:
        return self._from_db("snr_db", -1.0, 10.0)

    def scene(self, with_interference: bool = True) -> TargetScene:
        near, far, direct = self.gains()
        targets = (Path(self.near_range_bin, self.near_doppler_bin, near),
                   Path(self.far_range_bin, self.far_doppler_bin, far))
        intf = ((Path(self.intf_range_bin, self.intf_doppler_bin, direct),),) \
            if with_interference else ()
        return TargetScene(targets=targets, interference=intf,
                           noise_var=self.noise_var(), n_max=self.n_max)

    def target_bins(self) -> tuple[tuple[int, int], ...]:
        return ((self.near_range_bin, self.near_doppler_bin),
                (self.far_range_bin, self.far_doppler_bin))

    def code_config(self, kind: str, rate_num: float, rate_den: int, n_symbols: int,
                    modulation_name: str) -> CodeConfig:
        if rate_den < 1:
            raise ConfigError(f"rate {rate_num:g}/{rate_den} needs a positive denominator")
        m_s = constellation(modulation_name).bits_per_symbol
        n_bits = n_symbols * m_s
        if kind == "uncoded":
            return CodeConfig("uncoded", n_bits, n_bits)
        k_bits = rate_num * n_symbols * m_s / rate_den
        if not k_bits <= n_bits:
            raise ConfigError(f"rate {rate_num:g}/{rate_den} is above 1")
        if abs(k_bits - round(k_bits)) > 1e-9:
            raise ConfigError(
                f"rate {rate_num}/{rate_den} gives a fractional bit count at "
                f"N={n_symbols}, m_s={m_s}")
        return CodeConfig(kind, n_bits, int(round(k_bits)), construction_seed=self.code_seed)

    def nearfar_code_kind(self) -> str:
        """Code of the near-far c.c.s: polar if listed, else the first coded kind."""
        coded = [c for c in self.codes if c != "uncoded"]
        if "polar" in coded:
            return "polar"
        return coded[0] if coded else "uncoded"

    def validate(self) -> None:
        """Raise ConfigError when the experiment self.kind names could not run.

        Checks every code the experiment builds (known kind and modulation, polar
        lengths a power of two, whole message bit counts, positive rate
        denominators, rates at most 1, a nonnegative code_seed), for the sidelobe
        sweeps a sidelobe_window >= 1, block lengths N >= 2 and distinct n_list,
        codes and rates entries, for the bounds driver distinct bounds_n_list
        entries and a u grid of u_points >= 2 in 0 < u_min < u_max, and, for the
        near-far scene, snr_db, sir_db and far_gain_db whose linear values stay
        finite, n_max < n_fast, every range and Doppler bin inside [0, n_max] and
        [1, m_slow], a detection.false_alarm_mask cell (the false-alarm search),
        and eta_points >= 2.
        It evaluates every analytic bound the driver reads (the pslr median, the
        bounds driver's three upper bounds), so a block too short for one fails here.
        """
        if self.code_seed < 0:
            raise ConfigError(f"code_seed = {self.code_seed} must be nonnegative")
        if self.kind == "nearfar":
            self.gains()
            self.noise_var()
            if self.eta_points < 2:
                raise ConfigError(f"eta_points = {self.eta_points} must be at least 2")
            if not 0 <= self.n_max < self.n_fast:
                raise ConfigError(f"n_max = {self.n_max} must lie in [0, n_fast = {self.n_fast})")
            for name in ("near", "far", "intf"):
                rbin = getattr(self, f"{name}_range_bin")
                dbin = getattr(self, f"{name}_doppler_bin")
                if not 0 <= rbin <= self.n_max:
                    raise ConfigError(
                        f"{name}_range_bin = {rbin} outside [0, n_max = {self.n_max}]")
                if not 1 <= dbin <= self.m_slow:
                    raise ConfigError(
                        f"{name}_doppler_bin = {dbin} outside [1, m_slow = {self.m_slow}]")
            if not false_alarm_mask((self.n_max + 1, self.m_slow), self.target_bins()).any():
                raise ConfigError(f"n_max = {self.n_max} leaves no false-alarm cell: the "
                                  "targets hold every cell at range 1..n_max")
            combos = [(self.nearfar_code_kind(), self.rates[0], self.n_fast)]
        elif self.kind == "bounds":
            self._distinct("bounds_n_list")
            u = self.u_grid()
            combos = [(code, self.rates[0], n) for code in BOUND_CODES
                      for n in self.bounds_n_list]
        elif self.kind in ("pslr", "suppress", "interleave"):
            self._distinct("n_list", "codes", "rates")
            if self.sidelobe_window < 1:
                raise ConfigError(f"sidelobe_window = {self.sidelobe_window} must be at least 1")
            if min(self.n_list) < 2:
                raise ConfigError(f"n_list entry {min(self.n_list)} must be at least 2")
            combos = [(code, rate, n) for code in self.codes
                      for rate in self.rates for n in self.n_list]
        else:
            combos = []
        for code, (num, den, mod), n in combos:
            try:
                cfg = self.code_config(code, num, den, n, mod)
                const = constellation(mod)
                k, b = k_symbols(cfg, const), product_bound_b(const)
                if self.kind == "pslr":
                    median_pslr_from_bound(n=n, lag=1, b=b, k=k)
                elif self.kind == "bounds":
                    autocorr_tail_ub(u, n=n, lag=1, b=b, k=k)
                    crosscorr_tail_ub(u, n=n, lag=0, b=b, k_i=k, k_q=k)
                    ofdm_tail_ub(u, n=n, b=ratio_bound_b(const, const), k_i=k, k_q=k)
            except ValueError as exc:  # ConfigError included: it is a ValueError
                raise ConfigError(f"{code} {num:g}/{den}:{mod} at N = {n}: {exc}") from exc

    def _distinct(self, *names: str) -> None:
        """ConfigError naming the first of these list fields that repeats an entry."""
        for name in names:
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} = {values!r} repeats an entry")

    def u_grid(self) -> np.ndarray:
        """The bounds driver's thresholds u; ConfigError names the first bad key."""
        if self.u_points < 2:
            raise ConfigError(f"u_points = {self.u_points} must be at least 2")
        if not self.u_min > 0:
            raise ConfigError(f"u_min = {self.u_min:g} must be positive")
        if not self.u_min < self.u_max:
            raise ConfigError(f"u_min = {self.u_min:g} must be below u_max = {self.u_max:g}")
        return np.linspace(self.u_min, self.u_max, self.u_points)

    # -- serialization ------------------------------------------------------
    def canonical_text(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            lines.append(f"{f.name} = {getattr(self, f.name)!r}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        """Hash of what the experiment computes.  out_dir only says where the
        results go, so it is reset to its default first: one experiment
        written to two directories records one hash."""
        text = replace(self, out_dir=ExperimentConfig.out_dir).canonical_text()
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_config(path) -> ExperimentConfig:
    """Read an INI-style config; every key is optional, unknown keys fail."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    by_key = {(f.metadata["section"], f.metadata["key"] or f.name): f
              for f in fields(ExperimentConfig)}
    overrides = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            f = by_key.get((section, key))
            if f is None:
                raise ConfigError(f"unknown config key [{section}] {key}")
            try:
                overrides[f.name] = f.metadata["parse"](raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    try:
        return replace(ExperimentConfig(), **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class ResultTable:
    """Column-named rows plus provenance metadata, serialized as CSV."""

    columns: tuple[str, ...]
    rows: list
    meta: dict

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            for key in sorted(self.meta):
                fh.write(f"# {key}: {self.meta[key]}\n")
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")

    def select(self, **conds) -> list:
        idxs = {k: self.columns.index(k) for k in conds}
        return [row for row in self.rows
                if all(row[idxs[k]] == v for k, v in conds.items())]


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def result_meta(config: ExperimentConfig, wall_time_s: float | None = None) -> dict:
    meta = {"config_hash": config.config_hash(), "version": f"ccsradar-v{__version__}",
            "seed": config.seed, "kind": config.kind}
    if wall_time_s is not None:
        meta["wall_time_s"] = f"{wall_time_s:.3f}"
    return meta
