"""Span recorder for the traced benchmark run.

Tracer.install() rebinds the public names the drivers call (in the ccsradar.cli,
ccsradar.experiments, ccsradar.modulation and ccsradar.scene namespaces) and
the export/write methods to wrappers that record one span per call: name,
start, end, parent span and run id.  Spans and work counts stay in memory
until Tracer.dump() writes them once, when the traced process ends.

Counts are computed from argument and result shapes at the layer boundary
("computed": they ignore caches and memory traffic the shapes do not show).
Untraced processes never import this module.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from ccsradar import cli, coding, experiments, modulation, scene
from ccsradar.config import ResultTable
from ccsradar.detection import RocCurves
from ccsradar.receiver import RangeDopplerMap


def data_bytes(path) -> int:
    """Size of a written file without its leading '#' metadata lines.

    The metadata holds wall_time_s, whose width varies from run to run.
    """
    meta = 0
    with open(path, "rb") as fh:
        while fh.peek(1)[:1] == b"#":
            meta += len(fh.readline())
    return os.path.getsize(path) - meta


# -- per-layer work counters: (counts, result, *call args) -> None -----------

def _count_encode(c, out, msg, config):
    c["coding.encode.bits"] += out.size


def _count_map_bits(c, out, bits, const):
    c["modulation.map_bits.symbols"] += out.size


def _count_corr(c, out, *blocks, lags=None, method="fft"):
    # autocorr/crosscorr: two forward FFTs and one inverse, each of length 2N
    if method == "fft":
        rows = out.values.size // out.lags.size
        c["correlation.fft_points"] += rows * 3 * 2 * out.n


def _count_idft(c, out, s_i, s_q):
    c["correlation.fft_points"] += out.values.size


def _count_window(drop_zero):
    def count(c, out, profile, max_lag=None):
        lags = profile.lags
        signed = np.where(lags <= profile.n // 2, lags, lags - profile.n) \
            if profile.kind == "idft_ratio" else lags
        keep = np.ones(lags.size, dtype=bool) if max_lag is None else np.abs(signed) <= max_lag
        if drop_zero:
            keep &= signed != 0
        rows = profile.values.size // lags.size
        c["correlation.lags_used"] += rows * int(keep.sum())
        c["correlation.lags_computed"] += profile.values.size
    return count


def _count_samples(c, out, *args, **kwargs):
    c["scene.samples"] += getattr(out, "samples", out).size


def _count_awgn(c, out, x, noise_var, rng):
    if noise_var > 0:
        c["scene.awgn.noise_samples"] += np.size(x)


def _count_mf_bank(c, out, y, x, n_max):
    m_slow, n_fast = np.shape(x)
    c["receiver.mf_bank.macs"] += (n_max + 1) * m_slow * n_fast
    # one y window and the conjugated reference read per lag, plus the output
    c["receiver.mf_bank.bytes"] += 16 * (n_max + 1) * (2 * m_slow * n_fast + m_slow)


def _count_write(path_index):
    def count(c, out, *args, **kwargs):
        c["config.out.bytes"] += data_bytes(args[path_index])
    return count


# (namespace, attribute, span name, counter); one span name may be bound in
# several namespaces because modulation and experiments both call the coder.
FUNCTIONS = (
    (experiments, "encode", "coding.encode", _count_encode),
    (modulation, "encode", "coding.encode", _count_encode),
    (modulation, "interleave_codeword", "coding.interleave_codeword", None),
    (experiments, "map_bits", "modulation.map_bits", _count_map_bits),
    (modulation, "map_bits", "modulation.map_bits", _count_map_bits),
    (experiments, "generate_ccs_blocks", "modulation.generate_ccs_blocks", None),
    (experiments, "autocorr", "correlation.autocorr", _count_corr),
    (experiments, "crosscorr", "correlation.crosscorr", _count_corr),
    (experiments, "idft_ratio", "correlation.idft_ratio", _count_idft),
    (experiments, "pslr", "correlation.pslr", _count_window(drop_zero=True)),
    (experiments, "suppression_metric", "correlation.suppression_metric",
     _count_window(drop_zero=False)),
    (experiments, "apply_channel_sc", "scene.apply_channel_sc", _count_samples),
    (experiments, "apply_channel_ofdm", "scene.apply_channel_ofdm", _count_samples),
    (scene, "awgn", "scene.awgn", _count_awgn),
    (experiments, "synth_frame", "scene.synth_frame", _count_samples),
    (experiments, "write_frame_bin", "scene.write_frame_bin", _count_write(0)),
    (experiments, "mf_bank", "receiver.mf_bank", _count_mf_bank),
    (experiments, "sc_range_doppler", "receiver.sc_range_doppler", None),
    (experiments, "ofdm_range_doppler", "receiver.ofdm_range_doppler", None),
    (experiments, "fmcw_range_doppler", "receiver.fmcw_range_doppler", None),
    (experiments, "summarize_map", "detection.summarize_map", None),
    (experiments, "threshold_sweep", "detection.threshold_sweep", None),
    (experiments, "empirical_tail", "bounds.empirical_tail", None),
    (experiments, "autocorr_tail_ub", "bounds.autocorr_tail_ub", None),
    (experiments, "crosscorr_tail_ub", "bounds.crosscorr_tail_ub", None),
    (experiments, "ofdm_tail_ub", "bounds.ofdm_tail_ub", None),
    (experiments, "autocorr_tail_lb", "bounds.autocorr_tail_lb", None),
    (experiments, "median_pslr_from_bound", "bounds.median_pslr_from_bound", None),
    (experiments, "median_suppression_from_bound", "bounds.median_suppression_from_bound",
     None),
    (cli, "load_config", "config.load_config", None),
)

METHODS = (
    (ResultTable, "write_csv", "config.ResultTable.write_csv", _count_write(1)),
    (RangeDopplerMap, "export_csv", "receiver.RangeDopplerMap.export_csv", _count_write(1)),
    (RangeDopplerMap, "export_binary", "receiver.RangeDopplerMap.export_binary",
     _count_write(1)),
    (RocCurves, "export_csv", "detection.RocCurves.export_csv", _count_write(1)),
)

DRIVERS = ("run_pslr_sweep", "run_suppression_sweep", "run_interleaver_study",
           "run_tail_bound_check", "run_near_far")

# Every layer function the trace reports, whether or not a workload calls it.
LAYER_SPANS = tuple(dict.fromkeys(name for _, _, name, _ in FUNCTIONS + METHODS))
# Memoised builders whose cache_info() feeds a hit ratio.
CACHES = (("coding.polar_info_set", coding.polar_info_set),
          ("modulation.constellation", modulation.constellation))
# Exact work counts, summed over the processes of one workload pass.
COUNTS = (("coding.encode.bits", "bit", "lower"),
          ("modulation.map_bits.symbols", "count", "lower"),
          ("correlation.fft_points", "count", "lower"),
          ("scene.samples", "count", "lower"),
          ("scene.awgn.noise_samples", "count", "lower"),
          ("receiver.mf_bank.macs", "count", "lower"),
          ("receiver.mf_bank.bytes", "B", "lower"),
          ("config.out.bytes", "B", "lower"))
# Layers called often enough on some workload for call-time percentiles.
PERCENTILE_SPANS = ("coding.encode", "modulation.map_bits", "correlation.autocorr",
                    "correlation.crosscorr", "correlation.idft_ratio", "correlation.pslr",
                    "correlation.suppression_metric", "scene.awgn",
                    "detection.summarize_map", "bounds.empirical_tail")
MIN_PERCENTILE_CALLS = 20
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)


def metric_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    table = []
    for span in LAYER_SPANS:
        table += [(f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower")]
    table += [("experiments.self_s", "s", "lower"), ("cli.self_s", "s", "lower")]
    for span in PERCENTILE_SPANS:
        table += [(f"{span}.call_ms.n", "count", "lower"),
                  (f"{span}.call_ms.p50", "ms", "lower"),
                  (f"{span}.call_ms.tail", "ms", "lower"),
                  (f"{span}.call_ms.tail_pct", "%", "higher")]
    table += list(COUNTS)
    table += [(f"{name}.hit_ratio", "1", "higher") for name, _ in CACHES]
    table += [("correlation.lag_use_ratio", "1", "higher"),
              ("trace.coverage", "1", "higher"),
              ("trace.overhead_s", "s", "lower")]
    return table


def _percentile(ordered: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


def _tail_pct(n: int) -> float:
    """Highest ladder percentile with at least 10 calls beyond it."""
    for pct in TAIL_LADDER:
        if n - math.ceil(n * pct / 100) >= 10:
            return pct
    return 0.0


def _pass_summary(dumps: list) -> dict:
    """Per-span calls and self time, counts and cache stats of one pass."""
    calls, self_s, durations = Counter(), defaultdict(float), defaultdict(list)
    counts, caches = Counter(), defaultdict(Counter)
    for dump in dumps:
        spans = dump["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _run in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _parent, _run), child in zip(spans, covered):
            calls[name] += 1
            self_s[name] += end - start - child
            durations[name].append(1e3 * (end - start))
        counts.update(dump["counts"])
        for name, info in dump["caches"].items():
            caches[name].update(hits=info["hits"], misses=info["misses"])
    return {"calls": calls, "self_s": self_s, "durations": durations,
            "counts": counts, "caches": caches}


def summarize(traced: list, traced_walls: list, untraced_walls: list) -> tuple[dict, list]:
    """Per-layer metrics of a traced run, plus the counts that did not repeat.

    traced holds one list of span dumps per traced workload pass (one dump
    per process); self times and coverage are medians over those passes,
    call-time percentiles pool every call, counts come from the first pass.
    """
    passes = [_pass_summary(dumps) for dumps in traced]
    first = passes[0]
    unsteady = [i for i, u in enumerate(passes)
                if (u["calls"], u["counts"]) != (first["calls"], first["counts"])]

    def median_self(spans) -> float:
        return statistics.median(sum(u["self_s"][s] for s in spans) for u in passes)

    m = {}
    for span in LAYER_SPANS:
        m[f"{span}.calls"] = first["calls"][span]
        m[f"{span}.self_s"] = median_self([span])
    m["experiments.self_s"] = median_self([f"experiments.{d}" for d in DRIVERS])
    m["cli.self_s"] = median_self(["cli.main"])
    for span in PERCENTILE_SPANS:
        pooled = sorted(d for u in passes for d in u["durations"][span])
        enough = len(pooled) >= MIN_PERCENTILE_CALLS
        pct = _tail_pct(len(pooled)) if enough else 0.0
        m[f"{span}.call_ms.n"] = len(pooled)
        m[f"{span}.call_ms.p50"] = _percentile(pooled, 50) if enough else 0.0
        m[f"{span}.call_ms.tail"] = _percentile(pooled, pct) if enough else 0.0
        m[f"{span}.call_ms.tail_pct"] = pct
    for name, _unit, _better in COUNTS:
        m[name] = first["counts"][name]
    for name, _fn in CACHES:
        info = first["caches"][name]
        looked_up = info["hits"] + info["misses"]
        m[f"{name}.hit_ratio"] = info["hits"] / looked_up if looked_up else 0.0
    computed = first["counts"]["correlation.lags_computed"]
    m["correlation.lag_use_ratio"] = (first["counts"]["correlation.lags_used"] / computed
                                      if computed else 0.0)
    m["trace.coverage"] = statistics.median(
        sum(u["self_s"][s] for s in LAYER_SPANS) / wall if wall > 0 else 0.0
        for u, wall in zip(passes, traced_walls))
    m["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return m, unsteady


class Tracer:
    """Records the nested spans of one process; single-threaded like the program."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.run_id)
            if count is not None:
                count(self.counts, out, *args, **kwargs)
            return out
        return traced

    def install(self) -> None:
        for namespace, attr, name, count in FUNCTIONS:
            setattr(namespace, attr, self.wrap(name, getattr(namespace, attr), count))
        for cls, attr, name, count in METHODS:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), count))
        for driver in DRIVERS:
            setattr(experiments, driver,
                    self.wrap(f"experiments.{driver}", getattr(experiments, driver)))
        cli.main = self.wrap("cli.main", cli.main)

    def dump(self, path) -> None:
        caches = {name: fn.cache_info()._asdict() for name, fn in CACHES}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "caches": caches}, fh)
