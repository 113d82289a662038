"""Tests of the benchmark itself, at the smoke size of each workload.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))
import tracer  # noqa: E402  (needs the sources on the path)

# Seconds-scale versions of the workloads' driver calls.
SMOKE = {
    "nearfar": (("nearfar", "configs/nearfar.ini", 1),),
    "sweeps": (("pslr", "bench/smoke/sweep.ini", 256),
               ("suppress", "bench/smoke/sweep.ini", 256),
               ("interleave", "bench/smoke/sweep.ini", 256)),
    "bounds": (("bounds", "configs/bounds.ini", 512),),
}


@pytest.fixture
def scratch():
    path = run.ROOT / ".bench_run" / "test"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_trace_repeats_counts_and_outputs(workload, scratch):
    """Two traced passes give identical work counts, and tracing leaves the
    outputs byte-identical to an untraced pass."""
    calls = SMOKE[workload]
    checker = run.Checker(workload, 0, {})
    plain = run.run_pass(calls, 0, scratch, checker, run_id=0)
    first = run.run_pass(calls, 0, scratch, checker, spans_dir=scratch, run_id=1)
    second = run.run_pass(calls, 0, scratch, checker, spans_dir=scratch, run_id=2)
    assert plain["errors"] == first["errors"] == second["errors"] == []
    a, b = (tracer._pass_summary(u["spans"]) for u in (first, second))
    assert a["calls"] == b["calls"] and a["calls"]["cli.main"] == len(calls)
    assert a["counts"] == b["counts"]
    metrics, unsteady = tracer.summarize([first["spans"], second["spans"]],
                                         [first["wall_s"], second["wall_s"]],
                                         [plain["wall_s"]])
    assert unsteady == []
    assert list(metrics) == [name for name, _unit, _better in tracer.metric_table()]
    assert 0.5 < metrics["trace.coverage"] <= 1.0


def test_checker_flags_changed_outputs():
    files = {"a.csv": ("0" * 64, 3)}
    checker = run.Checker("w", 0, {"w": {"layout": {"c": {"a.csv": 3}},
                                         "digests": {"0": {"c": run.combined_digest(files)}}}})
    assert checker.check("c", files) is None
    assert "digest" in checker.check("c", {"a.csv": ("1" * 64, 3)})
    assert "row counts" in checker.check("c", {"a.csv": ("0" * 64, 4)})


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracer.metric_table()
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(run.END_TO_END)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "bounds",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
