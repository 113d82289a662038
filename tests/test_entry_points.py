"""The surface the benchmark tracer and the shipped scripts rely on.

bench/tracer.py rebinds named functions and methods of the package to timed
wrappers; every name it lists must exist and be callable.  The tables are
read here without installing the tracer, which would rebind module globals.
Each CLI command also runs once as a traced bench/child.py process, where the
tracer's counters see the real call shapes.
The two experiment scripts under scripts/ run end to end as subprocesses, and
scripts/plot_results.py plots their outputs through a stub matplotlib.pyplot.
"""

import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from test_golden import NEARFAR_128_INI

ROOT = Path(__file__).resolve().parents[1]


def _load(name, relpath):
    spec = importlib.util.spec_from_file_location(name, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("bench_tracer", "bench/tracer.py")


@pytest.mark.parametrize("namespace,attr", [
    pytest.param(ns, attr, id=f"{getattr(ns, '__name__', ns)}.{attr}")
    for ns, attr, _span, _count in tracer.FUNCTIONS + tracer.METHODS])
def test_traced_names_exist(namespace, attr):
    assert callable(getattr(namespace, attr, None))


def test_traced_drivers_and_caches_exist():
    for driver in tracer.DRIVERS:
        assert callable(getattr(tracer.experiments, driver, None)), driver
    for name, fn in tracer.CACHES:
        assert callable(fn) and callable(getattr(fn, "cache_info", None)), name
    assert callable(tracer.cli.main)


# command -> (config, trials): seconds-scale runs of every traced driver
TRACED_RUNS = {
    "nearfar": (None, 2),
    "pslr": ("bench/smoke/sweep.ini", 16),
    "suppress": ("bench/smoke/sweep.ini", 16),
    "interleave": ("bench/smoke/sweep.ini", 16),
    "bounds": ("configs/bounds.ini", 64),
}


@pytest.mark.parametrize("command", sorted(TRACED_RUNS))
def test_traced_child_runs(tmp_path, command):
    # a wrapper's counter that rejects the call shape the drivers use fails
    # only here: untraced runs never import the tracer
    config, trials = TRACED_RUNS[command]
    if config is None:
        config = tmp_path / "nearfar.ini"
        config.write_text(NEARFAR_128_INI, encoding="utf-8")
    spans = tmp_path / "spans.json"
    job = {"argv": [command, "--config", str(ROOT / config), "--seed", "0",
                    "--trials", str(trials), "--out", str(tmp_path / "out")],
           "run_id": 1, "spans": str(spans)}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"), json.dumps(job)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["rc"] == 0
    names = {span[0] for span in json.loads(spans.read_text(encoding="utf-8"))["spans"]}
    assert "cli.main" in names


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)


def test_demo_scene_script_runs(tmp_path):
    out = tmp_path / "demo_map.csv"
    proc = _run_script("demo_scene.py", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.stat().st_size > 0


class _Pyplot:
    """Stand-in for matplotlib.pyplot, also serving as every figure and axes:
    any call is accepted, and savefig records its path."""

    def __init__(self):
        self.saved = []

    def __getattr__(self, name):
        return lambda *args, **kwargs: None

    def subplots(self, nrows=1, ncols=1, **kwargs):
        return self, [[self] * ncols for _ in range(nrows)]

    def savefig(self, path, **kwargs):
        self.saved.append(Path(path))


def test_reproduce_figures_script_runs(tmp_path, monkeypatch, capsys):
    proc = _run_script("reproduce_figures.py", "--trials", "2", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert f"scripts/plot_results.py {tmp_path}" in proc.stdout
    pyplot = _Pyplot()
    monkeypatch.setitem(sys.modules, "matplotlib", types.SimpleNamespace(pyplot=pyplot))
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    plot_results = _load("plot_results", "scripts/plot_results.py")
    assert plot_results.main([str(tmp_path)]) == 0
    results = ("pslr/pslr_sweep", "suppress/suppression_sweep", "interleave/interleaver_study",
               "bounds/tail_bounds", "nearfar/roc_curves")
    assert sorted(pyplot.saved) == sorted(tmp_path / f"{r}.png" for r in results)
    assert capsys.readouterr().out.count("wrote ") == len(results)
    assert plot_results.main([str(tmp_path / "missing")]) == 1
