"""The surface the benchmark tracer and the shipped scripts rely on.

bench/tracer.py rebinds named functions and methods of the package to timed
wrappers; every name it lists must exist and be callable.  The tables are
read here without installing the tracer, which would rebind module globals.
The two scripts under scripts/ run end to end as subprocesses.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


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


def test_reproduce_figures_script_runs(tmp_path):
    proc = _run_script("reproduce_figures.py", "--trials", "2", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for kind in ("pslr", "suppress", "interleave", "bounds", "nearfar"):
        assert (tmp_path / kind / f"plot_{kind}.py").is_file()
