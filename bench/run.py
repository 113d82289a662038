"""ccsradar benchmark: seeded experiment drivers through the public CLI.

    python3 bench/run.py --workload {nearfar,sweeps,bounds} --seed N \\
        --seconds S --trace {0,1}

Each workload run calls ``ccsradar.cli.main`` once per driver, each call in a
fresh process (bench/child.py) with BLAS and OpenMP threads pinned to 1: a
closed loop of one client, so the figures are single-core figures.  Passes
over the workload start until --seconds have elapsed; medians are reported.

--trace 0 reports the end-to-end metrics: wall_s and cpu_s of the cli.main
call, setup_s (process start until cli.main is entered, from every measured
process plus set-up probes that exit after the imports), peak_rss_mb, and on
the summary lines fail_ratio.  --trace 1 alternates untraced and traced
passes and reports the per-layer metrics of bench/tracer.py; the untraced
processes never import the tracer.

Every driver call is checked: exit code 0, the expected output files with the
expected number of data rows, and a sha256 over the data lines (CSV lines not
starting with '#', whole binary dumps) equal to bench/reference.json where the
seed is recorded there, and otherwise equal across the calls of the run.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
CHILD_TIMEOUT_S = 120
# set-up probes per workload run; they spread setup_s samples over the run
SETUP_PROBES = 3
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# workload -> (cli command, config, trials) per driver call.  Sweep trial
# counts are multiples of the drivers' 256-row batch, so every batch keeps
# the reference shape.
WORKLOADS = {
    "nearfar": (("nearfar", "configs/nearfar.ini", 3),),
    "sweeps": (("pslr", "configs/pslr.ini", 256),
               ("suppress", "configs/suppress.ini", 256),
               ("interleave", "configs/interleave.ini", 256)),
    "bounds": (("bounds", "configs/bounds.ini", 10000),),
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or a broken child)."""


def digest_outputs(out_dir: Path) -> dict:
    """{file: (sha256 of its data, data line count)} for every output file."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        h, lines = hashlib.sha256(), 0
        with open(path, "rb") as fh:
            if path.suffix == ".csv":
                for line in fh:
                    if not line.startswith(b"#"):
                        h.update(line)
                        lines += 1
            else:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
        files[path.name] = (h.hexdigest(), lines)
    return files


def combined_digest(files: dict) -> str:
    h = hashlib.sha256()
    for name, (digest, _lines) in sorted(files.items()):
        h.update(f"{name}:{digest}\n".encode())
    return h.hexdigest()


def run_child(job: dict) -> dict:
    """Start one measured process and return its record plus setup_s."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINS)
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(job)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"rc": proc.returncode or 1, "error": proc.stderr.strip()[-2000:]}
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("entered") - started
    return record


class Checker:
    """Output check behind fail_ratio, for one workload and seed.

    Outputs are compared with bench/reference.json; what it does not record
    (an unrecorded seed, or no reference at all) is taken from the first call
    of each command and later calls must match it.
    """

    def __init__(self, workload: str, seed: int, reference: dict):
        ref = reference.get(workload, {})
        self.layout = dict(ref.get("layout", {}))
        self.digests = dict(ref.get("digests", {}).get(str(seed), {}))

    def check(self, command: str, files: dict) -> str | None:
        """None when the outputs are right, else the reason they are not."""
        layout = {name: lines for name, (_digest, lines) in files.items()}
        if self.layout.setdefault(command, layout) != layout:
            return f"{command}: output files or data row counts differ from the reference"
        digest = combined_digest(files)
        if self.digests.setdefault(command, digest) != digest:
            return f"{command}: output digest differs from the reference"
        return None


def run_pass(calls, seed: int, out_root: Path, checker: Checker,
                 spans_dir: Path | None = None, run_id: int = 0) -> dict:
    """One pass over the workload's driver calls, each in a fresh process."""
    rep = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "setup": [], "errors": [],
            "spans": []}
    for k, (command, config, trials) in enumerate(calls):
        out = out_root / f"{run_id}-{k}"
        argv = [command, "--config", str(ROOT / config), "--seed", str(seed),
                "--trials", str(trials), "--out", str(out)]
        job = {"argv": argv}
        if spans_dir is not None:
            spans = spans_dir / f"{run_id}-{k}.json"
            job.update(run_id=run_id, spans=str(spans))
        try:
            rec = run_child(job)
        except subprocess.TimeoutExpired:
            rec = {"rc": 1, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
        if rec.get("rc") != 0:
            rep["errors"].append(f"{command}: exit {rec.get('rc')}: {rec.get('error', '')}")
        else:
            rep["wall_s"] += rec["wall_s"]
            rep["cpu_s"] += rec["cpu_s"]
            rep["rss_mb"] = max(rep["rss_mb"], rec["rss_mb"])
            rep["setup"].append(rec["setup_s"])
            problem = checker.check(command, digest_outputs(out))
            if problem:
                rep["errors"].append(problem)
            if spans_dir is not None:
                rep["spans"].append(json.loads(spans.read_text(encoding="utf-8")))
        shutil.rmtree(out, ignore_errors=True)
    return rep


def source_info() -> dict:
    """Commit (when the checkout is a git work tree), source digest and size."""
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    tree, lines = hashlib.sha256(), 0
    for path in sorted((ROOT / "src" / "ccsradar").glob("*.py")):
        data = path.read_bytes()
        tree.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"commit": commit, "src_sha256": tree.hexdigest(), "src_ccsradar_lines": lines}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the workload for `seconds`; returns (result line, environment)."""
    if not (ROOT / "src" / "ccsradar" / "cli.py").is_file():
        raise BenchError(f"no ccsradar sources under {ROOT / 'src'}")
    calls = WORKLOADS[workload]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    checker = Checker(workload, seed, reference)
    scratch = ROOT / ".bench_run" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        setup, plain, traced = [], [], []
        start = time.monotonic()
        while True:
            for _ in range(SETUP_PROBES):
                probe = run_child({"argv": None})
                if "env" not in probe:
                    raise BenchError(f"set-up probe failed: {probe.get('error')}")
                setup.append(probe["setup_s"])
            run_id = len(plain) + len(traced)
            with_trace = trace and run_id % 2 == 1
            rep = run_pass(calls, seed, scratch, checker,
                           spans_dir=scratch if with_trace else None, run_id=run_id)
            (traced if with_trace else plain).append(rep)
            if len(traced) >= int(trace) and time.monotonic() - start >= seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if scratch.parent.is_dir() and not any(scratch.parent.iterdir()):
            scratch.parent.rmdir()
    reps = plain + traced
    errors = [e for r in reps for e in r["errors"]]
    attempted, failed = len(reps) * len(calls), len(errors)
    ok_plain = [r for r in plain if not r["errors"]] or plain
    if trace:
        sys.path.insert(0, str(ROOT / "src"))
        from tracer import metric_table, summarize
        layer, unsteady = summarize([r["spans"] for r in traced],
                                    [r["wall_s"] for r in traced],
                                    [r["wall_s"] for r in ok_plain])
        if unsteady:
            errors.append(f"work counts differ between traced passes {unsteady}")
        unit_of = {name: unit for name, unit, _better in metric_table()}
        metrics = {name: {"value": value, "unit": unit_of[name]}
                   for name, value in layer.items()}
    else:
        setup += [s for r in reps for s in r["setup"]]
        values = {"wall_s": statistics.median(r["wall_s"] for r in ok_plain),
                  "cpu_s": statistics.median(r["cpu_s"] for r in ok_plain),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(r["rss_mb"] for r in ok_plain)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics, "errors": errors, "passes": len(reps)}
    env = {**source_info(), **probe["env"], "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0))}
    return result, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, env = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 2
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed}: {result['passes']} passes, "
          f"{result['attempted']} driver calls")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'fail_ratio':48s} {result['failed'] / result['attempted']:.6g} 1")
    for error in result["errors"]:
        print(f"# FAIL {error}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
