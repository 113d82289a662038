"""Record bench/reference.json: output layout and digests per workload and seed.

    python3 bench/record.py

Runs every workload once per seed (untraced) and stores, per driver call,
the output files with their data row counts and the combined sha256 of their
data lines.  Re-record only for a change that deliberately alters a random
stream or an output format, and say so in that change.
"""

import json
import shutil
import sys

from run import REFERENCE, ROOT, WORKLOADS, Checker, run_pass, source_info

# 0 is the configs' seed; 7 is the held-out seed the check was confirmed on.
SEEDS = range(20)


def main() -> int:
    scratch = ROOT / ".bench_run" / "record"
    scratch.mkdir(parents=True, exist_ok=True)
    reference = {"_source": {**source_info(), "workloads": WORKLOADS}}
    try:
        for workload, calls in WORKLOADS.items():
            layout, digests = None, {}
            for seed in SEEDS:
                checker = Checker(workload, seed, {})
                rep = run_pass(calls, seed, scratch, checker)
                if rep["errors"] or layout not in (None, checker.layout):
                    print(f"{workload} seed {seed}: {rep['errors'] or 'layout changed'}",
                          file=sys.stderr)
                    return 1
                layout, digests[str(seed)] = checker.layout, checker.digests
                print(f"{workload} seed {seed}: {rep['wall_s']:.2f} s", flush=True)
            reference[workload] = {"layout": layout, "digests": digests}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
