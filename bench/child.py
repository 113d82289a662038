"""One measured process of the benchmark: import, then one cli.main call.

Invoked by run.py as ``child.py '<job json>'``; the job holds the CLI argv
(null for a set-up probe, which exits right after the imports) and, for a
traced run, the run id and the file the spans go to.  The last stdout line is a
JSON record of the process's timings.
"""

import contextlib
import json
import os
import resource
import sys
import time

import numpy as np

from ccsradar import cli


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "thread_pins": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}}


def main(job: dict) -> dict:
    tracer = None
    if job.get("spans") is not None:
        from tracer import Tracer
        tracer = Tracer(job["run_id"])
        tracer.install()
    entered = time.monotonic()
    if job["argv"] is None:
        return {"entered": entered, "env": environment()}
    cpu0 = time.process_time()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        rc = cli.main(job["argv"])
    record = {"entered": entered, "rc": rc, "wall_s": time.monotonic() - entered,
              "cpu_s": time.process_time() - cpu0,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.dump(job["spans"])
    return record


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
