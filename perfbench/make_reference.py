"""Regenerate the seed-0 reference columns in reference/.

    python3 perfbench/make_reference.py

Runs each workload once on seed 0 and stores the result columns the
correctness check compares (workloads.REFERENCE_COLUMNS) as float64 arrays
in reference/<workload>.npz. Regenerate only from a commit whose results
are trusted: the stored values define what the benchmark accepts.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

import run
import workloads

def main():
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        argv = workloads.cli_args(workload, 0)
        with tempfile.TemporaryDirectory() as work:
            out = Path(work) / "out"
            proc = run.run_child(argv, out, Path(work) / "result.json", trace=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            columns = workloads.read_csv(out / workloads.OUTPUTS[workload][0])
        np.savez_compressed(workloads.reference_path(run.REFERENCE_DIR, workload),
                            **{name: columns[name]
                               for name in workloads.REFERENCE_COLUMNS[workload]})
        print("wrote", workloads.reference_path(run.REFERENCE_DIR, workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
