"""Hash the result files of a fixed set of small CLI runs.

    python tools/golden_cli.py [SRC]

Runs nine small-N invocations of the command line (spectrum twice, otoc
quench and level, micro with --sizes, a 3 x 4 sweep on 2 workers and the
three fits), each in a fresh process with BLAS pinned to one thread and
the package imported from SRC (default: the src/ next to this script).
Every file a run writes is hashed, except manifest.json, which carries a
duration; cells.jsonl is hashed by its sorted lines, since with several
workers its records follow completion order. Prints one
"<run>/<file> <sha256>" line per file. Two checkouts behave the same on
this set when their outputs are identical line for line.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUNS = {
    "spectrum-n40": ["spectrum", "--n", "40", "--alpha", "0.37"],
    "spectrum-free": ["spectrum", "--n", "2", "--alpha", "0"],
    "otoc-quench": ["otoc", "--n", "30", "--alpha", "0.4", "--lambda", "1",
                    "--tmax", "50", "--dt", "0.05", "--plot"],
    "otoc-level": ["otoc", "--n", "30", "--alpha", "0.4", "--state", "level",
                   "--level", "12", "--tmax", "50", "--dt", "0.05"],
    "micro": ["micro", "--n", "24", "--alpha", "0.4", "--tavg", "200",
              "--dt", "0.5", "--sizes", "16,24", "--plot"],
    "sweep": ["sweep", "--alphas", "0.2,0.4,0.9", "--lambdas", "0,0.5,1,1.5",
              "--n", "20", "--tavg", "200", "--dt", "0.5", "--workers", "2"],
    "fit-mu": ["fit", "--kind", "mu", "--alpha", "0.4", "--sizes", "30,40,60",
               "--tavg", "200", "--dt", "0.5"],
    "fit-gamma-lambda": ["fit", "--kind", "gamma-lambda", "--alpha", "0.4",
                         "--n", "40", "--tavg", "200", "--dt", "0.5"],
    "fit-gamma-epsilon": ["fit", "--kind", "gamma-epsilon", "--alpha", "0.4",
                          "--n", "40", "--tavg", "200", "--dt", "0.5",
                          "--window", "0.01,0.5"],
}

SKIP = {"manifest.json"}
SORTED_LINES = {"cells.jsonl"}


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name in SORTED_LINES:
        data = b"".join(sorted(data.splitlines(keepends=True)))
    return hashlib.sha256(data).hexdigest()


def main(argv) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src.resolve()),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="golden-cli-") as tmp:
        for name, args in RUNS.items():
            out = Path(tmp) / name
            cmd = [sys.executable, "-m", "lmg_otoc.cli", *args, "--out", str(out)]
            proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"error: {name} exited {proc.returncode}: {proc.stderr.strip()}",
                      file=sys.stderr)
                return 1
            for path in sorted(out.iterdir()):
                if path.name not in SKIP:
                    print(f"{name}/{path.name} {digest(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
