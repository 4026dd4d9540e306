"""Hash, or compare, the result files of a fixed set of small CLI runs.

    python tools/golden_cli.py [SRC]
    python tools/golden_cli.py SRC_A SRC_B

Runs twenty invocations of the command line (spectrum twice, otoc
quench and level, micro with --sizes, a 3 x 4 sweep on 2 workers, the
three fits, the otoc quench again with its trace split over 3 worker
threads, an otoc quench and a 2 x 3 sweep at N = 100, an otoc trace
of a level inside a degenerate parity doublet, a 1 x 2 sweep and a
micro scan over a horizon of 1e5, a 1 x 2 sweep over an odd step
count, a micro scan at N = 100, a 1 x 2 sweep over a horizon of 1e7,
the gamma-lambda fit again on 2 workers, and a gamma-lambda fit over
its own window at alpha = 0.6), each in a fresh process
with BLAS pinned to one thread, LMG_OTOC_WORKERS pinned per run (1
unless WORKERS says otherwise) and the package imported from SRC
(default: the src/ next to this script).
Every file a run writes is hashed. manifest.json is hashed without its
duration_seconds, the one key that varies from run to run, so that its
time grid, truncation bounds, kept levels and flagged counts are
compared too; cells.jsonl is hashed by its sorted lines, since with
several workers its records follow completion order. Prints one
"<run>/<file> <sha256>" line per file. Two checkouts behave the same on
this set when their outputs are identical line for line.

With two trees the set runs against both, and each file gets one line:
"identical"; else, when the two files differ only in their numbers, the
largest absolute deviation among those numbers; else "layout differs".
A refactor that moves only last digits shows up as small deviations.
The split quench run repeats otoc-quench, so its result files must equal
those of otoc-quench (its manifest records the 3 workers), and across
trees those of the other tree's run, which may ignore the variable.
Likewise the 2-worker gamma-lambda fit repeats fit-gamma-lambda, whose
field row is computed on the sweep's worker threads.
"""

import hashlib
import json
import os
import re
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
RUNS["otoc-quench-3-workers"] = RUNS["otoc-quench"]
# The otoc runs above trace every level of the frame; otoc-quench-n100
# traces a restricted frame, 40 and 39 of the 51 and 50 levels per block.
# Every long-time average (the sweeps, micro and the three fits) is summed
# in closed form over the paths of the cut W, with no time steps;
# sweep-long and micro-long do so over 2e5 steps, sweep-odd over 401,
# an odd count, whose full mean takes the odd double-angle identity, and
# sweep-1e7 over 2e7, a horizon whose grid an average never builds.
RUNS["otoc-quench-n100"] = ["otoc", "--n", "100", "--alpha", "0.4", "--lambda", "1",
                            "--tmax", "50", "--dt", "0.05"]
RUNS["sweep-n100"] = ["sweep", "--alphas", "0.2,0.4", "--lambdas", "0,0.5,1",
                      "--n", "100", "--tavg", "200", "--dt", "0.5"]
# Level 12 of otoc-level has a resolved parity; levels 0-3 at N = 30 form
# two numerically degenerate doublets, which a dense solve returns as
# parity mixtures.
RUNS["otoc-level-doublet"] = ["otoc", "--n", "30", "--alpha", "0.4", "--state", "level",
                              "--level", "3"]
RUNS["sweep-long"] = ["sweep", "--n", "40", "--alphas", "0.4", "--lambdas", "0,1",
                      "--tavg", "1e5", "--dt", "0.5"]
RUNS["micro-long"] = ["micro", "--n", "24", "--alpha", "0.4", "--tavg", "1e5", "--dt", "0.5"]
RUNS["sweep-odd"] = ["sweep", "--n", "40", "--alphas", "0.4", "--lambdas", "0,1",
                     "--tavg", "200.5", "--dt", "0.5"]
# The levels of the micro runs above keep every entry of W; at N = 100 the
# levels' searches settle at the floors of entries, pairs and paths.
RUNS["micro-n100"] = ["micro", "--n", "100", "--alpha", "0.4"]
RUNS["sweep-1e7"] = ["sweep", "--n", "40", "--alphas", "0.4", "--lambdas", "0,1",
                     "--tavg", "1e7", "--dt", "0.5"]

RUNS["fit-gamma-lambda-2-workers"] = RUNS["fit-gamma-lambda"]
# A window other than the default, up to 0.45 of lambda_c = 0.5: the
# window alone gives the fit its eight fields.
RUNS["fit-gamma-lambda-window"] = ["fit", "--kind", "gamma-lambda", "--alpha", "0.6",
                                   "--n", "40", "--window", "0.1,0.45", "--tavg", "200",
                                   "--dt", "0.5"]

# LMG_OTOC_WORKERS of the runs that do not take 1
WORKERS = {"otoc-quench-3-workers": "3", "fit-gamma-lambda-2-workers": "2"}

SORTED_LINES = {"cells.jsonl"}
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def contents(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "manifest.json":
        doc = json.loads(data)
        doc.pop("duration_seconds")
        data = json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n"
    if path.name in SORTED_LINES:
        data = b"".join(sorted(data.splitlines(keepends=True)))
    return data


def compare(a: bytes, b: bytes) -> str:
    if a == b:
        return "identical"
    if NUMBER.sub(b"#", a) != NUMBER.sub(b"#", b):
        return "layout differs"
    dev = max(abs(float(x) - float(y))
              for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)))
    return f"max abs deviation {dev:.3g}"


def run_set(src: Path, tmp: Path) -> dict:
    """Run the fixed set against src into tmp; {"<run>/<file>": path}."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    files = {}
    for name, args in RUNS.items():
        out = tmp / name
        cmd = [sys.executable, "-m", "lmg_otoc.cli", *args, "--out", str(out)]
        proc = subprocess.run(cmd, env=dict(env, LMG_OTOC_WORKERS=WORKERS.get(name, "1")),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{src}: {name} exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
        for path in sorted(out.iterdir()):
            files[f"{name}/{path.name}"] = path
    return files


def main(argv) -> int:
    srcs = [Path(a) for a in argv] or [Path(__file__).resolve().parents[1] / "src"]
    if len(srcs) > 2:
        print("usage: golden_cli.py [SRC] | SRC_A SRC_B", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="golden-cli-") as tmp:
        try:
            runs = [run_set(src, Path(tmp) / str(k)) for k, src in enumerate(srcs)]
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if len(runs) == 1:
            for key, path in runs[0].items():
                print(f"{key} {hashlib.sha256(contents(path)).hexdigest()}")
            return 0
        a, b = runs
        for key in dict.fromkeys([*a, *b]):
            if key not in a or key not in b:
                print(f"{key} only in {srcs[0] if key in a else srcs[1]}")
            else:
                print(f"{key} {compare(contents(a[key]), contents(b[key]))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
