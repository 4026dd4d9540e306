"""One CLI invocation of the program, measured from inside its process.

    python3 child.py RESULT_JSON TRACE -- CLI-ARGS...

Times the import of lmg_otoc.cli (setup) and the call of its main() on the
arguments (wall), reads the process's peak resident set, and writes these
as JSON to RESULT_JSON. With TRACE = 1 the layer functions are wrapped
after the import and the recorded spans go into the same file; with 0 the
program runs as a user would run it. The runner sets the environment: the
package on PYTHONPATH and BLAS pinned to one thread.
"""

import json
import resource
import sys
import time
import traceback


def main():
    result_path, trace, separator, *argv = sys.argv[1:]
    if separator != "--" or trace not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    from lmg_otoc import cli
    setup_s = time.perf_counter() - t0

    recorder = None
    if trace == "1":
        import tracing
        recorder = tracing.Recorder(run_id=result_path)
        tracing.install(recorder)

    t1 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:                       # reported as a failed run
        traceback.print_exc()
        code = 1
    wall_s = time.perf_counter() - t1

    result = {
        "code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        result["spans"] = recorder.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
