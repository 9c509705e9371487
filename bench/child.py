"""Run one hadcensus CLI command in this fresh process; print a JSON report.

    PYTHONPATH=src python3 bench/child.py '{"argv": ["pi", "--x", "100", "--q", "4", "--a", "3"], "trace": false}'

The time to import hadcensus.cli is `setup_s`; the time inside
hadcensus.cli.main(argv) is `wall_s`.  Interpreter start-up counts toward
neither.  With "trace": true the wrappers of tracer.py are installed after
the import and the report carries their summary and spans.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import platform
import resource
import sys
import traceback
from time import perf_counter


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "numpy" in line}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def environment():
    import numpy
    import scipy

    matrix = sys.modules.get("hadcensus.matrix")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "bitgram_loaded": getattr(matrix, "_bitgram", None) is not None,
        "hadcensus_file": sys.modules["hadcensus"].__file__,
    }


def main():
    spec = json.loads(sys.argv[1])
    argv = spec["argv"]
    if spec["trace"]:
        import tracer  # before the clock starts: not part of set-up

    start = perf_counter()
    import hadcensus.cli as cli

    setup_s = perf_counter() - start

    run = cli.main
    trace = None
    if spec["trace"]:
        trace = tracer.Tracer()
        tracer.install(trace)
        run = trace.span(f"cli.{argv[0]}", cli.main)

    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        error = traceback.format_exc()
    wall_s = perf_counter() - start

    report = {
        "rc": rc,
        "error": error,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    }
    if trace is not None:
        report["trace"] = {"summary": trace.summary(), "spans": trace.spans,
                           "absent": trace.absent}
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
