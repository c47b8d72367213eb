"""Run one catwords CLI operation in this fresh interpreter.

Usage: python3 -I child.py RESULT_PATH MODE [CLI ARGS...]

MODE is `setup` (import only), `0` (timed operation) or `1` (timed
operation with the tracer installed).  The CLI writes to this process's
stdout as it would for a user.  The reference computation is timed
before and after the operation (once in `setup` mode).  Timings and, when
traced, the trace go to RESULT_PATH as JSON.  Times are CLOCK_MONOTONIC readings (Python's
perf_counter on Linux), so the parent can compare them with its own.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import catwords.cli  # noqa: E402  (the import is what set-up time measures)

T_IMPORTED = time.perf_counter()


def reference() -> float:
    """Seconds taken by a fixed pure-Python computation that uses no catwords
    code: an integer loop and small function calls.  The parent divides
    operation times by its median, which cancels most of the drift in
    machine speed that a shared host shows from one minute to the next."""

    def f(n, m):
        return n * m % 11

    t0 = time.perf_counter()
    s = 0
    for i in range(800_000):
        s += i * i % 7
    for i in range(270_000):
        s += f(i, 3)
    return time.perf_counter() - t0


def main() -> None:
    import json
    import resource
    import traceback

    result_path, mode, *argv = sys.argv[1:]
    result = {"t_imported": T_IMPORTED, "ref_s": [reference()]}
    if mode != "setup":
        tracer = None
        if mode == "1":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(catwords)

        def op():
            try:
                rc = catwords.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
            sys.stdout.flush()
            return rc

        if tracer is not None:
            op = tracer.wrap(op, "cli.main", "cli")
        t0 = time.perf_counter()
        try:
            rc = op()
        except Exception:  # a crash is a failed operation, reported as such
            traceback.print_exc()
            rc = "exception"
        t1 = time.perf_counter()
        result.update(
            rc=rc,
            op_s=t1 - t0,
            rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        result["ref_s"].append(reference())
        if tracer is not None:
            result["trace"] = tracer.report()
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
