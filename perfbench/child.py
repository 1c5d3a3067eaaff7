"""One fresh benchmark process.  run.py starts it with tautilt's ``src`` on
PYTHONPATH; it prints one JSON report on stdout.

    child.py setup ALGEBRA
        import tautilt.cli and parse ALGEBRA, nothing else.
    child.py calls PLAN [--trace]
        run ``tautilt.cli.main(argv)`` for each argv in the JSON list PLAN,
        one after another, capturing each call's stdout, stderr, exit code
        and latency.  With --trace, the per-layer tracer is installed first.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def setup(path: str) -> dict:
    from tautilt.cli import parse_algebra_file

    algebra = parse_algebra_file(path)
    return {"dimension": algebra.dim}


def calls(plan_path: str, trace: bool) -> dict:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.install()
    from tautilt import cli

    results = []
    for argv in plan:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # recorded as a failed call, the loop goes on
                traceback.print_exc()
                code = "exception"
        results.append({"argv": argv, "exit": code,
                        "seconds": time.perf_counter() - start,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    report = {"calls": results}
    if tracer is not None:
        report["trace"] = tracer.report()
    return report


def main(argv: list) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        report = setup(argv[1])
    elif argv[:1] == ["calls"] and len(argv) in (2, 3):
        report = calls(argv[1], argv[2:] == ["--trace"])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
