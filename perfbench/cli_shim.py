"""Traced stand-in for ``python -m crosscap.cli``.

Usage: cli_shim.py SPANS_JSON CASE_ID -- ARGS...

Runs ``crosscap.cli.main(ARGS)`` with every public stage wrapped in spans
and exits with its exit code.  Before exiting it writes SPANS_JSON: the
``perf_counter`` readings taken after the import and after ``main``
returned, the per-stage self and inclusive times of its spans, call counts
and observed counts.  The parent compares those readings with its own
(Linux ``perf_counter`` is the system-wide monotonic clock) to split each
command into interpreter start-up and the command's own work.
"""

import json
import sys
import time

import spans

if __name__ == "__main__":
    out_path, case = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:] if sys.argv[3:4] == ["--"] else sys.argv[3:]
    from crosscap import cli

    tracer = spans.Tracer()
    tracer.case = case
    tracer.install()
    imported = time.perf_counter()
    code = 1
    try:
        root = tracer.begin("cli.main")
        try:
            code = cli.main(argv)
        finally:
            tracer.end(root)
    finally:
        ended = time.perf_counter()
        with open(out_path, "w") as fh:
            json.dump({
                "imported": imported,
                "ended": ended,
                "stages": spans.sum_by_case(tracer.spans).get(case, {}),
                "calls": tracer.calls,
                "results": tracer.results,
                "not_measured": tracer.not_measured,
            }, fh)
    sys.exit(code)
