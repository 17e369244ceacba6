"""Run one ramtower command with span tracing installed.

    PERFBENCH_TRACE_OUT=spans.json PYTHONPATH=src python perfbench/traced_cli.py ARGS...

behaves like `python -m ramtower.cli ARGS...` (same stdout, files and exit
code) and also writes the span summary of the call, including the import
of ramtower.cli, to the file named by PERFBENCH_TRACE_OUT.
"""

import json
import os
import sys
import time

import spans

if __name__ == "__main__":
    tracer = spans.Tracer()
    start = time.perf_counter_ns()
    import ramtower.cli

    tracer.spans.append(["cli.import", -1, start, time.perf_counter_ns()])
    spans.install(tracer)
    try:
        code = tracer.wrap("cli.main", ramtower.cli.main)(sys.argv[1:])
    finally:
        spans.uninstall(tracer)
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    sys.exit(code)
