"""Child processes of the benchmark; PYTHONPATH points at the checkout's src/.

    child.py setup WORKLOAD    do the workload's in-process set-up, then exit
    child.py cli ARGS...       run `logmgf ARGS...` traced; after the CLI's own
                               output, print the spans after a marker line
"""

import json
import sys
from time import perf_counter


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        import workloads

        workloads.prepare(rest[0])
        return 0
    import tracing

    t0 = perf_counter()
    from logmgf.cli import main as cli_main

    import_ms = (perf_counter() - t0) * 1e3
    tracer = tracing.Tracer()
    tracer.phase, tracer.op = "timed", 0
    with tracing.installed(tracer):
        code = tracer.call("cli.main", cli_main, (rest,), {})
    sys.stdout.write("\n" + tracing.SPANS_MARKER
                     + json.dumps({"import_ms": import_ms, "spans": tracer.spans}) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
