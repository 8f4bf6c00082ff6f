"""Run the covpovm command line in this process, traced or not.

    python3 bench/cli_launcher.py TRACE_OUT ARGS...

With TRACE_OUT ``-`` this is ``covpovm ARGS...``.  Otherwise the per-layer
wrappers are installed before ``cli.main`` runs, and the collected counts,
self times and spans are written to TRACE_OUT as JSON when it returns.
"""

import json
import sys


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    from covpovm import cli

    if trace_out == "-":
        return cli.main(argv)
    import tracing

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracing.uninstall(undo)
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
