"""Run one axkatz CLI command with the layer tracer installed.

Usage: python traced_cli.py TRACE_FILE COMMAND [ARGS...]

Behaves like ``python -m axkatz.cli COMMAND [ARGS...]`` (same stdout, same
exit code) and writes the tracer's per-layer snapshot to TRACE_FILE, so the
benchmark can attribute the time of a one-shot CLI process to its layers.
Import happens before tracing starts; the import layer is measured apart.
"""

import json
import sys

import axkatz.cli

from layers import Tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.recording = True
    try:
        code = axkatz.cli.main(argv)
    finally:
        tracer.recording = False
        tracer.uninstall()
        sys.stdout.flush()
        with open(trace_file, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
