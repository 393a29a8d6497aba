"""Run one CLI command with every layer spanned (cli-sweep traced run).

Usage: python3 bench/tracedcli.py SPANS_FILE COMMAND_ID <sdconformal args>

Behaves like ``python -m sdconformal.cli <args>`` and writes the spans of
the process to SPANS_FILE when the command ends.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import sdconformal.cli  # noqa: E402,F401  (imported first to time it alone)

IMPORT_S = time.perf_counter() - t0

import tracing  # noqa: E402


def main():
    spans, command_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    traced_main = tracing.install(tracer)
    tracer.command_id = command_id
    try:
        return traced_main(argv)
    finally:
        tracer.save(spans, {"import_s": IMPORT_S})


if __name__ == "__main__":
    sys.exit(main())
