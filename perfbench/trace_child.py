"""Run the zlattice command line under the tracer.

    python trace_child.py SPANS_OUT VERB ARGS...

Behaves like `python -m zlattice VERB ARGS...` (same stdout and exit code)
and writes the spans and counters to SPANS_OUT as JSON.
"""

import sys
from pathlib import Path

import spans
import zlattice.cli


def main() -> int:
    tracer = spans.Tracer()
    tracer.install()
    try:
        return zlattice.cli.run(sys.argv[2:])
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        tracer.dump(Path(sys.argv[1]))


if __name__ == "__main__":
    sys.exit(main())
