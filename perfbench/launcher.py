"""Run one arithcurves CLI invocation in this process with span tracing on.

    python3 perfbench/launcher.py SPANS_OUT VERB [ARGS...]

Used by the traced run of the cold workloads in place of
``python -m arithcurves.cli VERB [ARGS...]``: same stdout, stderr and exit
code, plus the span aggregates written to SPANS_OUT as JSON when the CLI
returns.  The checkout's ``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main() -> None:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    import arithcurves.cli as cli

    tracer = Tracer().install()
    sys.argv = ["arithcurves", *argv]
    try:
        cli.main()
    finally:
        tracer.uninstall()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    main()
