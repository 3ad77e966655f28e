"""``repro serve`` with the layer wrappers of ``tracing.py`` installed.

Usage: ``python perfbench/traced_serve.py SPANS_OUT [serve flags...]``.
SIGINT stops the server as Ctrl-C does; the spans and the counts are
then written to ``SPANS_OUT``, one JSON object a line.
"""

from __future__ import annotations

import signal
import sys

import tracing


def main() -> int:
    # A parent started in the background may pass SIGINT on as ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    spans_out, flags = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer, server=True)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *flags])
    finally:
        tracer.write(spans_out)


if __name__ == "__main__":
    sys.exit(main())
