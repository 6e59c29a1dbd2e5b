"""Run one `mcrx` command with every traced hook installed.

    PYTHONPATH=src python3 bench/launcher.py SPANS.json -- build --corpus ...

The command runs through `mcrx.cli.main(argv)` under a root span
`cli.main`; the spans are written to SPANS.json when it returns, and the
process exits with the command's own exit code.
"""

from __future__ import annotations

import sys

from benchtrace import Tracer, traced


def main() -> int:
    spans_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: launcher.py SPANS.json -- MCRX-ARGS...")
    import mcrx.cli

    tracer = Tracer()
    tracer.op = 0
    try:
        with traced(tracer):
            return tracer.wrap("cli.main", mcrx.cli.main)(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
