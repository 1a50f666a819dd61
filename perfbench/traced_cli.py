"""Run the termassoc CLI in this process with the span wrappers installed.

    python3 perfbench/traced_cli.py SPANS_JSON -- <termassoc arguments>

Exits with the CLI's own exit code after writing the spans as JSON.
"""

from __future__ import annotations

import sys

from spans import Tracer, install


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    from termassoc import cli

    with tracer.span("cli.main"):
        code = cli.main(argv[2:])
    tracer.write(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
