"""Run one tdlab CLI command with layer tracing, as a fresh process.

Usage (from the root of a tdlab checkout):
    python3 perfbench/child.py SPANS_FILE KEY CLI_ARG...

Stdout, stderr and the exit code are the CLI's own; the spans are appended
to SPANS_FILE as JSON lines, each stamped with KEY.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from spans import Tracer  # noqa: E402  (perfbench/ is sys.path[0])


def main(argv) -> int:
    spans_file, key, cli_args = argv[0], argv[1], argv[2:]
    from tdlab import cli

    tracer = Tracer(key)
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.write(spans_file)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
