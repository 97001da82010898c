"""Traced stand-in for ``python -m sublsq.cli``, used by the traced run.

Usage: python cli_child.py TRACE_OUT.json -- <sublsq arguments>

Runs ``sublsq.cli.main`` with the tracer installed and writes the exported
trace plus the monotonic clock reading taken once the package was
imported, so the parent can split interpreter start and import
(``cli.startup_s``) from the command itself. Exits with main's code.
"""

import json
import sys
import time

from tracer import Tracer

import sublsq.cli

imported_at = time.monotonic()


def run(argv: list[str]) -> int:
    out_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: cli_child.py TRACE_OUT.json -- <sublsq arguments>")
    tracer = Tracer()
    with tracer.installed():
        code = sublsq.cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"imported_at": imported_at, "trace": tracer.export()}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1:]))
