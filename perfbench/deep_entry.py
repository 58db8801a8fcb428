"""Traced stand-in for `python -m chevbounds.cli`.

Takes the same arguments and gives the same output and exit code, with the
benchmark's span wrappers installed around `cli.run` and the layers below it.
The span totals go to the last line of stderr.
"""

from __future__ import annotations

import json
import sys

import chevbounds.cli

import tracing
from worker import TRACE_PREFIX


def main() -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    with tracer.active():
        code = chevbounds.cli.run(sys.argv[1:])
    sys.stdout.flush()
    print(TRACE_PREFIX + json.dumps(tracer.snapshot()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
