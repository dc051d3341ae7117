"""`python3 -m threefold.cli`, traced: the CLI entry the traced cli-cold round
starts in place of the plain one.

    python3 bench/clitrace.py <spans.json> <cli arguments...>

Times `import threefold.cli`, installs the spans, runs `cli.main` on the
arguments and writes the aggregates to <spans.json>.  An exception leaves
the process exactly as it leaves the plain CLI (traceback, exit 1).
"""

import json
import sys
import time

from spans import Tracer

start = time.monotonic()
import threefold.cli  # noqa: E402

tracer = Tracer()
tracer.add("cli.import_s", time.monotonic() - start)
tracer.install()
try:
    code = threefold.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.raw(), fh)
sys.exit(code)
