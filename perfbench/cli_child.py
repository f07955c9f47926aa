"""Traced stand-in for ``python -m rslab.cli``: same argv, same stdout bytes.

    python3 perfbench/cli_child.py holonomy g2 --json

Runs rslab.cli.main under the tracer and writes the pass statistics and the
in-process time of ``main`` to stderr as one ``perfbench-trace {...}`` line.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import tracer
from worker import TRACE_PREFIX, import_rslab


def main() -> int:
    import_rslab(Path.cwd())
    import rslab.cli

    active = tracer.Tracer().install()
    start = time.perf_counter()
    try:
        code = rslab.cli.main(sys.argv[1:])
    finally:
        main_s = time.perf_counter() - start
        active.uninstall()
        sys.stdout.flush()
        payload = {"stats": active.snapshot(), "main_s": main_s}
        print(TRACE_PREFIX + json.dumps(payload), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
