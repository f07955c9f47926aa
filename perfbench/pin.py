"""Write digests.json: the digest of every request's answer at this tree.

    python3 perfbench/pin.py

Run from the root of a checkout whose answers are trusted (its manifest and
test suite pass).  The pins are the benchmark's correctness gate: re-pin only
when a change is meant to alter an answer, and say so where the change is
described.  A request that raises or exits non-zero cannot be pinned.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from worker import import_rslab, run_pass

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    import_rslab(root)
    pins = {}
    for workload in workloads.WORKLOADS:
        report = run_pass(root, workload, workloads.requests(workload), traced=False)
        errors = [f"{rid}: {err}" for rid, _, _, err in report["records"] if err]
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        pins[workload] = {rid: digest for rid, _, digest, _ in report["records"]}
    (HERE / "digests.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
