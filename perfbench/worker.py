"""Run one pass of a workload in a fresh interpreter and print it as JSON.

    python3 perfbench/worker.py --workload ci-tower --seed 7 --pass-index 0 [--trace]
    python3 perfbench/worker.py --workload ci-tower --seed 7 --setup-only

Run from the root of a checkout: rslab is imported from ./src and nowhere
else.  In-process workloads run each request here; cli-session starts one
``python -m rslab.cli`` per request (``cli_child.py`` when traced).  The
last stdout line is a JSON object with one record per request
``[request_id, latency_s, digest, error]``, the timed loop's wall time, the
peak RSS of the process that did the work, and, when traced, the pass's
per-layer metrics.  ``--setup-only`` imports rslab, builds the inputs and
exits; run.py times it as the workload's set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
TRACE_PREFIX = "perfbench-trace "


def import_rslab(root: Path):
    """Import rslab from ``root/src``; refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import rslab

    if not Path(rslab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"rslab was imported from {rslab.__file__}, not {src}")
    return rslab


def child_env(root: Path, **extra) -> dict:
    env = dict(os.environ, PYTHONPATH=str((root / "src").resolve()))
    env.update(extra)
    return env


def run_cli(root: Path, request: list, traced: bool, env: dict):
    """One CLI request as a subprocess: (stdout bytes, exit code, trace or None)."""
    argv = workloads.cli_argv(request)
    if traced:
        cmd = [sys.executable, str(HERE / "cli_child.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "rslab.cli", *argv]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=120)
    trace = None
    if traced:
        for line in proc.stderr.decode().splitlines():
            if line.startswith(TRACE_PREFIX):
                trace = json.loads(line[len(TRACE_PREFIX):])
    return proc.stdout, proc.returncode, trace


def run_pass(root: Path, workload: str, order: list, traced: bool) -> dict:
    records = []
    cli = workload == "cli-session"
    active = tracer.Tracer().install() if traced and not cli else None
    snapshots, startups, output_bytes = [], [], 0
    env = child_env(root)
    loop_start = time.perf_counter()
    for request in order:
        error = result = None
        start = time.perf_counter()
        try:
            if cli:
                stdout, code, trace = run_cli(root, request, traced, env)
            else:
                result = workloads.execute(request)
        except Exception as exc:  # a failing request is recorded, not fatal
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if cli and error is None:
            output_bytes += len(stdout)
            result = workloads.digest_bytes(stdout)
            if code != 0:
                error = f"exit code {code}"
            if traced:
                if trace is None:
                    error = error or "traced child printed no trace"
                else:
                    snapshots.append(trace["stats"])
                    startups.append(latency - trace["main_s"])
        elif error is None:
            result = workloads.digest(result)
        records.append([workloads.request_id(request), latency, result, error])
    elapsed = time.perf_counter() - loop_start

    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    report = {
        "records": records,
        "elapsed_s": elapsed,
        "maxrss_kib": resource.getrusage(who).ru_maxrss,
    }
    if active is not None:
        active.uninstall()
        snapshots.append(active.snapshot())
    if traced:
        report["layers"] = tracer.layer_metrics(
            tracer.merge(snapshots),
            statistics.median(startups) if startups else 0.0,
            output_bytes,
        )
    return report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    import_rslab(root)
    order = workloads.pass_order(args.workload, args.seed, args.pass_index)
    if args.setup_only:
        return 0
    report = run_pass(root, args.workload, order, args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
