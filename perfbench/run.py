"""rslab benchmark: three seeded workloads, every answer checked against a pin.

    python3 perfbench/run.py --workload rep-cold --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; rslab is imported from ./src only,
and the run fails (non-zero exit, no result) when that tree is missing.

Workloads (closed loop, one client, no extra threads; see workloads.py):
  rep-cold     every holonomy model, Sigma_3/2 and parallel counts, plus
               Klimyk tensor pairs and sphere checks; each pass runs in a
               fresh interpreter and no input repeats inside one.
  ci-tower     complete intersections X_n(d_1..d_r), n = 2..16, r = 1..3:
               invariants, Hodge tables, series signature, kernel report.
  cli-session  one ``python -m rslab.cli ... --json`` subprocess per request.

A run measures whole passes over the workload's request set, in the order
``--seed`` gives, until another pass would end after ``--seconds``.  Every
output is hashed and compared with ``digests.json``; a mismatch, a raised
error or a non-zero exit is a failed request.  cli-session also replays a
seeded sample of README commands under two PYTHONHASHSEED values, which must
give identical bytes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` one untraced pass is followed by traced passes, and it
carries the per-layer metrics (medians over traced passes) and the tracing
overhead.  The lines before it print the same numbers for a reader.

Alongside: workloads.py (request sets, canonical output), worker.py (one
pass in a fresh interpreter), tracer.py and cli_child.py (per-layer spans),
digests.json and pin.py (the pinned answers), record.json (why, predictions,
baseline), selftest.py (``python3 -m pytest perfbench/selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import child_env, run_cli  # noqa: E402

SETUP_REPEATS = 11
HASH_SEEDS = ("0", "4242")
HASH_SAMPLE = 3
WORKER_TIMEOUT_S = 150
# Passes a run always makes.  With them every run holds enough samples for
# its tail percentile, so the percentile does not move when a faster
# program fits more passes into the same seconds.
MIN_PASSES = {"rep-cold": 1, "ci-tower": 1, "cli-session": 2}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def tail_percentile(workload: str) -> float:
    """Highest ladder percentile with ten samples beyond it in every run."""
    guaranteed = MIN_PASSES[workload] * len(workloads.requests(workload))
    for pct in TAIL_LADDER:
        if guaranteed * (100 - pct) / 100 >= 10:
            return pct
    raise BenchError(f"{workload} runs hold too few requests for a tail")


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    k = (len(xs) - 1) * pct / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def spawn_worker(root: Path, workload: str, seed: int, *flags: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(flags)} ran past {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(flags)} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def measure_setup(root: Path, workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter importing rslab and building inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        spawn_worker(root, workload, seed, "--setup-only")
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_passes(root: Path, workload: str, seed: int, seconds: float, traced: bool) -> list:
    """Whole passes until another would end after ``seconds``.

    When traced, pass 0 runs untraced, as the overhead reference.
    """
    passes = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        flags = ["--pass-index", str(index)]
        if traced and index > 0:
            flags.append("--trace")
        proc = spawn_worker(root, workload, seed, *flags)
        passes.append(json.loads(proc.stdout.splitlines()[-1]))
        elapsed = time.perf_counter() - start
        enough = len(passes) >= MIN_PASSES[workload] + (1 if traced else 0)
        if enough and elapsed + elapsed / len(passes) > seconds:
            return passes


def gate(records, pins: dict) -> list:
    """Records whose request raised, exited non-zero or answered off-pin."""
    bad = []
    for request_id, _, digest, error in records:
        if error is not None:
            bad.append(f"{request_id}: {error}")
        elif pins.get(request_id) != digest:
            bad.append(f"{request_id}: digest {digest} is not the pinned {pins.get(request_id)}")
    return bad


def hash_seed_replay(root: Path, seed: int, pins: dict) -> tuple:
    """Replay README commands under two hash seeds; (attempted, failures)."""
    sample = random.Random(seed).sample(list(workloads.README_COMMANDS), HASH_SAMPLE)
    failures = []
    for command in sample:
        request = ["cli", command]
        runs = [
            run_cli(root, request, False, child_env(root, PYTHONHASHSEED=hash_seed))
            for hash_seed in HASH_SEEDS
        ]
        digests = {workloads.digest_bytes(stdout) for stdout, _, _ in runs}
        if len(digests) != 1 or any(code != 0 for _, code, _ in runs):
            failures.append(f"{command}: bytes or exit code differ across PYTHONHASHSEED {HASH_SEEDS}")
        elif digests != {pins[workloads.request_id(request)]}:
            failures.append(f"{command}: output is not the pinned one")
    return len(sample), failures


def end_to_end(workload: str, passes: list, setup_s: float) -> tuple:
    """(metric -> value, metric -> note) over the given passes."""
    latencies_ms = [r[1] * 1000 for p in passes for r in p["records"]]
    pct = tail_percentile(workload)
    tail = percentile(latencies_ms, pct)
    metrics = {
        "throughput_rps": len(latencies_ms) / sum(p["elapsed_s"] for p in passes),
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_tail_ms": tail,
        "setup_s": setup_s,
        "peak_rss_mib": statistics.median(p["maxrss_kib"] for p in passes) / 1024,
    }
    notes = {
        "latency_p50_ms": f"n={len(latencies_ms)}",
        "latency_tail_ms": f"p{pct:g}, n={len(latencies_ms)}, "
        f"{sum(1 for x in latencies_ms if x > tail)} beyond",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
        "peak_rss_mib": "median over passes"
        + (", largest child" if workload == "cli-session" else ""),
    }
    return metrics, notes


def per_layer(traced_passes: list, untraced_elapsed: float) -> dict:
    """Median of each per-layer metric over traced passes, plus the overhead."""
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced_passes)
        for name in traced_passes[0]["layers"]
    }
    traced_elapsed = statistics.median(p["elapsed_s"] for p in traced_passes)
    metrics["trace.overhead_pct"] = 100 * (traced_elapsed / untraced_elapsed - 1)
    return metrics


def src_line_count(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rslab" / "__init__.py").is_file():
        raise BenchError(f"no rslab source tree under {root / 'src'}; run from a checkout root")
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    pins = json.loads((HERE / "digests.json").read_text())[args.workload]
    expected = {workloads.request_id(r) for r in workloads.requests(args.workload)}
    if set(pins) != expected:
        raise BenchError("digests.json does not pin exactly this workload's requests")

    setup_s = measure_setup(root, args.workload, args.seed)
    passes = run_passes(root, args.workload, args.seed, args.seconds, bool(args.trace))
    records = [r for p in passes for r in p["records"]]
    failures = gate(records, pins)
    attempted = len(records)
    if args.workload == "cli-session":
        replays, replay_failures = hash_seed_replay(root, args.seed, pins)
        attempted += replays
        failures += replay_failures

    # a traced run shows the end-to-end numbers of its untraced pass
    e2e, notes = end_to_end(args.workload, passes[:1] if args.trace else passes, setup_s)
    shown = dict(e2e)
    if args.trace:
        layers = per_layer(passes[1:], passes[0]["elapsed_s"])
        shown.update(layers)
        notes["trace.overhead_pct"] = "traced pass time over the untraced pass"
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"({'1 untraced + traced' if args.trace else 'untraced'}), "
          f"{attempted} requests, {len(failures)} failed; src lines {src_line_count(root)}")
    for name, value in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:14.6g} {units[name]}{note}")
    print(f"  {'fail_ratio':40s} {len(failures) / attempted:14.6g} ratio  ({len(failures)}/{attempted})")
    for failure in failures:
        print(f"  FAILED {failure}")

    reported = layers if args.trace else e2e
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    if set(reported) != {m["name"] for m in declared}:
        raise BenchError("the metrics measured are not the ones BENCHMARK.json declares")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
