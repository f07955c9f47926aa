"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

Run from the root of a checkout.  The file name keeps these tests out of the
repository's default pytest collection.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import rslab.cli  # noqa: E402
from rslab import holonomy, intersections  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((HERE / "digests.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_orders_a_fixed_set(workload):
    first = workloads.pass_order(workload, 1, 0)
    assert first == workloads.pass_order(workload, 1, 0)
    other = workloads.pass_order(workload, 2, 0)
    assert other != first
    assert sorted(map(workloads.request_id, other)) == sorted(map(workloads.request_id, first))
    assert len(set(map(workloads.request_id, first))) == len(first)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pins_cover_exactly_the_request_set(workload):
    ids = {workloads.request_id(r) for r in workloads.requests(workload)}
    assert set(PINS[workload]) == ids


def _wrong_sphere(real):
    return lambda n: dataclasses.replace(real(n), margin=real(n).margin + 1)


def _wrong_hodge(real):
    def hodge(manifold):
        table = [list(row) for row in real(manifold)]
        table[0][0] += 1
        return tuple(tuple(row) for row in table)

    return hodge


@pytest.mark.parametrize(
    "workload, request_, module, name, corrupt",
    [
        ("rep-cold", ["sphere", 7], holonomy, "sphere_check", _wrong_sphere),
        ("ci-tower", ["ci", 4, [3, 3]], intersections, "hodge_numbers", _wrong_hodge),
    ],
)
def test_digest_gate_catches_a_wrong_answer(monkeypatch, workload, request_, module, name, corrupt):
    request_id = workloads.request_id(request_)
    pins = PINS[workload]
    assert request_id in pins
    right = workloads.digest(workloads.execute(request_))
    assert run.gate([[request_id, 0.0, right, None]], pins) == []

    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    wrong = workloads.digest(workloads.execute(request_))
    assert len(run.gate([[request_id, 0.0, wrong, None]], pins)) == 1
    assert len(run.gate([[request_id, 0.0, None, "ValueError: boom"]], pins)) == 1


def test_traced_requests_emit_every_per_layer_metric(capsys):
    original_hodge = intersections.hodge_numbers
    active = tracer.Tracer().install()
    try:
        # from-imported copies are patched too
        assert rslab.cli.hodge_numbers is intersections.hodge_numbers is not original_hodge
        for request in (
            ["holonomy", "sp1sp", 2],
            ["tensor", "G2", [1, 0], [0, 1]],
            ["sphere", 5],
            ["ci", 4, [3, 3]],
        ):
            workloads.execute(request)
        assert rslab.cli.main(["verify-paper", "--filter", "qk", "--json"]) == 0
    finally:
        active.uninstall()
    capsys.readouterr()
    assert intersections.hodge_numbers is original_hodge
    assert rslab.cli.hodge_numbers is original_hodge

    metrics = tracer.layer_metrics(active.snapshot(), 0.0, 0)
    emitted = set(metrics) | {"trace.overhead_pct"}
    assert emitted == {m["name"] for m in BENCHMARK["per_layer"]}
    for name in (
        "exactpoly.mul.calls", "charclass.genus_spec.calls",
        "intersections.hodge_numbers.calls", "lie.weyl_dimension.calls",
        "lie.freudenthal.calls", "lie.to_dominant.calls", "lie.tensor_decompose.calls",
        "exactpoly.terms_out.mean", "lie.weight_system.size_sum",
    ):
        assert metrics[name] > 0, name
    # the qk entries build sp1sp(2) three more times and sp1sp(3) once
    assert metrics["holonomy.model_build.calls"] == 5
    assert metrics["holonomy.model_build.repeat_ratio"] == 3 / 5
    assert metrics["manifest.entries.failed"] == 0


def test_end_to_end_names_match_the_benchmark_file():
    records = [["x", 0.001 * (i + 1), "d", None] for i in range(100)]
    passes = [{"records": records, "elapsed_s": 1.0, "maxrss_kib": 2048}]
    metrics, _ = run.end_to_end("ci-tower", passes, 0.5)
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert run.tail_percentile("ci-tower") == 90.0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "ci-tower", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
