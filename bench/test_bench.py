"""Tests of the benchmark itself (about a minute): python3 -m pytest bench/"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from hostclock import NOMINAL_S, HostClock  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
PINNED = json.loads(run.DIGESTS.read_text())["reports"]


@pytest.fixture(scope="module")
def traced():
    """Every workload once, traced: one untraced and one traced pass each."""
    return {
        name: run.run_workload(name, DEFAULT_SEED, 0.01, True, PINNED) for name in WORKLOADS
    }


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric(traced, name):
    detail = traced[name]
    assert detail["failed_ops"]["failed"] == 0, detail["failed_ops"]
    line = run.contract_line(detail, SPEC)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 3
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric, entry in line["metrics"].items():
        assert entry["unit"]
        if entry["unit"] == "s":
            assert isinstance(entry["value"], float)
        else:
            assert type(entry["value"]) is int, metric
    assert detail["trace_overhead"]["ratio"] > 0


def test_traced_counts_match_the_computed_work(traced):
    layers = {name: traced[name]["metrics"] for name in WORKLOADS}
    for name, workload in WORKLOADS.items():
        work = workload.work
        assert layers[name]["approximation.translates"] == work["translates"]
        assert layers[name]["measures.box_mass_grid.calls"] == work["box_mass_grid_calls"]
    assert layers["grid-deep"]["functionals.zygmund_seminorm.pairs"] == 1 << 28
    assert layers["translate-sobolev"]["approximation.translates"] == 11_776
    assert layers["measure-verify"]["measures.box_mass_grid.calls"] == 16_384 + 256
    assert layers["tree-deep"]["approximation.truncate_jumps.calls"] == 46


def test_untraced_run_emits_every_end_to_end_metric():
    detail = run.run_workload("tree-deep", DEFAULT_SEED, 0.01, False, PINNED)
    line = run.contract_line(detail, SPEC)
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for entry in line["metrics"].values():
        assert entry["unit"] and entry["value"] > 0
    assert set(detail["commands"]) == {"distance-ibmo_s", "decompose_s"}
    assert set(detail["measured_s"]) == {"wall_s", "setup_s"}
    assert detail["host"]["passes"]["samples"] >= 3


def test_wrong_pinned_digest_is_a_failed_op():
    pinned = dict(PINNED, decompose="0" * 64)
    detail = run.run_workload("tree-deep", DEFAULT_SEED, 0.01, False, pinned)
    failed = detail["failed_ops"]
    # the fresh-process pass and every timed pass each ran decompose once
    assert failed["failed"] >= 2
    assert all(f.startswith("decompose:") for f in failed["first_failures"])
    assert run.contract_line(detail, SPEC)["correct"] is False


def test_seed_free_reports_are_pinned_at_every_seed():
    workload = WORKLOADS["measure-verify"]
    assert run.pinned_at(workload, PINNED, DEFAULT_SEED) == PINNED
    assert run.pinned_at(workload, PINNED, DEFAULT_SEED + 1) == {"verify": PINNED["verify"]}
    assert run.pinned_at(WORKLOADS["tree-deep"], PINNED, DEFAULT_SEED + 1) == {}


def test_host_clock_scales_and_subtracts_its_probes():
    clock = HostClock().start()
    try:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        clock.stop()
    assert len(clock.samples) >= 3 and 0 < clock.spent < 0.3
    assert clock.scaled(1.0, 0) == pytest.approx(NOMINAL_S / statistics.median(clock.samples))


def test_failed_invocation_without_report_is_counted():
    # `verify` exits 2 and writes no report when its suite flags an estimate
    verify = WORKLOADS["measure-verify"].invocations[-1]
    checker = run.Checker(PINNED)
    checker.check(verify, 2, b"")
    checker.check(verify, 0, b"not json")
    assert checker.attempted == 2 and len(checker.failures) == 2


def test_fails_without_result_outside_a_checkout(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tree-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
