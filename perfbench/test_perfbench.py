"""Self-test of the benchmark: every workload at its tiny size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
from bench_workloads import DEFAULT_SEED, WORKLOADS, conformance_verdict  # noqa: E402
from repro.runtime.conformance import check_events  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The traced layers must add up to the traced run_s within this fraction.
CLOSURE_TOLERANCE = 0.10


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    from bench_workloads import PER_LAYER

    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name):
    plain = run.measure(name, DEFAULT_SEED, 0, trace=False, size="tiny")["result"]
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = run.measure(name, DEFAULT_SEED, 0, trace=True, size="tiny")["result"]
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert abs(1.0 - metrics["trace.closure"]) <= CLOSURE_TOLERANCE
    assert metrics["trace.overhead"] > 0


def test_other_seeds_are_judged_by_the_oracles_alone():
    for name in ("sim-churn", "verify-line4"):
        result = run.measure(name, DEFAULT_SEED + 1, 0, trace=False, size="tiny")["result"]
        assert result["correct"], name


@pytest.mark.parametrize("name", ["sim-churn", "verify-line4"])
def test_a_wrong_pinned_count_fails_the_workload(name, monkeypatch):
    workload = WORKLOADS[name]
    pinned = {size: [dict(unit) for unit in units] for size, units in workload.pinned.items()}
    key = "steps" if name == "sim-churn" else "transitions"
    for unit in pinned["tiny"]:
        unit[key] += 1
    monkeypatch.setattr(workload, "pinned", pinned)
    result = run.measure(name, DEFAULT_SEED, 0, trace=False, size="tiny")["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_a_dropped_delivery_fails_the_runtime_check():
    workload = WORKLOADS["runtime-fanin-lossy"]
    prepared = workload.setup(DEFAULT_SEED, 0, "tiny")
    outcome = workload.run(prepared)
    assert workload.verdict(prepared, outcome, DEFAULT_SEED, 0, "tiny").failed == 0

    events = list(outcome.events)
    dropped = next(i for i, e in enumerate(events) if e.kind == "delivered" and e.valid)
    del events[dropped]
    _, target = prepared
    verdict = conformance_verdict(check_events(events, expect_generated=target), target)
    assert verdict.failed >= 1

    tampered = dataclasses.replace(outcome, report=check_events(events, expect_generated=target))
    assert workload.verdict(prepared, tampered, DEFAULT_SEED, 0, "tiny").failed >= 1


def test_command_prints_one_json_line_and_fails_without_the_program(tmp_path):
    command = [sys.executable, "perfbench/run.py", "--workload", "sim-churn",
               "--seed", "0", "--seconds", "0", "--trace", "0", "--size", "tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bare = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert bare.returncode != 0
    assert bare.stdout == ""
