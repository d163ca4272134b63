"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import items
import run
import worker

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def hc():
    return worker._import_package(HERE.parent / "src", "library")


@pytest.mark.parametrize("name", items.PRESETS)
def test_library_item_smoke_at_modulus_2(hc, name):
    """The presets-n4 and groups-n8 pipeline, at the smallest modulus."""
    out = items.run_library_item(hc, name, 2, True)
    n2 = REFERENCE["n2"][name]
    assert out["group_order"] == 48 * 2**3
    assert out["counts"] == n2["counts"]
    assert out["color_group_order"] == n2["color_group_order"]
    assert out["theorem"] and all(ok for _, ok in out["theorem"])
    assert set(out) == set(REFERENCE["workloads"]["presets-n4"][name])


@pytest.mark.parametrize("workload", items.WORKLOADS)
def test_reference_meets_the_formulas(workload):
    for item in items.WORKLOADS[workload].items:
        frozen = REFERENCE["workloads"][workload][item]
        assert items.check(workload, item, frozen, REFERENCE) == []


def test_cli_workload_smoke_pass():
    result = run.measure("cli-n2", 1, 0, False, REFERENCE)
    assert (result["attempted"], result["failed"]) == (17, 0), result["failures"]
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(result["metrics"])
    assert all(value > 0 for value in result["metrics"].values())


def test_corrupted_reference_digest_is_a_failed_item():
    reference = copy.deepcopy(REFERENCE)
    reference["workloads"]["cli-n2"]["color:rock-salt"]["files"]["rock-salt.coloring"] = "0" * 64
    result = run.measure("cli-n2", 1, 0, False, reference)
    assert result["attempted"] == 17
    assert result["failed"] == 1
    assert result["error_rate"] == 1 / 17


@pytest.mark.parametrize(
    "workload, names",
    [("presets-n4", ["nbo"]), ("cli-n2", ["color:rock-salt", "export:rock-salt", "check"])],
)
def test_tracing_leaves_outputs_byte_identical(workload, names):
    deadline = time.monotonic() + 120
    plain = run._run_pass(workload, names, False, deadline)
    traced = run._run_pass(workload, names, True, deadline)
    assert [e["outputs"] for e in traced.entries] == [e["outputs"] for e in plain.entries]
    layers = run._pass_layers(traced)
    assert layers["coloring.color_group.calls"] >= 1
    assert layers["crystal.export.bytes"] > 0
    assert layers["trace.spans"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_untraced_items_carry_a_host_speed_and_traced_ones_do_not(trace):
    child = run._run_item("cli-n2", "check", trace, time.monotonic() + 120)
    assert child["setup_speed"] > 0 and child["setup_s"] > 0
    assert child["entry"]["latency_s"] > 0
    assert (child["entry"]["speed"] is None) == trace


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-n2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
