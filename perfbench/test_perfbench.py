"""Smoke tests of the benchmark itself (tiny sizes; about a minute in all).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(lines: list[str]) -> dict:
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    return doc


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_emits_every_declared_metric_with_its_unit(workload, trace):
    code, lines = _run(workload, trace)
    assert code == 0, lines[-5:]
    doc = _result(lines)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(doc["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        # each metric is also printed by name with its unit
        assert any(ln.startswith(f"{m['name']} = ") and ln.endswith(f" {m['unit']}") for ln in lines)
    if not trace:
        assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_traced_counts_repeat_exactly():
    runs = [_result(_run("sample-1d", 1)[1])["metrics"] for _ in range(2)]
    timed = {"s", "1/s"}
    counts = {k for k, v in runs[0].items() if v["unit"] not in timed and k != "trace.overhead"}
    assert {"engine.map_evals", "streams.generators", "families.map_evals", "clt.chain_steps"} <= counts
    assert {k: runs[0][k]["value"] for k in counts} == {k: runs[1][k]["value"] for k in counts}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert code != 0
    assert not any(ln.startswith("{") for ln in lines)
