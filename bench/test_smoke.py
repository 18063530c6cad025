"""Smoke test of the benchmark: every workload once, on reduced inputs.

    python3 -m pytest bench/test_smoke.py

Checks that each run ends with the result line, that every metric of
BENCHMARK.json is emitted with its unit, and that every operation either
matched its expectation or is a ``pi_oracle`` cross-check failing with the
known ``NameError``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "7", "--seconds", "0", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float))
               for m in line["metrics"].values())

    record = json.loads((ROOT / "bench" / "_runs" /
                         f"{workload}-seed7-trace{trace}" / "run.json")
                        .read_text(encoding="utf-8"))
    assert record["digests_stable"]
    for p in record["pass_records"]:
        for op in p["ops"]:
            assert op["verdict_ok"] or (
                op["name"].startswith("pi_oracle")
                and op["error"]["type"] == "NameError"), op


def test_refuses_to_run_without_sources(tmp_path):
    for path in ("BENCHMARK.json", *(str(p.relative_to(ROOT)) for p in
                                     (ROOT / "bench").glob("*.py"))):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_bytes((ROOT / path).read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
