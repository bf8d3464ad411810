"""Quick self-test of the benchmark command; never gates on wall time.

    python3 -m pytest perfbench/selftest -q

Each workload runs one study (``--seconds 0``) in both modes; the result
line must be well formed and carry exactly the metrics, with their units,
that BENCHMARK.json declares for that mode.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "0",
                             "--seconds", "0", "--trace", str(trace)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    assert (ROOT / ".perfbench_out" / f"{workload}_seed0_trace{trace}.json").is_file()


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
