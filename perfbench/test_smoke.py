"""Smoke test of the benchmark at tiny size (about a minute in total).

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its declared
unit, that traced and untraced runs agree on counts and check results, that
traced runs repeat every count exactly, and that the benchmark refuses to run
without the library sources next to it.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result_and_record(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out" /
                         f"{workload}-seed3-trace{trace}-tiny.json").read_text())
    return result, record


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    workload = request.param
    return (workload, _result_and_record(workload, 0),
            [_result_and_record(workload, 1) for _ in range(2)])


def _check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"])


def test_every_metric_emitted_with_its_unit(runs):
    _, (untraced, _), traced = runs
    _check_metrics(untraced, BENCH["end_to_end"])
    assert all(untraced["metrics"][m["name"]]["value"] > 0 for m in BENCH["end_to_end"])
    for result, _ in traced:
        _check_metrics(result, BENCH["per_layer"])


def test_traced_and_untraced_agree(runs):
    _, (untraced, plain), traced = runs
    for result, record in traced:
        assert (result["attempted"], result["failed"], result["correct"]) == \
            (untraced["attempted"], untraced["failed"], untraced["correct"])
        assert record["checks"] == plain["checks"]
        assert record["refused"] == plain["refused"]


def test_traced_counts_repeat_exactly(runs):
    _, _, ((first, _), (second, _)) = runs
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] in ("count", "bytes")]
    assert counts
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
