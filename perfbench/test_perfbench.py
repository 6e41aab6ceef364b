"""Self-test of the benchmark: every workload at a tiny size.

    python -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
import spans  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.endswith("failed, fail_ratio 0") for line in lines)
    return lines, result


def assert_metrics(lines: list[str], result: dict, listed: list[dict]) -> None:
    expected = {m["name"]: m["unit"] for m in listed}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"# {name} [{unit}]: ") for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, result = result_of(run_bench(workload, 0))
    assert_metrics(lines, result, BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_span_nesting(workload):
    lines, result = result_of(run_bench(workload, 1))
    assert_metrics(lines, result, BENCH["per_layer"])

    path = next(line.split(": ", 1)[1] for line in lines if line.startswith("# spans: "))
    records = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]
    by_id = {r["id"]: r for r in records}
    for r in records:
        if r["parent"] is None:
            assert r["name"] == spans.OPERATION
            continue
        parent = by_id[r["parent"]]
        assert parent["op"] == r["op"]
        assert parent["start"] <= r["start"] <= r["end"] <= parent["end"], r["name"]

    for op in {r["op"] for r in records}:
        op_spans = [
            spans.Span(r["id"], r["op"], r["name"], r["parent"], r["start"], 0.0, r["end"],
                       r["cpu_s"], r["counts"])
            for r in records if r["op"] == op
        ]
        m = spans.operation_metrics(op_spans)
        layer_total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
        assert layer_total == pytest.approx(m["trace.op_s"], rel=1e-9, abs=1e-9)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
