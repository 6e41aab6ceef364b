"""Smoke tests: each script in scripts/ runs to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

from nilmbench.io import save_dataset_dir
from nilmbench.synth import default_benchmark_spec, generate

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, returncode=0):
    """The script's stdout, or its stderr when ``returncode`` is not 0."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == returncode, proc.stderr
    return proc.stdout if returncode == 0 else proc.stderr


def test_seed_sweep():
    assert "FHMM at or below CO on" in run_script("seed_sweep.py", "--seeds", "1")


def test_seed_sweep_zero_seeds_is_usage_error():
    err = run_script("seed_sweep.py", "--seeds", "0", returncode=2)
    assert "argument --seeds: must be >= 1, got 0" in err


def test_run_default_benchmark(tmp_path):
    out = tmp_path / "out"
    assert "fhmm" in run_script("run_default_benchmark.py", "--output", str(out))
    assert (out / "metrics.csv").is_file()


def test_dataset_report(tmp_path):
    ds, _ = generate(default_benchmark_spec(seed=3))
    save_dataset_dir(ds, tmp_path / "data")
    assert "top 5 appliances" in run_script("dataset_report.py", str(tmp_path / "data"))


def test_dataset_report_invalid_gap_threshold_is_usage_error(tmp_path):
    err = run_script("dataset_report.py", str(tmp_path), "--gap-threshold", "0", returncode=2)
    assert "gap threshold must be finite and > 0" in err


def test_dataset_report_top_k_zero_is_usage_error(tmp_path):
    err = run_script("dataset_report.py", str(tmp_path), "--top-k", "0", returncode=2)
    assert "--top-k" in err and "must be >= 1" in err


def test_long_trace():
    out = run_script("long_trace.py", "--days", "0.05", "--period", "60")
    fields = dict(line.split() for line in out.splitlines() if not line.startswith("#"))
    assert fields["rows"] == "72"
    assert float(fields["data_mb"]) == round(72 * 4 * 16 / 2**20, 1)
    assert float(fields["peak_rss_mb"]) >= float(fields["rss_before_mb"]) > 0
    # Three two-state appliances (S = 8) over the 36-row test half: 288 bytes.
    assert fields["fhmm_backpointer_mb"] == f"{36 * 8 / 2**20:.4g}" == "0.0002747"
    # A second decode of those 36 rows holds at least their (3, 36) uint8
    # states and a window of their codes, and step buffers sized to the 36
    # rows, not to a full emission chunk of 8192.
    assert 36 * (3 + 8) / 2**20 <= float(fields["fhmm_decode_peak_mb"]) < 0.05
    assert float(fields["wall_s"]) >= 0


STUB_RUN = """import json, os, sys
from pathlib import Path
with open({log!r}, "a", encoding="utf-8") as f:
    f.write(Path.cwd().name + " " + " ".join(sys.argv[1:]) + "\\n")
result = {result!r}
pad = len(os.environ.get("BENCH_PAIRS_PAD", ""))
for m in result["metrics"].values():
    m["value"] += pad / 1000
print("# information")
print(json.dumps(result))
"""


def stub_checkout(root, log, correct=True, failed=0, **values):
    """A checkout whose ``perfbench/run.py`` logs its directory and arguments
    to ``log`` and prints a result line with the metrics ``values``, each
    raised by a thousandth per byte of the ``BENCH_PAIRS_PAD`` padding."""
    result = {
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()},
    }
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN.format(log=str(log), result=result))
    return str(root)


def test_bench_pairs(tmp_path):
    log = tmp_path / "runs.log"
    parent = stub_checkout(tmp_path / "parent", log, run_s=0.3, cpu_s=0.25)
    change = stub_checkout(tmp_path / "change", log, run_s=0.2, cpu_s=0.25)
    out = run_script("bench_pairs.py", parent, change, "--workload", "w", "--pairs", "3",
                     "--seed", "7", "--seconds", "2")
    runs = log.read_text().splitlines()
    assert [r.split()[0] for r in runs] == ["parent", "change", "change", "parent", "parent", "change"]
    assert set(r.split(" ", 1)[1] for r in runs) == {
        "--workload w --seed 7 --seconds 2.0 --trace 0"
    }
    rows = {line.split()[0]: line.split() for line in out.splitlines() if not line.startswith("#")}
    assert rows["run_s"][1:] == ["0.3", "[0.3,", "0.3]", "0.2", "[0.2,", "0.2]", "3/3"]
    assert rows["cpu_s"][-1] == "0/3"
    pairs = [line for line in out.splitlines() if line.startswith("pair ")]
    assert pairs == [
        f"pair {i}  {first} first  run_s 0.3 0.2  cpu_s 0.25 0.25"
        for i, first in ((1, "parent"), (2, "change"), (3, "parent"))
    ]


def test_bench_pairs_names_failed_runs(tmp_path):
    log = tmp_path / "runs.log"
    parent = stub_checkout(tmp_path / "parent", log, run_s=0.3)
    change = stub_checkout(tmp_path / "change", log, correct=False, failed=2, run_s=0.2)
    (tmp_path / "broken" / "perfbench").mkdir(parents=True)
    (tmp_path / "broken" / "perfbench" / "run.py").write_text("import sys; sys.exit('no inputs')\n")
    assert "problem: change run of pair 2: correct False, 2 of 10 failed" in run_script(
        "bench_pairs.py", parent, change, "--workload", "w", "--pairs", "2", returncode=1
    )
    # The table still prints with one side holding no result.
    err = run_script("bench_pairs.py", parent, str(tmp_path / "broken"), "--workload", "w",
                     "--pairs", "1", returncode=1)
    assert "problem: change run of pair 1: exit 1: no inputs" in err


def test_bench_pairs_pads(tmp_path):
    log = tmp_path / "runs.log"
    parent = stub_checkout(tmp_path / "parent", log, run_s=0.5)
    change = stub_checkout(tmp_path / "change", log, run_s=0.25)
    out = run_script("bench_pairs.py", parent, change, "--workload", "w", "--pairs", "2",
                     "--pad", "0,100,300")
    # Each pair runs each side once per padding, parent first in pair 1.
    assert [r.split()[0] for r in log.read_text().splitlines()] == (
        ["parent", "change"] * 3 + ["change", "parent"] * 3
    )
    # Over all six runs a side: parent 0.5, 0.6 and 0.8 twice each, change
    # 0.25, 0.35 and 0.55.
    row = next(line for line in out.splitlines() if line.startswith("run_s"))
    assert row.split()[1:7] == ["0.6", "[0.525,", "0.75]", "0.35", "[0.275,", "0.5]"]
    assert row.endswith("6/6 (pad 0: 2/2, pad 100: 2/2, pad 300: 2/2)")
    pairs = [line for line in out.splitlines() if line.startswith("pair ")]
    assert pairs[1] == "pair 1  parent first  pad 100  run_s 0.6 0.35"
    assert pairs[5] == "pair 2  change first  pad 300  run_s 0.8 0.55"


def test_bench_pairs_workloads(tmp_path):
    log = tmp_path / "runs.log"
    parent = stub_checkout(tmp_path / "parent", log, run_s=0.3)
    change = stub_checkout(tmp_path / "change", log, run_s=0.2)
    out = run_script("bench_pairs.py", parent, change, "--workload", "a,b", "--pairs", "2")
    # Every workload of a pair runs its sides in the pair's order.
    runs = [r.split()[:3:2] for r in log.read_text().splitlines()]
    assert runs == [
        ["parent", "a"], ["change", "a"], ["parent", "b"], ["change", "b"],
        ["change", "a"], ["parent", "a"], ["change", "b"], ["parent", "b"],
    ]
    rows = {line.split()[0]: line.split() for line in out.splitlines() if not line.startswith("#")}
    for name in ("a/run_s", "b/run_s"):
        assert rows[name][1:] == ["0.3", "[0.3,", "0.3]", "0.2", "[0.2,", "0.2]", "2/2"]
    pairs = [line for line in out.splitlines() if line.startswith("pair ")]
    assert pairs[1] == "pair 2  change first  a/run_s 0.3 0.2  b/run_s 0.3 0.2"
    err = run_script("bench_pairs.py", parent, change, "--workload", "a,", "--pairs", "1",
                     returncode=2)
    assert "--workload" in err


def test_bench_pairs_pad_is_checked(tmp_path):
    for pad in ("0,x", "-1"):
        err = run_script("bench_pairs.py", str(tmp_path), str(tmp_path), "--workload", "w",
                         "--pairs", "1", "--pad", pad, returncode=2)
        assert "--pad" in err


STUB_WORKLOADS = """import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np


def setup(work, seed, tiny):
    (work / "config.json").write_text(json.dumps({{"seed": seed, "output": str(work / "out")}}))
    np.savez(work / "truth.npz", states=np.arange(seed + 3, dtype={truth_dtype!r}) + {truth_offset!r})


def operation(work, raw):
    if {fail!r}:
        raise SystemExit("no inputs")
    out = Path(raw["output"])
    out.mkdir()
    timings = {{"train_seconds": {seconds!r}, "disaggregate_seconds": 0.1}}
    (out / "metrics_co.json").write_text(json.dumps({{"building": {{"fte": 0.5, **timings}}}}))
    (out / "metrics.csv").write_text(
        "appliance,metric,algorithm,value\\n"
        "fridge,NEP,co,{nep!r}\\n"
        "(building),Train time (s),co,{seconds!r}\\n"
    )
    power = {seed_2_power!r} if raw["seed"] == 2 else 1.0
    (out / "predictions.csv").write_text(f"timestamp,power_active\\n0,{{power}}\\n")


WORKLOADS = {{name: SimpleNamespace(setup=setup, operation=operation) for name in ("a", "b")}}
"""


def workloads_checkout(root, seconds, nep=0.25, seed_2_power=1.0, fail=False, truth_dtype="int64", truth_offset=0):
    """A checkout whose two workloads ``a`` and ``b`` write a config naming
    their work directory, an ``.npz`` of ``truth_dtype`` whose values start
    at ``truth_offset``, and reports whose timing fields hold ``seconds``;
    ``nep`` is a metric, ``seed_2_power`` a prediction at seed 2."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "workloads.py").write_text(
        STUB_WORKLOADS.format(
            seconds=seconds, nep=nep, seed_2_power=seed_2_power, fail=fail,
            truth_dtype=truth_dtype, truth_offset=truth_offset,
        )
    )
    return str(root)


def test_artifact_diff_ignores_timings(tmp_path):
    # The config names the work directory, so the two sides agree only if
    # they ran in the same one.
    out = run_script("artifact_diff.py", workloads_checkout(tmp_path / "parent", 1.25),
                     workloads_checkout(tmp_path / "change", 0.5))
    assert out.splitlines() == [
        f"{w} seed {s}: 5 files identical" for w in ("a", "b") for s in (1, 2)
    ]


def test_artifact_diff_names_the_first_difference(tmp_path):
    parent = workloads_checkout(tmp_path / "parent", 1.25)
    err = run_script("artifact_diff.py", parent,
                     workloads_checkout(tmp_path / "change", 1.25, seed_2_power=2.0), returncode=1)
    assert err.splitlines() == [
        f"{w} seed 2: out/predictions.csv differs (5 files)" for w in ("a", "b")
    ]
    err = run_script("artifact_diff.py", parent,
                     workloads_checkout(tmp_path / "metric", 1.25, nep=0.5), returncode=1)
    assert err.splitlines()[0] == "a seed 1: out/metrics.csv differs (5 files)"
    err = run_script("artifact_diff.py", parent,
                     workloads_checkout(tmp_path / "broken", 1.25, fail=True), returncode=1)
    assert err.splitlines()[0] == "a seed 1: change run failed: no inputs"


def test_artifact_diff_lists_every_difference(tmp_path):
    # The truth array holds the same values in another dtype, which is
    # named as such, and every differing file is listed, not only the first.
    parent = workloads_checkout(tmp_path / "parent", 1.25)
    change = workloads_checkout(tmp_path / "change", 1.25, nep=0.5, seed_2_power=2.0, truth_dtype="uint8")
    err = run_script("artifact_diff.py", parent, change, returncode=1)
    assert err.splitlines() == [
        f"{w} seed {s}: {line} (5 files)"
        for w in ("a", "b") for s in (1, 2)
        for line in ["out/metrics.csv differs"]
        + ["out/predictions.csv differs"] * (s == 2)
        + ["truth.npz differs in dtype only"]
    ]


def test_artifact_diff_compares_npz_values_across_dtypes(tmp_path):
    # Values that differ are a difference whether or not the dtype does too.
    parent = workloads_checkout(tmp_path / "parent", 1.25)
    for name, dtype in (("same", "int64"), ("other", "uint8")):
        change = workloads_checkout(tmp_path / name, 1.25, truth_dtype=dtype, truth_offset=1)
        err = run_script("artifact_diff.py", parent, change, returncode=1)
        assert err.splitlines() == [f"{w} seed {s}: truth.npz differs (5 files)" for w in ("a", "b") for s in (1, 2)]
