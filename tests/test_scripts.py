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
    assert "gap threshold must be > 0" in err


def test_long_trace():
    out = run_script("long_trace.py", "--days", "0.05", "--period", "60")
    fields = dict(line.split() for line in out.splitlines() if not line.startswith("#"))
    assert fields["rows"] == "72"
    assert float(fields["data_mb"]) == round(72 * 4 * 16 / 2**20, 1)
    assert float(fields["peak_rss_mb"]) >= float(fields["rss_before_mb"]) > 0
    assert float(fields["wall_s"]) >= 0
