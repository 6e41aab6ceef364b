#!/usr/bin/env python3
"""Compare the files two checkouts write on every benchmark workload.

For each workload in CHANGE's ``perfbench/workloads.py`` and seeds 1 and 2,
this runs PARENT's and then CHANGE's set-up and one operation of the
workload, each in a child process started in its own checkout, in one fixed
absolute work directory that is emptied before each side.  The run config
holds that path, so the manifest's config hash and every other file that
names a path come out the same for the same program.  Then it compares every
file either side left in the work directory, the set-up's inputs included,
with the wall-clock fields removed as ``perfbench/checks.artifact_digest``
removes them.  An ``.npz`` file is compared by its arrays, since its zip
entries carry the time they were written: by their names, shapes and
values, and then by their dtypes, so an array stored in another dtype
with the same values is named as differing in dtype only.

It prints one line per workload and seed whose files are all identical.
Otherwise it prints on stderr one line per file that differs or is
missing on one side, in path order, or one line for a side that failed,
and then the script exits 1.  The artifact
digest ``perfbench/run.py`` prints cannot show this: its work directory's
name holds the process id, and that path enters the config hash.

Usage:
    python scripts/artifact_diff.py PARENT CHANGE
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import checks  # noqa: E402

SIDES = ("parent", "change")
SEEDS = (1, 2)
# One BLAS/OpenMP thread, as in perfbench/run.py.
THREAD_ENV = dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"), "1",
)
# Run in a checkout: without arguments, print its workload names; with a
# workload, a seed and a work directory, set the workload up there and run
# one operation.
CHILD = """import json, sys
from pathlib import Path
sys.path[:0] = [str(Path.cwd() / "src"), str(Path.cwd() / "perfbench")]
from workloads import WORKLOADS
if len(sys.argv) == 1:
    print(json.dumps(list(WORKLOADS)))
else:
    workload, seed, work = WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3])
    work.mkdir()
    workload.setup(work, seed, False)
    workload.operation(work, json.loads((work / "config.json").read_text(encoding="utf-8")))
"""


def run_child(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", CHILD, *args], cwd=checkout,
        env={**os.environ, **THREAD_ENV}, capture_output=True, text=True,
    )


def npz_arrays(path: Path) -> dict[str, np.ndarray]:
    with np.load(path) as arrays:
        return {k: arrays[k] for k in arrays.files}


def same_values(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and values: bit for bit in one dtype, by value across two."""
    if a.dtype == b.dtype:
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return np.array_equal(a, b)


def compare(paths: list[Path]) -> str | None:
    """None when the files are the same, else how they differ."""
    if paths[0].suffix == ".npz":
        first, *others = map(npz_arrays, paths)
        for arrays in others:
            if arrays.keys() != first.keys() or not all(same_values(first[k], arrays[k]) for k in first):
                return "differs"
        if any(arrays[k].dtype != first[k].dtype for arrays in others for k in first):
            return "differs in dtype only"
        return None
    return "differs" if len({checks._canonical_bytes(p) for p in paths}) > 1 else None


def differences(trees: dict[str, Path]) -> tuple[list[str], int]:
    """(every file, in path order, that differs between the trees or is in
    one only, with how; the number of files compared)."""
    files = sorted({p.relative_to(t) for t in trees.values() for p in t.rglob("*") if p.is_file()})
    found = []
    for rel in files:
        missing = [side for side, t in trees.items() if not (t / rel).is_file()]
        if missing:
            found.append(f"{rel} is missing on the {missing[0]} side")
        elif how := compare([t / rel for t in trees.values()]):
            found.append(f"{rel} {how}")
    return found, len(files)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    listing = run_child(checkouts["change"])
    if listing.returncode != 0:
        print(f"cannot list the change's workloads: {listing.stderr.strip()[-300:]}", file=sys.stderr)
        return 1
    problems = 0
    with tempfile.TemporaryDirectory(prefix="artifact_diff-") as tmp:
        work = Path(tmp) / "work"
        for name in json.loads(listing.stdout.splitlines()[-1]):
            for seed in SEEDS:
                trees, failed = {}, []
                for side, checkout in checkouts.items():
                    shutil.rmtree(work, ignore_errors=True)
                    proc = run_child(checkout, name, str(seed), str(work))
                    if proc.returncode != 0:
                        failed.append(f"{side} run failed: {proc.stderr.strip()[-300:]}")
                        continue
                    trees[side] = Path(tmp) / side
                    shutil.rmtree(trees[side], ignore_errors=True)
                    work.rename(trees[side])
                where = f"{name} seed {seed}"
                if failed:
                    problems += 1
                    print(f"{where}: " + "; ".join(failed), file=sys.stderr)
                    continue
                found, compared = differences(trees)
                problems += len(found)
                for difference in found:
                    print(f"{where}: {difference} ({compared} files)", file=sys.stderr)
                if not found:
                    print(f"{where}: {compared} files identical", flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
