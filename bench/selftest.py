"""Self-test of the benchmark itself (not of the package).

    python3 bench/selftest.py [--workload NAME] [--seed N]

Checks that
  * BENCHMARK.json lists exactly the metrics of metrics.py, with the same
    units, directions and bounds;
  * one seed yields byte-identical input files and another seed different
    ones, for every workload;
  * two traced runs of the same seed report identical counts (every
    per-layer metric that is not a time);
  * a copy of the benchmark without the package's sources exits non-zero
    and prints no result.
Exits 0 when all hold.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import run
from metrics import END_TO_END, LAYERS

SELF_DIR = os.path.join(run.WORK_DIR, "selftest")


def check_spec() -> list[str]:
    spec = run.bench_spec()
    want_e2e = [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                for m in END_TO_END]
    want_layer = [{"name": m.name, "unit": m.unit, "better": m.better} for m in LAYERS]
    problems = []
    if spec["end_to_end"] != want_e2e:
        problems.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    if spec["per_layer"] != want_layer:
        problems.append("BENCHMARK.json per_layer differs from metrics.LAYERS")
    return problems


def _files(d: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = fh.read()
    return out


def check_inputs(workload: str, seed: int) -> list[str]:
    import workloads
    dirs = [os.path.join(SELF_DIR, name) for name in ("a", "b", "c")]
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
    for d, s in zip(dirs, (seed, seed, seed + 1)):
        workloads.build_pass(workload, s, d)
    problems = []
    if _files(dirs[0]) != _files(dirs[1]):
        problems.append(f"{workload}: seed {seed} gave different inputs twice")
    if _files(dirs[0]) == _files(dirs[2]):
        problems.append(f"{workload}: seeds {seed} and {seed + 1} gave the same inputs")
    return problems


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {m.name: metrics[m.name]["value"] for m in LAYERS
            if m.unit != "s" and m.name != "trace.overhead_ratio"}


def check_counts(workload: str, seed: int) -> list[str]:
    first, second = traced_counts(workload, seed), traced_counts(workload, seed)
    return [f"{workload}: {name} was {first[name]} then {second[name]}"
            for name in first if first[name] != second[name]]


def check_bare_copy() -> list[str]:
    """The benchmark without src/ must fail without printing a result."""
    bare = os.path.join(SELF_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "hom_corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["a copy without src/ did not fail cleanly"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    run.import_package()
    import workloads

    problems = check_spec()
    for workload in args.workload or list(workloads.WORKLOADS):
        problems += check_inputs(workload, args.seed)
        problems += check_counts(workload, args.seed)
    problems += check_bare_copy()
    shutil.rmtree(SELF_DIR, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
