"""Benchmark for the coabelian package: one workload per run.

    python3 bench/run.py --workload hom_corpus --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 40

A run generates its input documents from the seed, drives the package through
``coabelian.cli.main([...])`` in-process with its output captured (one
process, one thread, a closed loop with one client), then checks every
output independently (``check.py``). The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0  runs passes over the operations until --seconds have gone by,
           stopping at the deadline, and reports the end-to-end metrics;
           the set-up is repeated during the passes, off their clock.
--trace 1  runs one untraced and one traced pass and reports the per-layer
           metrics; the spans are written to bench/out/.
--all      runs every workload both ways, each in its own process, and prints
           every metric.

The package is imported from ``src/`` next to this directory; without it the
run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, "work")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 8  # set-up repeats per pass
TAIL_ABOVE = 10  # operations a pass must leave above the tail percentile


def import_package():
    """Import coabelian from src/ next to the benchmark, never from
    anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "coabelian", "__init__.py")):
        sys.exit(f"error: no coabelian package under {SRC}")
    sys.path.insert(0, SRC)
    import coabelian
    if os.path.dirname(os.path.dirname(os.path.abspath(coabelian.__file__))) != SRC:
        sys.exit(f"error: coabelian imported from {coabelian.__file__}, not {SRC}")
    return coabelian


# --- running operations -------------------------------------------------------

class OpResult:
    __slots__ = ("op", "latency", "report", "family", "error")

    def __init__(self, op, latency, report, family, error):
        self.op, self.latency, self.report, self.family, self.error = (
            op, latency, report, family, error)


def run_op(cli, op) -> OpResult:
    """Run one operation's CLI calls; time them together."""
    out = ""
    error = None
    t0 = time.perf_counter()
    try:
        for argv in op.argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
            if code != 0:
                error = f"{argv[0]} exited {code}"
                break
            out = buf.getvalue()
    except Exception as exc:  # an operation that raises is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    family = None
    if error is None and op.argvs[0][0] == "generate":
        with open(op.argvs[0][-1], encoding="utf-8") as fh:
            family = fh.read()
    return OpResult(op, latency, out, family, error)


def run_pass(cli, ops, tracer=None) -> list[OpResult]:
    results = []
    for i, op in enumerate(ops):
        if tracer is None:
            results.append(run_op(cli, op))
        else:
            results.append(tracer.run_op(i, run_op, cli, op))
    return results


# --- metrics -------------------------------------------------------------------

def tail_percentile(per_pass: int) -> int:
    """Highest integer percentile leaving at least TAIL_ABOVE of a pass's
    operations above it (nearest-rank)."""
    for p in range(99, 0, -1):
        if per_pass - math.ceil(p * per_pass / 100) >= TAIL_ABOVE:
            return p
    return 50


def nearest_rank(sorted_values, p: int):
    return sorted_values[max(0, math.ceil(p * len(sorted_values) / 100) - 1)]


def timed_setup(workloads, workload: str, seed: int, directory: str):
    """Generate and write one pass's inputs into an empty directory; return
    the operations and the seconds it took."""
    shutil.rmtree(directory, ignore_errors=True)
    t0 = time.perf_counter()
    ops = workloads.build_pass(workload, seed, directory)
    return ops, time.perf_counter() - t0


def run_untraced(args, cli, workloads, checker):
    """Passes over the operations until --seconds have gone by; the last
    pass stops at the deadline. The set-up is repeated at SETUP_REPEATS
    points spread over each pass, into a directory of its own and off the
    pass clock: on a shared host the CPU can run at very different speeds
    for seconds at a time, and a set-up this short would otherwise measure
    only the moment it ran in."""
    ops, first = timed_setup(workloads, args.workload, args.seed, WORK_DIR)
    setup_times = [first]
    every = max(1, len(ops) // SETUP_REPEATS)
    repeat_dir = os.path.join(WORK_DIR, "setup-repeat")
    results = []
    off_clock = 0.0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 - off_clock < args.seconds:
        op = ops[len(results) % len(ops)]
        results.append(run_op(cli, op))
        if len(results) % every == 0:
            t1 = time.perf_counter()
            setup_times.append(timed_setup(workloads, args.workload, args.seed,
                                           repeat_dir)[1])
            off_clock += time.perf_counter() - t1
    elapsed = time.perf_counter() - t0 - off_clock
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, decided, lines = checker.check_results(results)

    lat = sorted(r.latency for r in results)
    p = tail_percentile(len(ops))
    attempted = len(results)
    above = attempted - math.ceil(p * attempted / 100)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": attempted / elapsed,
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_tail_ms": nearest_rank(lat, p) * 1000,
        "ok_ratio": (attempted - failed) / attempted,
        "decided_ratio": decided / (4 * attempted),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"{args.workload} seed {args.seed}: {attempted} operations, "
          f"{attempted / len(ops):.2f} passes of {len(ops)}, {elapsed:.2f} s; "
          f"{len(setup_times)} set-ups")
    print(f"op_tail_ms is p{p}: {above} of {attempted} operations above it")
    print(f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted})")
    for line in lines:
        print(line)
    return attempted, failed, metrics


def run_traced(args, cli, workloads, checker, coabelian):
    from metrics import GROUPS, layer_values
    from spans import Tracer

    ops, _ = timed_setup(workloads, args.workload, args.seed, WORK_DIR)
    t0 = time.perf_counter()
    plain = run_pass(cli, ops)
    plain_s = time.perf_counter() - t0

    layers = ("intmatrix", "lattice", "model", "analyzer", "forge", "oracle", "cli")
    modules = [importlib.import_module(f"coabelian.{m}") for m in layers]
    tracer = Tracer([coabelian, *modules])
    tracer.install(modules)
    try:
        t0 = time.perf_counter()
        traced = run_pass(cli, ops, tracer)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-s{args.seed}.bin"))

    t0 = time.perf_counter()
    failed, _, lines = checker.check_results(plain + traced)
    check_s = time.perf_counter() - t0

    values = layer_values(tracer.summarize(GROUPS), tracer, check_s, plain_s / traced_s)
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations, untraced "
          f"{plain_s:.2f} s, traced {traced_s:.2f} s, {len(tracer.start)} spans")
    print(f"subdirectness checked by the oracle on {checker.vsp_checked} homs, "
          f"skipped on {checker.vsp_skipped} (entries or width beyond its bounds)")
    for line in lines:
        print(line)
    return len(plain) + len(traced), failed, values


# --- entry points -------------------------------------------------------------

def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_one(args) -> int:
    coabelian = import_package()
    sys.path.insert(0, HERE)
    import workloads
    from check import Checker, load_expected
    from coabelian import cli

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}")
    checker = Checker(load_expected(args.workload))
    spec = bench_spec()
    if args.trace:
        attempted, failed, values = run_traced(args, cli, workloads, checker, coabelian)
        wanted = spec["per_layer"]
    else:
        attempted, failed, values = run_untraced(args, cli, workloads, checker)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each run in its own process."""
    spec = bench_spec()
    table = {}
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            table.setdefault(w["name"], {}).update(
                {k: v["value"] for k, v in result["metrics"].items()})
    names = [w["name"] for w in spec["workloads"]]
    print(f"\n{'metric':34s}{'unit':>7s}" + "".join(f"{n:>16s}" for n in names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        print(f"{m['name']:34s}{m['unit']:>7s}"
              + "".join(f"{table[n][m['name']]:>16.6g}" for n in names))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "correct": ok,
                       "python": sys.version.split()[0], "metrics": table},
                      fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-out", help="with --all: also write the table as JSON")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
