"""Record the verdicts every pool document gets, into ``expected/``.

    python3 bench/record.py [--workload NAME]

Each operation a seed can pick is run once and checked independently
(``check.py``); recording stops at the first operation that fails the
check. What is stored: the four verdict kinds (with the exact type), the
input document's hash for hom workloads, and the generated vector set for
family_grid. Runs then count any difference as a failed operation, so
re-record only when the workloads themselves change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def write_expected(path: str, recorded: dict) -> None:
    """One operation per line, keys sorted, so that diffs stay readable."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    lines = [f"{json.dumps(k)}: {json.dumps(recorded[k], sort_keys=True)}"
             for k in sorted(recorded)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to record (repeatable; default all)")
    args = parser.parse_args(argv)
    run.import_package()
    import workloads
    from check import EXPECTED_DIR, Checker, expectation
    from coabelian import cli

    checker = Checker(None)
    for workload in args.workload or list(workloads.WORKLOADS):
        shutil.rmtree(run.WORK_DIR, ignore_errors=True)
        ops = workloads.pool_ops(workload, run.WORK_DIR)
        recorded = {}
        for i, op in enumerate(ops):
            res = run.run_op(cli, op)
            problems = ([res.error] if res.error is not None
                        else checker.check_op(op, res.report, res.family))
            if problems:
                print(f"{op.key}: " + "; ".join(problems), file=sys.stderr)
                return 1
            family = json.loads(res.family) if res.family is not None else None
            recorded[op.key] = expectation(op, json.loads(res.report), family)
            if (i + 1) % 100 == 0:
                print(f"{workload}: {i + 1} of {len(ops)}", flush=True)
        write_expected(os.path.join(EXPECTED_DIR, f"{workload}.json"), recorded)
        print(f"{workload}: recorded {len(recorded)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
