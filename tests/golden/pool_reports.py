"""Check (or record) the ``analyze --json`` bytes of every bench pool document.

    python tests/golden/pool_reports.py            # check, exit 1 on a mismatch
    python tests/golden/pool_reports.py --record   # rewrite pool_reports.json

Every document a benchmark seed can pick (``bench/workloads.pool_ops``, all
three workloads) is written to a temporary directory and run in-process
through ``coabelian.cli.main``, exactly as the benchmark runs it. The sha256
of each report, cut to 16 hex digits, is compared with ``pool_reports.json``
under the pool key, so a change to any report names the document it broke.
``bench/`` is only read. The package is imported from ``src/`` of this
checkout. It takes about 12 s, so it runs as its own CI step, not under
pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RECORD = os.path.join(HERE, "pool_reports.json")
WORKLOADS = ("hom_corpus", "wide_blocks", "family_grid")

sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
sys.dont_write_bytecode = True  # leave no __pycache__ under bench/

from coabelian.cli import main  # noqa: E402
from workloads import pool_ops  # noqa: E402


def report_digests() -> dict[str, str]:
    """Pool key -> 16-hex sha256 prefix of the op's last output, the report."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for op in pool_ops(workload, os.path.join(tmp, workload)):
                for argv in op.argvs:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = main(list(argv))
                    if code != 0:
                        raise SystemExit(f"{op.key}: {' '.join(argv[:2])} exited {code}")
                digests[op.key] = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
    return digests


def main_check(argv: list[str]) -> int:
    digests = report_digests()
    if argv == ["--record"]:
        with open(RECORD, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"recorded {len(digests)} reports")
        return 0
    if argv:
        print("usage: pool_reports.py [--record]", file=sys.stderr)
        return 2
    with open(RECORD, encoding="utf-8") as fh:
        want = json.load(fh)
    bad = sorted(k for k in want.keys() | digests.keys() if want.get(k) != digests.get(k))
    for key in bad:
        print(f"report changed: {key} (recorded {want.get(key)}, now {digests.get(key)})")
    print(f"{len(digests) - len(bad)} of {len(want)} recorded reports unchanged")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main_check(sys.argv[1:]))
