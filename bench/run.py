"""Benchmark entry point: one workload, one seed, one fresh measuring process.

    python3 bench/run.py --workload default --seed 1 --seconds 20 --trace 0

Generates the workload's seeded synthetic collection, writes it under
``.bench_runs/``, and runs ``worker.py`` on the written files in a child
process with BLAS pinned to one thread. ``--trace 0`` reports the
end-to-end metrics (set-up, localization, peak memory) at ``nproc``
workers; ``--trace 1`` reports the per-layer metrics of a traced
single-worker run. The full record of the run (environment, every round,
spans) goes to ``.bench_runs/records/``; the last line of standard output
is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402

# The worker is killed after this many seconds and the run fails.
WORKER_TIMEOUT = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(common.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    common.pin_blas()
    common.require_src()

    work = common.RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        manifest = common.write_workload(args.workload, args.seed, work / "collection")
        command = [sys.executable, str(common.BENCH_DIR / "worker.py"),
                   "--manifest", str(manifest), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(work / "out")]
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT,
                                  text=True)
        except subprocess.TimeoutExpired:
            print(f"error: worker did not finish within {WORKER_TIMEOUT} s", file=sys.stderr)
            return 2
        if done.returncode != 0:
            print(f"error: worker exited with {done.returncode}", file=sys.stderr)
            return 2
        record = json.loads(done.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = common.RUNS_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    for line in record["problems"] + record["failures"]:
        print(f"check: {line}", file=sys.stderr)
    print(f"environment: {json.dumps(record['environment'])}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
