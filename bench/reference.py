"""Regenerate a workload's reference outputs with the program of any tree.

    python3 bench/reference.py --tree PATH --workload default --seed 1 --out DIR

Writes the workload's collection with this checkout's generator (so every
tree sees the same input bytes) to ``DIR/collection``, then runs that
tree's ``tubeloc run`` on it at ``nproc`` workers, BLAS pinned to one
thread, into ``DIR/results``. Diff two such directories with
``compare.py``; nothing is stored, so no reference copy can go stale.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tree", type=Path, required=True,
                        help="root of the source tree whose program runs")
    parser.add_argument("--workload", choices=sorted(common.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    tree_src = args.tree.resolve() / "src"
    if not (tree_src / "tubeloc" / "cli.py").is_file():
        parser.error(f"{args.tree} holds no src/tubeloc")

    common.pin_blas()
    common.require_src()
    manifest = common.write_workload(args.workload, args.seed, args.out / "collection")
    _spec, config = common.workload_inputs(args.workload, args.seed)
    config_path = args.out / "config.json"
    config_path.write_text(json.dumps(config.to_dict()) + "\n", encoding="utf-8")

    env = dict(os.environ, PYTHONPATH=str(tree_src))
    command = [sys.executable, "-m", "tubeloc.cli", "run", "--collection", str(manifest),
               "--out", str(args.out / "results"), "--config", str(config_path),
               "--threads", str(common.nproc())]
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
