"""Diff two result directories written by ``tubeloc run``.

    python3 bench/compare.py RESULTS_A RESULTS_B

Compares ``tubes.jsonl`` and ``neighbors.jsonl`` record by record and
prints one JSON object: whether each file is byte-identical, the number of
tube regions whose chosen proposal changed, the number of neighbor ranks
whose frame changed, and the largest absolute change of a tube score or a
neighbor similarity. Exit code 0 when both files are byte-identical, 1 when
they differ, 2 on unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

FILES = ("tubes.jsonl", "neighbors.jsonl")


def _records(path: Path, key) -> dict:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            out[key(record)] = record
    return out


def compare(dir_a: Path, dir_b: Path) -> dict:
    identical = {name: (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
                 for name in FILES}
    max_delta = 0.0

    def tube_key(r):
        return (r["video_id"], r["rank"])

    tubes_a = _records(dir_a / "tubes.jsonl", tube_key)
    tubes_b = _records(dir_b / "tubes.jsonl", tube_key)
    regions_changed = 0
    for key in tubes_a.keys() | tubes_b.keys():
        a = {kf: pid for kf, pid, _box in tubes_a.get(key, {}).get("regions", [])}
        b = {kf: pid for kf, pid, _box in tubes_b.get(key, {}).get("regions", [])}
        regions_changed += sum(a.get(kf) != b.get(kf) for kf in a.keys() | b.keys())
        if key in tubes_a and key in tubes_b:
            max_delta = max(max_delta, abs(tubes_a[key]["score"] - tubes_b[key]["score"]))

    def frame_key(r):
        return (r["video_id"], r["frame_index"])

    graph_a = _records(dir_a / "neighbors.jsonl", frame_key)
    graph_b = _records(dir_b / "neighbors.jsonl", frame_key)
    ranks_changed = 0
    for key in graph_a.keys() | graph_b.keys():
        a = graph_a.get(key, {}).get("neighbors", [])
        b = graph_b.get(key, {}).get("neighbors", [])
        for rank in range(max(len(a), len(b))):
            if rank >= len(a) or rank >= len(b) or a[rank][:2] != b[rank][:2]:
                ranks_changed += 1
            else:
                max_delta = max(max_delta, abs(a[rank][2] - b[rank][2]))

    return {
        "identical": identical,
        "regions_changed": regions_changed,
        "neighbor_ranks_changed": ranks_changed,
        "max_abs_score_delta": max_delta,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("results_a", type=Path)
    parser.add_argument("results_b", type=Path)
    args = parser.parse_args()
    try:
        report = compare(args.results_a, args.results_b)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0 if all(report["identical"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
