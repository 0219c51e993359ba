"""Command-line interface: synth | run | eval | inspect.

Exit codes are the machine contract: 0 success, 1 invalid input or
arguments, 2 runtime failure. All human-readable text goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from collections import Counter
from contextlib import suppress
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .discovery import check_threads, run_discovery
from .formats import (
    load_collection,
    load_neighbor_graph,
    load_tubes,
    make_dir,
    read_json,
    read_jsonl,
    save_collection,
    save_results,
    save_run_manifest,
    save_snapshots,
    snapshot_iteration,
    write_jsonl,
    write_text,
)
from .metrics import corloc, evaluate
from .model import Collection, Config, NeighborGraph, ValidationError
from .synth import SynthSpec, generate_collection, save_planted

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2

OUT_DIR_ENV = "TUBELOC_OUT"
PREVIEW_RECORDS = 3  # records ``inspect`` previews per type


class _ArgsError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # subparsers are made of this class too
        super().__init__(*args, **kwargs)
        # argparse 3.11's own pattern took the values "-1e3" and "-inf" for options
        self._negative_number_matcher = re.compile(r"-(\.?\d|(inf|infinity|nan)$)", re.I)

    def error(self, message):  # argparse would exit(2); bad usage is exit 1 here
        raise _ArgsError(message)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _resolve_out(args) -> Path:
    out = args.out or os.environ.get(OUT_DIR_ENV)
    if not out:
        raise ValidationError(f"no output directory: pass --out or set {OUT_DIR_ENV}")
    return Path(out)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ---------------------------------------------------------------------------
# Argument wiring

_CONFIG_FLAGS = [
    ("--alpha", "alpha", float, "weight of the motion confidence term"),
    ("--lambda", "lambda_", float, "weight of the temporal consistency terms"),
    ("--theta", "theta", float, "consistency for region pairs sharing no track (< -1)"),
    ("--k", "k_neighbors", int, "matching neighbors per key frame"),
    ("--p", "p_tubes", int, "tubes kept per video on non-final iterations"),
    ("--iterations", "iterations", int, "retrieval/relocalization alternations"),
    ("--keyframe-stride", "keyframe_stride", int, "key-frame sampling stride"),
    ("--top-candidates", "top_candidates", int, "candidates kept per key frame"),
    ("--retrieval-proposals", "retrieval_proposals", int, "proposals per side in retrieval matching"),
    ("--affinity-gamma", "affinity_gamma", float, "appearance affinity bandwidth"),
]


def _resolve_params(cls, args, what: str):
    """The ``Config`` or ``SynthSpec`` of a command: the JSON object in the file
    that option ``what`` names, if any, then each field's flag given (its dest
    is the field name), then ``validate()``."""
    path = getattr(args, what)
    raw = read_json(path, what) if path else {}
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} file {path} must hold a JSON object")
    params = cls.from_dict(raw)
    for name in cls.__dataclass_fields__:
        if getattr(args, name) is not None:
            setattr(params, name, getattr(args, name))
    params.validate()
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tubeloc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tubeloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic collection")
    p_synth.add_argument("--out", default=None, help=f"output directory (or ${OUT_DIR_ENV})")
    p_synth.add_argument("--spec", default=None, help="JSON file with generator fields")
    for name, field in SynthSpec.__dataclass_fields__.items():
        flag = "--" + name.replace("_", "-")
        p_synth.add_argument(flag, dest=name, type=type(field.default), default=None)
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="run discovery and tracking on a collection")
    p_run.add_argument("--collection", required=True, help="path to manifest.jsonl")
    p_run.add_argument("--out", default=None, help=f"output directory (or ${OUT_DIR_ENV})")
    p_run.add_argument("--config", default=None, help="JSON config file; flags override")
    p_run.add_argument("--threads", type=int, default=1,
                       help="worker threads that match the large tables of proposal "
                            "pairs; outputs do not depend on it (default: 1)")
    p_run.add_argument("--snapshots", action="store_true",
                       help="write per-iteration tubes and graph snapshots")
    for flag, dest, kind, help_text in _CONFIG_FLAGS:
        p_run.add_argument(flag, dest=dest, type=kind, default=None, help=help_text)
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="score results against ground truth")
    p_eval.add_argument("--collection", required=True)
    p_eval.add_argument("--results", required=True, help="directory written by 'run'")
    p_eval.add_argument("--out", default=None, help="optional report output directory")
    p_eval.add_argument("--per-iteration", action="store_true",
                        help="also score every snapshot iteration")
    p_eval.set_defaults(func=cmd_eval)

    p_inspect = sub.add_parser("inspect", help="summarize any artifact file")
    p_inspect.add_argument("path")
    p_inspect.set_defaults(func=cmd_inspect)
    return parser


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args) -> int:
    spec = _resolve_params(SynthSpec, args, "spec")
    out = _resolve_out(args)
    collection, planted, _truths = generate_collection(spec)
    manifest = save_collection(collection, out)
    save_planted(planted, out / "planted.jsonl")
    write_text(out / "synth_spec.json", json.dumps(spec.to_dict(), indent=2) + "\n")
    _say(f"wrote {len(collection.videos)} videos to {manifest}")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _resolve_params(Config, args, "config")
    check_threads(args.threads)
    out = _resolve_out(args)
    make_dir(out)  # an unusable --out fails before the run, not after it
    # and so does an OUT/snapshots that --snapshots cannot create; an empty one
    # goes again, so that a run that fails leaves OUT as it was
    if args.snapshots:
        make_dir(out / "snapshots")
        with suppress(OSError):  # it holds an earlier run's snapshots
            (out / "snapshots").rmdir()
    started = _utc_now()
    digest = hashlib.sha256()
    collection = load_collection(args.collection, keyframe_stride=config.keyframe_stride,
                                 digest=digest)
    result = run_discovery(collection, config, threads=args.threads)

    save_results({vid: [sol.tube] for vid, sol in result.tubes.items()},
                 result.graph, collection, out)
    states = map(result.state, range(1, config.iterations + 1) if args.snapshots else ())
    save_snapshots(out, {i: ({vid: [sol.tube for sol in sols] for vid, sols in s.tubes.items()},
                             s.graph) for i, s in enumerate(states, 1)}, collection)
    save_run_manifest(
        out / "run_manifest.json",
        version=__version__,
        config_dict=config.to_dict(),
        input_hash="sha256:" + digest.hexdigest(),
        started_utc=started,
        finished_utc=_utc_now(),
        fixed_point=result.fixed_point,
        match_counts=[counts._asdict() for counts in result.match_counts],
    )
    _say(f"localized {len(result.tubes)} videos; results in {out}")
    return EXIT_OK


def _best_tubes(results_dir: Path, collection: Collection) -> tuple[dict, NeighborGraph]:
    """The first tube of each video and the neighbor graph of a results
    directory. Every tube must select a region at each key frame that the
    graph lists as a query of its video."""
    graph = load_neighbor_graph(results_dir / "neighbors.jsonl", collection)
    queries: dict[str, set[int]] = {}
    for vid, kf in graph.neighbors:
        queries.setdefault(vid, set()).add(kf)
    tubes = load_tubes(results_dir / "tubes.jsonl", collection, queries)
    return {vid: ranked[0] for vid, ranked in tubes.items()}, graph


def cmd_eval(args) -> int:
    collection = load_collection(args.collection)
    results_dir = Path(args.results)
    tubes, graph = _best_tubes(results_dir, collection)
    report = evaluate(collection, tubes=tubes, graph=graph)
    _say(report.table())

    iteration_rows = []
    if args.per_iteration:
        snapshots_root = results_dir / "snapshots"
        if not snapshots_root.is_dir():
            raise ValidationError(
                f"{snapshots_root} not found; run with --snapshots to enable --per-iteration"
            )
        if collection.ground_truths:  # else CorLoc is undefined, as in ``evaluate``
            _say("\niteration  CorLoc")
        for iteration, snap in sorted((snapshot_iteration(entry), entry)
                                      for entry in snapshots_root.iterdir()):
            snap_tubes = _best_tubes(snap, collection)[0]  # every snapshot is read and checked
            if not collection.ground_truths:
                continue
            per_class, average = corloc(snap_tubes, collection)
            iteration_rows.append({"type": "iteration_corloc", "iteration": iteration,
                                   "average": round(average, 6),
                                   "per_class": {k: round(v, 6) for k, v in per_class.items()}})
            _say(f"{iteration:9d}  {average:6.1f}")

    if args.out:
        out = Path(args.out)
        write_jsonl(out / "report.jsonl", report.to_records() + iteration_rows)
        write_text(out / "report.txt", report.table() + "\n")
    return EXIT_OK


def cmd_inspect(args) -> int:
    path = Path(args.path)
    if path.suffix == ".json":
        payload = read_json(path, "artifact")
        _say(json.dumps(payload, indent=2, ensure_ascii=False))
        return EXIT_OK
    counts: Counter = Counter()
    previews: dict[str, list[dict]] = {}
    for _locus, record in read_jsonl(path):
        kind = record["type"]
        counts[kind] += 1
        if len(previews.setdefault(kind, [])) < PREVIEW_RECORDS:
            previews[kind].append(record)
    _say(f"{path}: {sum(counts.values())} records")
    for kind in sorted(counts):
        _say(f"  {kind}: {counts[kind]}")
        for record in previews[kind]:
            text = json.dumps(record, ensure_ascii=False)
            if len(text) > 160:
                text = text[:157] + "..."
            _say(f"    {text}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgsError as exc:
        _say(f"error: {exc}")
        return EXIT_INVALID
    try:
        return args.func(args)
    except (ValidationError, FileNotFoundError) as exc:
        _say(f"error: {exc}")
        return EXIT_INVALID
    except BrokenPipeError:
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - boundary: report and exit 2
        _say(f"runtime failure: {type(exc).__name__}: {exc}")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
