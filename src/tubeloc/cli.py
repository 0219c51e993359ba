"""Command-line interface: synth | run | eval | inspect.

Exit codes are the machine contract: 0 success, 1 invalid input or
arguments, 2 runtime failure. All human-readable text goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .discovery import check_threads, run_discovery
from .formats import (
    hash_collection_inputs,
    load_collection,
    load_neighbor_graph,
    load_tubes,
    make_dir,
    read_json,
    read_jsonl,
    save_collection,
    save_results,
    save_run_manifest,
    snapshot_dir,
    snapshot_iteration,
    write_jsonl,
    write_text,
)
from .metrics import corloc, evaluate
from .model import Collection, Config, ValidationError
from .synth import SynthSpec, generate_collection, save_planted

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2

OUT_DIR_ENV = "TUBELOC_OUT"


class _ArgsError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
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


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for flag, dest, kind, help_text in _CONFIG_FLAGS:
        parser.add_argument(flag, dest=dest, type=kind, default=None, help=help_text)


def _read_object(path: str | None, what: str) -> dict:
    """The JSON object in ``path``, or an empty one when no file is given."""
    raw = read_json(path, what) if path else {}
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} file {path} must hold a JSON object")
    return raw


def _resolve_config(args) -> Config:
    config = Config.from_dict(_read_object(args.config, "config"))
    for _flag, dest, _kind, _help in _CONFIG_FLAGS:
        value = getattr(args, dest)
        if value is not None:
            setattr(config, dest, value)
    config.validate()
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tubeloc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tubeloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic collection")
    p_synth.add_argument("--out", default=None, help=f"output directory (or ${OUT_DIR_ENV})")
    p_synth.add_argument("--spec", default=None, help="JSON file with generator fields")
    for name, field in SynthSpec.__dataclass_fields__.items():
        flag = "--" + name.replace("_", "-")
        p_synth.add_argument(flag, dest=f"spec_{name}", type=type(field.default), default=None)
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="run discovery and tracking on a collection")
    p_run.add_argument("--collection", required=True, help="path to manifest.jsonl")
    p_run.add_argument("--out", default=None, help=f"output directory (or ${OUT_DIR_ENV})")
    p_run.add_argument("--config", default=None, help="JSON config file; flags override")
    p_run.add_argument("--threads", type=int, default=1,
                       help="worker processes for the parallel phases, forked once per "
                            "run; more than 1 needs a platform with fork (default: 1)")
    p_run.add_argument("--snapshots", action="store_true",
                       help="write per-iteration tubes and graph snapshots")
    _add_config_flags(p_run)
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
    p_inspect.add_argument("--head", type=int, default=3, help="records to preview per type")
    p_inspect.set_defaults(func=cmd_inspect)
    return parser


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args) -> int:
    spec = SynthSpec.from_dict(_read_object(args.spec, "spec"))
    for name in SynthSpec.__dataclass_fields__:
        value = getattr(args, f"spec_{name}")
        if value is not None:
            setattr(spec, name, value)
    out = _resolve_out(args)
    collection, planted, _truths = generate_collection(spec)
    manifest = save_collection(collection, out)
    save_planted(planted, out / "planted.jsonl")
    write_text(out / "synth_spec.json", json.dumps(spec.to_dict(), indent=2) + "\n")
    _say(f"wrote {len(collection.videos)} videos to {manifest}")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _resolve_config(args)
    check_threads(args.threads)
    out = _resolve_out(args)
    make_dir(out)  # an unusable --out fails before the run, not after it
    started = _utc_now()
    collection = load_collection(args.collection, keyframe_stride=config.keyframe_stride)
    input_hash = hash_collection_inputs(args.collection)  # of the bytes just loaded
    result = run_discovery(collection, config, threads=args.threads)

    save_results({vid: [sol.tube] for vid, sol in result.tubes.items()},
                 result.graph, collection, out)
    if args.snapshots:
        for state in result.snapshots:
            target = snapshot_dir(out, state.iteration)
            save_results(
                {vid: [sol.tube for sol in sols] for vid, sols in state.tubes.items()},
                state.graph, collection, target,
            )
    save_run_manifest(
        out / "run_manifest.json",
        version=__version__,
        config_dict=config.to_dict(),
        input_hash=input_hash,
        started_utc=started,
        finished_utc=_utc_now(),
    )
    _say(f"localized {len(result.tubes)} videos; results in {out}")
    return EXIT_OK


def _best_tubes(results_dir: Path, collection: Collection) -> dict:
    tubes = load_tubes(results_dir / "tubes.jsonl", collection)
    return {vid: ranked[0] for vid, ranked in tubes.items()}


def cmd_eval(args) -> int:
    collection = load_collection(args.collection)
    results_dir = Path(args.results)
    tubes = _best_tubes(results_dir, collection)
    graph = load_neighbor_graph(results_dir / "neighbors.jsonl")
    report = evaluate(collection, tubes=tubes, graph=graph)
    _say(report.table())

    iteration_rows = []
    if args.per_iteration:
        snapshots_root = results_dir / "snapshots"
        if not snapshots_root.is_dir():
            raise ValidationError(
                f"{snapshots_root} not found; run with --snapshots to enable --per-iteration"
            )
        _say("")
        _say("iteration  CorLoc")
        for iteration, snap in sorted((snapshot_iteration(entry), entry)
                                      for entry in snapshots_root.iterdir()):
            per_class, average = corloc(_best_tubes(snap, collection), collection)
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
        if len(previews.setdefault(kind, [])) < args.head:
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
