"""One workload's measurement in a fresh process; started by ``run.py``.

Times what ``tubeloc run`` does on a written collection: repeated
``load_collection`` (set-up), then whole rounds of ``run_discovery`` plus
``save_results``. With ``--trace 1`` it instead alternates untraced and
traced single-worker rounds. Either way it then checks the outputs and
prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402

common.pin_blas()
common.require_src()

from checks import Checker  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from tubeloc.discovery import run_discovery  # noqa: E402
from tubeloc.formats import load_collection, save_results  # noqa: E402
from tubeloc.synth import load_planted  # noqa: E402

# Set-up is short, so it is repeated before every round and its median
# reported; spreading the loads over the run exposes them to the same
# machine conditions as the rounds. Each round gets a freshly loaded
# collection, as every ``tubeloc run`` does.
LOADS_PER_ROUND = 15
# Work outside every named layer shows as run_discovery's own time; the
# layers must account for all but this share of a traced round.
UNNAMED_SHARE = 0.02
# A timed run makes at least this many rounds, so its median is a true one.
MIN_ROUNDS = 3
OUTPUTS = ("tubes.jsonl", "neighbors.jsonl")


def timed_loads(manifest: Path, config, count: int):
    times = []
    for _ in range(count):
        collection = None
        gc.collect()
        start = time.perf_counter()
        collection = load_collection(manifest, keyframe_stride=config.keyframe_stride)
        times.append(time.perf_counter() - start)
    return collection, times


def localize(collection, config, threads: int, out: Path, tracer: Tracer | None = None):
    """run_discovery + save_results; returns (result, seconds, output bytes)."""
    gc.collect()

    def body():
        result = run_discovery(collection, config, threads=threads)
        tubes = {vid: [sol.tube] for vid, sol in result.tubes.items()}
        if tracer is None:
            save_results(tubes, result.graph, collection, out)
        else:
            tracer.span("formats.save_results", save_results, tubes, result.graph,
                        collection, out)
        return result

    start = time.perf_counter()
    result = body() if tracer is None else tracer.span("bench.localize", body)
    seconds = time.perf_counter() - start
    return result, seconds, {name: (out / name).read_bytes() for name in OUTPUTS}


def differing_videos(reference: dict, outputs: dict) -> set[str]:
    """Videos whose tube or neighbor records differ between two output sets."""
    differ = set()
    for name in OUTPUTS:
        if reference[name] == outputs[name]:
            continue
        a = reference[name].decode().splitlines()
        b = outputs[name].decode().splitlines()
        for line in set(a) ^ set(b):
            differ.add(json.loads(line)["video_id"])
        if len(a) != len(b):
            differ.add("<record count>")
    return differ


class Measurement:
    """Rounds of one run, with what the checks need from them."""

    def __init__(self, args, config):
        self.args = args
        self.config = config
        self.threads = common.nproc()
        self.load_times: list[float] = []
        self.rounds: list[dict] = []
        self.differing: list[set[str]] = []  # per round: videos unlike round 0
        self.metrics: dict[str, dict] = {}
        self.problems: list[str] = []
        self.spans = None
        self.reference = None
        self.collection = self.result = None

    def fresh_collection(self):
        collection, times = timed_loads(self.args.manifest, self.config, LOADS_PER_ROUND)
        self.load_times.extend(times)
        return collection

    def round(self, workers: int, out: Path, tracer: Tracer | None = None, **extra):
        """Localize a fresh collection; returns (result, seconds)."""
        self.collection = self.result = None
        self.collection = self.fresh_collection()
        result, seconds, outputs = localize(self.collection, self.config, workers, out, tracer)
        self.reference = self.reference or outputs
        self.differing.append(differing_videos(self.reference, outputs))
        self.rounds.append({"workers": workers, "localize_s": seconds, **extra})
        return result, seconds

    def timed(self) -> Path:
        """End-to-end metrics at nproc workers; returns the checked output dir."""
        out = self.args.out
        start = time.perf_counter()
        while len(self.rounds) < MIN_ROUNDS or time.perf_counter() - start < self.args.seconds:
            self.result, _seconds = self.round(self.threads, out)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.metrics = {
            "setup_s": {"value": statistics.median(self.load_times), "unit": "s"},
            "localize_s": {"value": statistics.median(r["localize_s"] for r in self.rounds),
                           "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
        return out

    def traced(self) -> Path:
        """Per-layer metrics of traced single-worker rounds, alternated with
        untraced ones; returns the checked output dir (the nproc reference)."""
        load_tracer = Tracer()
        load_tracer.install()
        timed_loads(self.args.manifest, self.config, 1)
        load_tracer.uninstall()
        out = self.args.out / "reference"
        result, _seconds = self.round(self.threads, out)
        collection = self.collection
        plain, traced, layers = [], [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < self.args.seconds:
            plain.append(self.round(1, self.args.out / "plain")[1])
            tracer = Tracer()
            tracer.install()
            try:
                seconds = self.round(1, self.args.out / "traced", tracer, traced=True)[1]
            finally:
                tracer.uninstall()
            traced.append(seconds)
            layers.append(layer_metrics(tracer))
            unnamed = layers[-1]["discovery.loop_self_s"][0]
            if unnamed > UNNAMED_SHARE * seconds:
                self.problems.append(f"{unnamed!r} s of a {seconds!r} s traced round "
                                     "lies outside every named layer")
            origin = tracer.spans[0][1]
            self.spans = [[n, a - origin, b - origin, p] for n, a, b, p in tracer.spans]
        self.collection, self.result = collection, result
        for name, (value, unit) in layers[0].items():
            values = [m[name][0] for m in layers]
            if unit == "count" and values.count(value) != len(values):
                self.problems.append(f"{name} differs between traced rounds: {values}")
            self.metrics[name] = {"value": statistics.median(values) if unit != "count"
                                  else value, "unit": unit}
        self.metrics.update({
            "formats.load_s": {"value": statistics.median(self.load_times), "unit": "s"},
            "formats.bytes_read": {"value": load_tracer.counters["formats.bytes_read"],
                                   "unit": "bytes"},
            "trace.plain_1w_s": {"value": statistics.median(plain), "unit": "s"},
            "trace.overhead_ratio": {
                "value": statistics.median(traced) / statistics.median(plain), "unit": "ratio"},
        })
        return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(common.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec, config = common.workload_inputs(args.workload, args.seed)
    run = Measurement(args, config)
    checked_out = run.traced() if args.trace else run.timed()

    planted = load_planted(args.manifest.parent / "planted.jsonl")
    checker = Checker(run.collection, config, planted, noisy=spec.descriptor_noise > 0,
                      seed=args.seed)
    checker.run(run.result, checked_out)
    bad = {vid for vid, messages in checker.failures.items() if messages}
    # collection-wide problems make the run incorrect; the others are
    # failed operations, counted per (round, video)
    problems = checker.collection_problems + run.problems
    failures = [f"{vid}: {m}" for vid in sorted(bad) for m in checker.failures[vid]]
    failures += [f"round {i}: outputs differ from round 0 for {sorted(d)}"
                 for i, d in enumerate(run.differing) if d]

    print(json.dumps({
        "correct": not problems,
        "attempted": len(run.rounds) * len(run.collection.videos),
        "failed": sum(len(bad | d) for d in run.differing),
        "metrics": run.metrics,
        "environment": common.environment(run.threads),
        "rounds": run.rounds,
        "problems": problems,
        "failures": failures,
        "spans": run.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
