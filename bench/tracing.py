"""Spans and counters recorded around the program's public functions.

The program is not instrumented itself: each wrapper replaces a name in the
module namespace where its caller looks it up (``discovery`` imports
``match_confidences``, ``consistency_matrix``, ``VideoTrackIndex`` and
others by name, so those are patched in ``discovery``). Spans are kept in
memory and handed out when the traced run ends. Tracing assumes one worker
thread: spans nest as a single stack.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

import tubeloc.discovery as discovery
import tubeloc.formats as formats
import tubeloc.matching as matching


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._iteration = 0
        self.contained_keys: set = set()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _patch(self, module, attr: str, name: str, before=None, after=None):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            result = self.span(name, original, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def install(self) -> None:
        c = self.counters

        original_read = formats.read_jsonl

        def counted_read(path, *args, **kwargs):
            # a generator: a span would time its creation only, so count bytes
            c["formats.bytes_read"] += os.path.getsize(path)
            return original_read(path, *args, **kwargs)

        formats.read_jsonl = counted_read
        self._patched.append((formats, "read_jsonl", original_read))

        def network_before(state, *_a, **_k):
            self._iteration = state.iteration + 1

        def network_after(graph, state, *_a, **_k):
            if state.iteration >= 1:
                c["discovery.neighbor_slots"] += sum(len(e) for e in graph.neighbors.values())

        def contained_before(box, regions, *_a, **_k):
            c["discovery.containment_calls"] += 1
            # the regions list is one object per (iteration, frame) in the
            # iteration state, and boxes are unique within a frame
            self.contained_keys.add((self._iteration, id(regions), box))

        def match_before(props_t, props_u, *_a, **_k):
            c["matching.calls"] += 1
            c["matching.proposal_pairs"] += len(props_t) * len(props_u)
            if self.parent_name() == "discovery.frame_similarity":
                c["discovery.retrieval_pairs"] += 1

        def motion_before(boxes, *_a, **_k):
            c["motion.boxes_scored"] += len(boxes)

        def index_before(*_a, **_k):
            c["motion.track_index_builds"] += 1

        def consistency_before(descs_a, descs_b, *_a, **_k):
            c["consistency.region_pairs"] += len(descs_a) * len(descs_b)

        def dp_after(solutions, trellis, *_a, **_k):
            # each extraction round solves the trellis left after removing
            # one candidate per frame for every earlier round
            sizes = [trellis.candidate_count(t) for t in range(trellis.num_frames)]
            for r in range(len(solutions)):
                c["solver.dp_cells"] += sum((a - r) * (b - r) for a, b in zip(sizes, sizes[1:]))

        d = discovery
        self._patch(d, "update_network", "discovery.update_network",
                    network_before, network_after)
        self._patch(d, "bootstrap_neighbors", "discovery.bootstrap_neighbors")
        self._patch(d, "region_contained", "discovery.region_contained", contained_before)
        self._patch(d, "frame_similarity", "discovery.frame_similarity")
        self._patch(d, "relocalize_video", "discovery.relocalize_video")
        self._patch(d, "match_confidences", "matching.match_confidences", match_before)
        self._patch(matching, "match_confidences", "matching.match_confidences", match_before)
        self._patch(matching, "frame_saliencies", "matching.frame_saliencies")
        self._patch(matching, "standout_scores", "matching.standout_scores")
        self._patch(d, "motion_coherence_many", "motion.motion_coherence_many", motion_before)
        self._patch(d, "VideoTrackIndex", "motion.VideoTrackIndex", index_before)
        self._patch(d, "consistency_matrix", "consistency.consistency_matrix",
                    consistency_before)
        self._patch(d, "build_trellis", "solver.build_trellis")
        self._patch(d, "solve_p_best", "solver.solve_p_best", after=dp_after)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name."""
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            own[name] += (end - start) - child[i]
        return total, own

    def matching_retrieval_s(self) -> float:
        return sum(end - start for name, start, end, parent in self.spans
                   if name == "matching.match_confidences" and parent is not None
                   and self.spans[parent][0] == "discovery.frame_similarity")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced localization (load spans excluded)."""
    total, own = tracer.times()
    c = tracer.counters
    match_busy = total["matching.match_confidences"]
    return {
        "formats.save_s": (total["formats.save_results"], "s"),
        "discovery.loop_self_s": (own["bench.localize"], "s"),
        "discovery.bootstrap_s": (total["discovery.bootstrap_neighbors"], "s"),
        "discovery.retrieval_self_s": (
            own["discovery.update_network"] + own["discovery.frame_similarity"], "s"),
        "discovery.retrieval_pairs": (c["discovery.retrieval_pairs"], "count"),
        "discovery.retrieval_useful_ratio": (
            c["discovery.neighbor_slots"] / max(c["discovery.retrieval_pairs"], 1), "ratio"),
        "discovery.containment_s": (total["discovery.region_contained"], "s"),
        "discovery.containment_calls": (c["discovery.containment_calls"], "count"),
        "discovery.containment_distinct_ratio": (
            len(tracer.contained_keys) / max(c["discovery.containment_calls"], 1), "ratio"),
        "discovery.relocalize_self_s": (own["discovery.relocalize_video"], "s"),
        "matching.retrieval_s": (tracer.matching_retrieval_s(), "s"),
        "matching.saliency_s": (total["matching.frame_saliencies"], "s"),
        "matching.calls": (c["matching.calls"], "count"),
        "matching.proposal_pairs": (c["matching.proposal_pairs"], "count"),
        "matching.pairs_per_s": (c["matching.proposal_pairs"] / match_busy, "1/s"),
        "matching.standout_s": (total["matching.standout_scores"], "s"),
        "motion.coherence_s": (total["motion.motion_coherence_many"], "s"),
        "motion.boxes_scored": (c["motion.boxes_scored"], "count"),
        "motion.track_index_builds": (c["motion.track_index_builds"], "count"),
        "motion.track_index_s": (total["motion.VideoTrackIndex"], "s"),
        "consistency.matrix_s": (total["consistency.consistency_matrix"], "s"),
        "consistency.region_pairs": (c["consistency.region_pairs"], "count"),
        "solver.trellis_self_s": (own["solver.build_trellis"], "s"),
        "solver.dp_s": (total["solver.solve_p_best"], "s"),
        "solver.dp_cells": (c["solver.dp_cells"], "count"),
    }
