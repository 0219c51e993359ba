"""Output checks made apart from the program's own code paths.

One operation is one video's localization; each check below attributes its
failures to a video. ``collection_problems`` holds what belongs to the
whole collection (the CorLoc floor).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from tubeloc.discovery import CONTAINMENT_RATIO, build_video_trellis, initialize_state
from tubeloc.model import key_frames
from tubeloc.synth import (
    BRUTE_FORCE_MAX_CANDIDATES,
    BRUTE_FORCE_MAX_FRAMES,
    brute_force_matching,
    brute_force_tube,
)

REL_TOL = 1e-9
IOU_THRESHOLD = 0.5
# CorLoc floors of the acceptance suite: noise-free and half-margin noise.
CORLOC_FLOOR_CLEAN = 100.0
CORLOC_FLOOR_NOISY = 90.0
# Final neighbor entries recomputed by brute force, per video.
SIMILARITY_SAMPLES = 3


def union_area(box, regions) -> float:
    """Exact area of ``box`` covered by the union of ``regions``.

    Coordinate compression: the clipped region edges cut the box into a
    grid of cells, and a cell counts when any region covers it.
    """
    pieces = []
    for r in regions:
        x0, y0 = max(box.x_min, r.x_min), max(box.y_min, r.y_min)
        x1, y1 = min(box.x_max, r.x_max), min(box.y_max, r.y_max)
        if x1 > x0 and y1 > y0:
            pieces.append((x0, y0, x1, y1))
    xs = sorted({v for p in pieces for v in (p[0], p[2])})
    ys = sorted({v for p in pieces for v in (p[1], p[3])})
    cells = []
    for xa, xb in zip(xs, xs[1:]):
        for ya, yb in zip(ys, ys[1:]):
            if any(p[0] <= xa and xb <= p[2] and p[1] <= ya and yb <= p[3] for p in pieces):
                cells.append((xb - xa) * (yb - ya))
    return math.fsum(cells)


def contained(box, regions) -> bool:
    return union_area(box, regions) >= CONTAINMENT_RATIO * box.area


def close(a: float, b: float, rel: float = REL_TOL, scale: float = 0.0) -> bool:
    """Equal within ``rel`` of the larger magnitude, or of ``scale`` if larger."""
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


def signature_neighbors(collection, config) -> dict:
    """Iteration-1 retrieval from scratch: L2 signature distance, ties by
    (distance, video id, frame)."""
    refs = [(vid, kf) for vid, video in collection.videos.items()
            for kf in key_frames(video, config.keyframe_stride)]
    sig = {ref: collection.videos[ref[0]].frames[ref[1]].signature for ref in refs}
    out = {}
    for q in refs:
        ranked = sorted((math.dist(sig[q], sig[c]), c) for c in refs if c[0] != q[0])
        out[q] = [(c, -d) for d, c in ranked[: config.k_neighbors]]
    return out


def chain_max(trellis, lam: float) -> float:
    """Best chain objective by a forward max-plus recursion."""
    best = np.asarray(trellis.unary[0], dtype=float)
    for t, pair in enumerate(trellis.pairwise):
        best = (best[:, None] + lam * pair).max(axis=0) + trellis.unary[t + 1]
    return float(best.max())


def iou(a, b) -> float:
    w = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    h = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    inter = w * h if w > 0 and h > 0 else 0.0
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def box_at(key_boxes: dict[int, list[float]], t: int) -> list[float]:
    """Tube box at frame t: linear between key frames, held outside them."""
    kfs = sorted(key_boxes)
    if t <= kfs[0]:
        return key_boxes[kfs[0]]
    for a, b in zip(kfs, kfs[1:]):
        if a <= t < b:
            w = (t - a) / (b - a)
            return [u + w * (v - u) for u, v in zip(key_boxes[a], key_boxes[b])]
    return key_boxes[kfs[-1]]


def _read(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _pool(frame, regions, saliency_map, limit):
    chosen = [p for p in frame.proposals if contained(p.box, regions)]
    chosen.sort(key=lambda p: (-saliency_map.get(p.id, 0.0), p.id))
    return chosen[:limit]


def _brute_similarity(qframe, qpool, cframe, cpool, config) -> float:
    if not qpool or not cpool:
        return 0.0
    _votes, scores = brute_force_matching(qpool, cpool, qframe, cframe, config)
    return float(scores.max(axis=1).sum())


class Checker:
    """Checks one run's in-memory result and its written files."""

    def __init__(self, collection, config, planted, noisy: bool, seed: int):
        self.collection = collection
        self.config = config
        self.planted = planted
        self.noisy = noisy
        self.rng = np.random.default_rng(seed)
        self.failures: dict[str, list[str]] = {vid: [] for vid in collection.videos}
        self.collection_problems: list[str] = []
        self.hits: dict[str, bool] = {}

    def fail(self, vid: str, message: str) -> None:
        self.failures[vid].append(message)

    def run(self, result, out_dir: Path) -> None:
        snapshots = result.snapshots
        previous = (snapshots[-2] if len(snapshots) >= 2
                    else initialize_state(self.collection, self.config))
        self.check_bootstrap(snapshots[0].graph)
        self.check_files(out_dir)
        self.check_tubes(result, previous)
        if len(snapshots) >= 2:
            self.check_similarities(result.graph, previous)

    def check_bootstrap(self, graph) -> None:
        for q, expected in signature_neighbors(self.collection, self.config).items():
            got = graph.neighbors.get(q, [])
            if ([c for c, _ in got] != [c for c, _ in expected]
                    or not all(close(s, e, 1e-12) for (_, s), (_, e) in zip(got, expected))):
                self.fail(q[0], f"iteration-1 neighbors of {q} differ from signature recompute")

    def check_files(self, out_dir: Path) -> None:
        collection, config = self.collection, self.config
        kfs = {vid: key_frames(v, config.keyframe_stride) for vid, v in collection.videos.items()}
        available = {vid: sum(len(k) for w, k in kfs.items() if w != vid) for vid in kfs}
        seen = set()
        for rec in _read(out_dir / "neighbors.jsonl"):
            q = (rec["video_id"], rec["frame_index"])
            seen.add(q)
            entries = rec["neighbors"]
            refs = [(e[0], e[1]) for e in entries]
            sims = [e[2] for e in entries]
            if q[1] not in kfs.get(q[0], []):
                self.collection_problems.append(f"neighbor list for unknown key frame {q}")
                continue
            if len(entries) != min(config.k_neighbors, available[q[0]]):
                self.fail(q[0], f"neighbor list of {q} has length {len(entries)}")
            if len(set(refs)) != len(refs) or any(
                    r[0] == q[0] or r[1] not in kfs.get(r[0], []) for r in refs):
                self.fail(q[0], f"neighbor list of {q} names a same-video or unknown frame")
            if any(b > a for a, b in zip(sims, sims[1:])):
                self.fail(q[0], f"neighbor similarities of {q} increase")
        for vid, frames in kfs.items():
            if any((vid, kf) not in seen for kf in frames):
                self.fail(vid, "a key frame has no neighbor list")

        tubes = {}
        for rec in _read(out_dir / "tubes.jsonl"):
            if rec["rank"] == 0:
                tubes[rec["video_id"]] = rec
        for vid, video in collection.videos.items():
            rec = tubes.get(vid)
            if rec is None:
                self.fail(vid, "no tube written")
                continue
            regions = {kf: (pid, box) for kf, pid, box in rec["regions"]}
            if sorted(regions) != kfs[vid]:
                self.fail(vid, "tube does not have one region per key frame")
                continue
            by_id = {kf: {p.id: p.box for p in video.frames[kf].proposals} for kf in regions}
            if any(pid not in by_id[kf] or by_id[kf][pid].as_list() != box
                   for kf, (pid, box) in regions.items()):
                self.fail(vid, "tube names a missing proposal or a wrong box")
                continue
            self.check_recovery(vid, {kf: box for kf, (_pid, box) in regions.items()})
        self.check_corloc()

    def check_recovery(self, vid: str, key_boxes: dict[int, list[float]]) -> None:
        video = self.collection.videos[vid]
        t = video.num_frames // 2
        truth = self.planted.boxes[vid][t].as_list()
        hit = iou(box_at(key_boxes, t), truth) > IOU_THRESHOLD
        self.hits[vid] = hit
        if not hit and not self.noisy:
            self.fail(vid, "planted object not recovered on a noise-free collection")

    def check_corloc(self) -> None:
        per_class: dict[str, list[bool]] = {}
        for vid in self.collection.videos:  # a video without a valid tube is a miss
            per_class.setdefault(self.planted.class_labels[vid], []).append(
                self.hits.get(vid, False))
        corloc = float(np.mean([100.0 * sum(h) / len(h) for h in per_class.values()]))
        floor = CORLOC_FLOOR_NOISY if self.noisy else CORLOC_FLOOR_CLEAN
        if corloc < floor:
            self.collection_problems.append(f"CorLoc {corloc:.1f} below the floor {floor}")

    def _pools_by_kf(self, vid: str, graph, previous) -> dict:
        video = self.collection.videos[vid]
        pools_by_kf = {}
        for kf in key_frames(video, self.config.keyframe_stride):
            pools = []
            for (nvid, nkf), _sim in graph.neighbors.get((vid, kf), []):
                frame = self.collection.videos[nvid].frames[nkf]
                pool = [p for p in frame.proposals if contained(p.box, previous.boxes[nvid][nkf])]
                if pool:
                    pools.append((frame, pool))
            pools_by_kf[kf] = pools
        return pools_by_kf

    def check_tubes(self, result, previous) -> None:
        lam = self.config.lambda_
        for vid, video in self.collection.videos.items():
            sol = result.tubes[vid]
            pools_by_kf = self._pools_by_kf(vid, result.graph, previous)
            trellis, _ = build_video_trellis(video, pools_by_kf, self.config)
            # objectives are sums of O(1) terms: compare on at least that scale
            if not close(sol.objective, chain_max(trellis, lam), scale=1.0):
                self.fail(vid, f"tube objective {sol.objective!r} is not the trellis maximum")
            sizes = [trellis.candidate_count(t) for t in range(trellis.num_frames)]
            if (trellis.num_frames > BRUTE_FORCE_MAX_FRAMES
                    or max(sizes) > BRUTE_FORCE_MAX_CANDIDATES):
                continue
            brute = brute_force_tube(trellis, lam)
            if brute.objective != sol.objective or brute.tube.regions != sol.tube.regions:
                self.fail(vid, "tube differs from exhaustive enumeration")

    def check_similarities(self, graph, previous) -> None:
        config = self.config
        videos = self.collection.videos
        for vid, video in videos.items():
            kfs = key_frames(video, config.keyframe_stride)
            qkf = kfs[int(self.rng.integers(len(kfs)))]
            entries = graph.neighbors[(vid, qkf)]
            picks = sorted(set(np.linspace(0, len(entries) - 1, SIMILARITY_SAMPLES).astype(int)))
            qframe = video.frames[qkf]
            qpool = _pool(qframe, previous.boxes[vid][qkf], previous.saliency[vid][qkf],
                          config.retrieval_proposals)
            for i in picks:
                (nvid, nkf), sim = entries[i]
                cframe = videos[nvid].frames[nkf]
                cpool = _pool(cframe, previous.boxes[nvid][nkf], previous.saliency[nvid][nkf],
                              config.retrieval_proposals)
                expected = _brute_similarity(qframe, qpool, cframe, cpool, config)
                if not close(sim, expected):
                    self.fail(vid, f"similarity {sim!r} of {(vid, qkf)} -> {(nvid, nkf)} "
                                   f"differs from brute force {expected!r}")
