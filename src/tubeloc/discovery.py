"""Alternating cross-video neighbor retrieval and within-video relocalization.

Each iteration is two barrier-synchronized phases: retrieval for all key
frames, then relocalization for all videos. Both phases only read the
previous iteration's state, so tasks within a phase run in parallel and the
whole pipeline stays a pure function of (collection, config).

The tasks are numpy-heavy Python that holds the interpreter lock, so they run
in processes: ``Workers`` forks its processes once per ``run_discovery`` call.
They inherit the run's read-only inputs (collection, config, motion evidence),
and each task sends only its phase's small state and its result. With one
worker the same task functions run inline.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .consistency import consistency_matrix
from .matching import appearance_confidence, match_confidences
from .model import (
    Box,
    Collection,
    Config,
    Frame,
    FrameRef,
    NeighborGraph,
    Proposal,
    ValidationError,
    Video,
    check_key_frames,
    key_frames,
)
from .motion import VideoTrackIndex, motion_coherence_many
from .solver import Trellis, TubeSolution, build_trellis, solve_p_best

# A proposal counts as lying inside the localized regions when at least this
# share of its area is covered by their union.
CONTAINMENT_RATIO = 0.9


@dataclass
class IterationState:
    """Everything one iteration hands to the next: tubes, regions, saliencies."""

    iteration: int
    tubes: dict[str, list[TubeSolution]] = field(default_factory=dict)
    boxes: dict[str, dict[int, list[Box]]] = field(default_factory=dict)
    saliency: dict[str, dict[int, dict[int, float]]] = field(default_factory=dict)
    graph: NeighborGraph | None = None


@dataclass
class DiscoveryResult:
    tubes: dict[str, TubeSolution]
    graph: NeighborGraph
    snapshots: list[IterationState]


def initialize_state(collection: Collection, config: Config) -> IterationState:
    """Start every video from a whole-frame localization at each key frame."""
    boxes = {
        vid: {kf: [video.frames[kf].bounds_box()]
              for kf in key_frames(video, config.keyframe_stride)}
        for vid, video in collection.videos.items()
    }
    return IterationState(iteration=0, boxes=boxes)


def region_contained(frame: Frame, regions: list[Box]) -> np.ndarray:
    """Which proposals of ``frame`` have at least ``CONTAINMENT_RATIO`` of their
    area inside the union of ``regions``.

    The union area is exact (coordinate compression): the regions clipped to a
    proposal cut it at their sorted x and y edges into cells, and a cell counts
    when a clipped region covers it. A region missing the proposal clips to an
    empty interval, which covers only cells of zero width or height.
    """
    x, y, w, h = (column[:, None] for column in frame.boxes.T)  # (n, 1) each
    r = np.array([b.as_list() for b in regions], dtype=float).reshape(-1, 4)
    x0, x1 = np.maximum(x, r[:, 0]), np.minimum(x + w, r[:, 0] + r[:, 2])  # (n, p)
    y0, y1 = np.maximum(y, r[:, 1]), np.minimum(y + h, r[:, 1] + r[:, 3])
    xs = np.sort(np.concatenate([x0, x1], axis=1), axis=1)  # (n, 2p) cell edges
    ys = np.sort(np.concatenate([y0, y1], axis=1), axis=1)
    in_x = (x0[:, None, :] <= xs[:, :-1, None]) & (xs[:, 1:, None] <= x1[:, None, :])
    in_y = (y0[:, None, :] <= ys[:, :-1, None]) & (ys[:, 1:, None] <= y1[:, None, :])
    covered = (in_x[:, :, None, :] & in_y[:, None, :, :]).any(axis=3)  # (n, cx, cy)
    cells = np.diff(xs, axis=1)[:, :, None] * np.diff(ys, axis=1)[:, None, :]
    area = np.where(covered, cells, 0.0).sum(axis=(1, 2))
    return area >= CONTAINMENT_RATIO * (w * h)[:, 0]


def key_frame_refs(collection: Collection, stride: int) -> list[FrameRef]:
    """Every key frame of the collection, video by video in collection order."""
    return [(vid, kf) for vid, video in collection.videos.items()
            for kf in key_frames(video, stride)]


def _rank_neighbors(refs: list[FrameRef], similarity: np.ndarray, k: int) -> NeighborGraph:
    """Each key frame's k most similar key frames of other videos, read from
    row and column ``refs`` of an (F, F) ``similarity``; exact ties order by
    (video id, frame index)."""
    videos = np.array([vid for vid, _ in refs], dtype=object)
    tie_rank = np.argsort(sorted(range(len(refs)), key=refs.__getitem__))  # place in sorted(refs)
    graph = NeighborGraph()
    for q, ref in enumerate(refs):
        cols = np.flatnonzero(videos != videos[q])
        ranked = cols[np.lexsort((tie_rank[cols], -similarity[q, cols]))][:k]
        graph.neighbors[ref] = [(refs[c], float(similarity[q, c])) for c in ranked]
    return graph


def bootstrap_neighbors(collection: Collection, k: int, stride: int) -> NeighborGraph:
    """First-round retrieval by L2 distance between frame signatures; the
    similarity is the negated distance."""
    refs = key_frame_refs(collection, stride)
    stacked = np.stack([np.asarray(collection.videos[vid].frames[kf].signature, dtype=float)
                        for vid, kf in refs])
    # one row at a time: O(F * D) scratch instead of an (F, F, D) difference
    dist = np.array([np.sqrt(((stacked - row) ** 2).sum(axis=1)) for row in stacked])
    return _rank_neighbors(refs, -dist, k)


def retrieval_pool(frame: Frame, mask: np.ndarray, saliency_map: dict[int, float],
                   limit: int) -> np.ndarray:
    """Rows of the most salient proposals among those ``mask`` (from
    ``region_contained``) marks as inside the frame's localized regions,
    ranked by (saliency desc, id asc); a proposal missing from
    ``saliency_map`` has saliency 0."""
    rows = np.flatnonzero(mask)
    ids = frame.ids[rows]
    saliency = np.array([saliency_map.get(pid, 0.0) for pid in ids.tolist()], dtype=float)
    return rows[np.lexsort((ids, -saliency))][:limit]


def frame_similarity(query_frame: Frame, query_rows: np.ndarray,
                     cand_frame: Frame, cand_rows: np.ndarray, config: Config) -> float:
    """Sum of best match confidences of the query pool against one candidate
    frame's pool, both given as rows of their frame.

    Either side having no usable proposals yields similarity 0.
    """
    if len(query_rows) == 0 or len(cand_rows) == 0:
        return 0.0
    _, scores = match_confidences(query_rows, cand_rows, query_frame, cand_frame, config)
    return float(scores.max(axis=1).sum())


class RunInputs(NamedTuple):
    """What every task of one ``run_discovery`` call reads and none changes."""

    collection: Collection
    config: Config
    motion: dict[str, VideoMotion]


_worker_inputs: RunInputs | None = None  # set in each forked worker process


def _inherit_inputs(inputs: RunInputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _run_in_worker(task, arg):
    return task(_worker_inputs, arg)


class Workers:
    """Runs a module-level ``task(inputs, arg)`` over a list of args, results in
    order.

    With one worker the tasks run inline. With more, ``count`` processes are
    forked once, at the first ``map``, and inherit ``inputs``, so a task sends
    only its arg and result; leaving the ``with`` block ends them. Fork, not
    spawn, so that the inputs are neither pickled nor loaded again; a worker
    sees the module's functions as they were at the fork.
    """

    def __init__(self, inputs: RunInputs, count: int = 1):
        self.inputs = inputs
        self.count = count
        self._pool = None if count == 1 else ProcessPoolExecutor(
            count, multiprocessing.get_context("fork"), _inherit_inputs, (inputs,))

    def map(self, task, args: list) -> list:
        if self._pool is None:
            return [task(self.inputs, arg) for arg in args]
        chunk = max(1, -(-len(args) // (4 * self.count)))  # a few per worker balance the load
        return list(self._pool.map(partial(_run_in_worker, task), args, chunksize=chunk))

    def __enter__(self) -> Workers:
        return self

    def __exit__(self, *_exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)


def update_network(state: IterationState, contained: dict[FrameRef, np.ndarray],
                   workers: Workers) -> NeighborGraph:
    """Re-rank each key frame's k matching neighbors among other videos.

    Iteration 0 falls back to signature-based bootstrap retrieval; later
    iterations match the localized-region proposal pools of frame pairs, which
    ``contained`` (the ``region_contained`` mask of each key frame for
    ``state.boxes``) selects. ``workers`` fill the similarity matrix row by row.
    """
    collection, config, _motion = workers.inputs
    if state.iteration == 0:
        return bootstrap_neighbors(collection, config.k_neighbors, config.keyframe_stride)

    refs = key_frame_refs(collection, config.keyframe_stride)
    pools = [
        retrieval_pool(collection.videos[vid].frames[kf], contained[vid, kf],
                       state.saliency[vid][kf], config.retrieval_proposals)
        for vid, kf in refs
    ]
    rows = workers.map(_similarity_row, [(q, refs, pools) for q in range(len(refs))])
    return _rank_neighbors(refs, np.array(rows), config.k_neighbors)


def _similarity_row(inputs: RunInputs, arg) -> list[float]:
    """Row ``q`` of the key frame similarity matrix of ``update_network``."""
    q, refs, pools = arg
    frames = [inputs.collection.videos[vid].frames[kf] for vid, kf in refs]
    # same-video pairs are never ranked, so they are not matched
    return [frame_similarity(frames[q], pools[q], frames[c], pools[c], inputs.config)
            if refs[c][0] != refs[q][0] else np.nan for c in range(len(refs))]


class VideoMotion(NamedTuple):
    """Motion evidence of a video's key frames; tracks and boxes never change
    during a run, so ``motion_scores`` computes it once per video."""

    coherence: dict[int, np.ndarray]  # key frame -> motion coherence per proposal row
    shared: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]  # (a, b) -> shared points


def motion_scores(video: Video, kfs: list[int]) -> VideoMotion:
    """Motion coherence of every proposal of the given key frames, plus the
    points of the tracks shared by each pair of consecutive key frames."""
    track_index = VideoTrackIndex(video)
    return VideoMotion(
        {kf: motion_coherence_many(video.frames[kf].boxes, track_index.at(kf)) for kf in kfs},
        {(a, b): track_index.shared(a, b) for a, b in zip(kfs, kfs[1:])},
    )


def build_video_trellis(video: Video,
                        pools_by_kf: dict[int, list[tuple[Frame, np.ndarray | list[Proposal]]]],
                        config: Config, motion: VideoMotion | None = None
                        ) -> tuple[Trellis, dict[int, dict[int, float]]]:
    """Score all proposals of a video's key frames and assemble the DP trellis.

    Each neighbor pool is a row array or a ``Proposal`` list of its frame (see
    ``frame_saliencies``). ``motion`` holds the ``motion_scores`` of the key
    frames; it is computed here when not given. Returns the trellis plus the
    per-frame raw saliency maps needed by the next retrieval round.
    """
    kfs = sorted(pools_by_kf)
    if motion is None:
        motion = motion_scores(video, kfs)
    ids_per_frame: list[np.ndarray] = []
    scores_per_frame: list[np.ndarray] = []
    saliency_maps: dict[int, dict[int, float]] = {}
    for kf in kfs:
        frame = video.frames[kf]
        phi_a, saliency = appearance_confidence(frame, pools_by_kf[kf], config)
        phi = phi_a + config.alpha * motion.coherence[kf]
        ids_per_frame.append(frame.ids)
        scores_per_frame.append(phi)
        saliency_maps[kf] = dict(zip(frame.ids.tolist(), saliency.tolist()))

    def pairwise(step: int, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        frame_a = video.frames[kfs[step]]
        frame_b = video.frames[kfs[step + 1]]
        points_a, points_b = motion.shared[kfs[step], kfs[step + 1]]
        return consistency_matrix(
            frame_a.descriptors[rows_a],
            frame_b.descriptors[rows_b],
            frame_a.boxes[rows_a],
            frame_b.boxes[rows_b],
            points_a,
            points_b,
            config.theta,
        )

    trellis = build_trellis(video.video_id, kfs, ids_per_frame, scores_per_frame,
                            config.top_candidates, pairwise)
    return trellis, saliency_maps


def relocalize_video(video: Video, graph: NeighborGraph,
                     contained: dict[FrameRef, np.ndarray], collection: Collection,
                     config: Config, num_tubes: int, motion: VideoMotion
                     ) -> tuple[list[TubeSolution], dict[int, dict[int, float]],
                                dict[int, list[Box]]]:
    """Optimize one video against its neighbors' currently localized regions,
    whose proposals ``contained`` marks per key frame.

    Returns the tubes, the saliency maps and the new localized boxes per key
    frame.
    """
    kfs = key_frames(video, config.keyframe_stride)
    pools_by_kf: dict[int, list[tuple[Frame, np.ndarray]]] = {}
    for kf in kfs:
        pools = []
        for (nvid, nkf), _sim in graph.neighbors.get((video.video_id, kf), []):
            pool = np.flatnonzero(contained[nvid, nkf])
            if pool.size:
                pools.append((collection.videos[nvid].frames[nkf], pool))
        pools_by_kf[kf] = pools

    trellis, saliency_maps = build_video_trellis(video, pools_by_kf, config, motion)
    solutions = solve_p_best(trellis, num_tubes, config.lambda_)
    boxes_by_kf = {
        kf: [
            video.frames[kf].proposal_by_id(sol.tube.regions[kf]).box
            for sol in solutions
        ]
        for kf in kfs
    }
    return solutions, saliency_maps, boxes_by_kf


def _relocalize(inputs: RunInputs, arg):
    vid, graph, contained, num_tubes = arg
    return relocalize_video(inputs.collection.videos[vid], graph, contained, inputs.collection,
                            inputs.config, num_tubes, inputs.motion[vid])


def check_threads(threads: int) -> None:
    """A worker count ``run_discovery`` accepts: at least 1, and 1 without fork."""
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    if threads > 1 and "fork" not in multiprocessing.get_all_start_methods():
        raise ValidationError(f"threads must be 1 on a platform without fork, got {threads}")


def check_objective_bound(collection: Collection, config: Config) -> None:
    """Reject weights under which a tube objective could overflow a float.

    Unary scores lie in [0, 1 + 4 alpha] and pairwise ones in [theta, 1], so
    over at most K key frames no objective exceeds
    K (1 + 4 alpha) + (K - 1) lambda |theta| in magnitude.
    """
    k = max(len(key_frames(video, config.keyframe_stride))
            for video in collection.videos.values())
    bound = (k * (1 + 4 * float(config.alpha))
             + (k - 1) * float(config.lambda_) * abs(float(config.theta)))
    if not math.isfinite(bound):
        raise ValidationError(
            f"alpha={config.alpha}, lambda={config.lambda_} and theta={config.theta} "
            f"can overflow a tube objective over {k} key frames")


def run_discovery(collection: Collection, config: Config, threads: int = 1
                  ) -> DiscoveryResult:
    """Alternate retrieval and relocalization; keep the best tube per video.

    Every iteration except the last carries ``p_tubes`` tubes per video for
    robustness; the last keeps a single one. ``threads`` is the number of
    worker processes (see ``Workers``), at most one per key frame; more than
    one needs the ``fork`` start method. Deterministic for a given
    (collection, config) regardless of the worker count.
    """
    config.validate()
    check_threads(threads)
    check_key_frames(collection, config.keyframe_stride)
    check_objective_bound(collection, config)
    refs = key_frame_refs(collection, config.keyframe_stride)
    for vid, kf in refs:  # the workers fork with the scorers' columns built
        frame = collection.videos[vid].frames[kf]
        _ = frame.ids, frame.locations, frame.descriptors

    motion = {vid: motion_scores(video, key_frames(video, config.keyframe_stride))
              for vid, video in collection.videos.items()}
    video_ids = list(collection.videos)
    state = initialize_state(collection, config)
    snapshots: list[IterationState] = []
    # no phase has more tasks than key frames, so more workers would sit idle
    with Workers(RunInputs(collection, config, motion), min(threads, len(refs))) as workers:
        for iteration in range(1, config.iterations + 1):
            # both phases read the proposals inside the previous state's regions
            contained = {
                (vid, kf): region_contained(collection.videos[vid].frames[kf], regions)
                for vid, by_kf in state.boxes.items() for kf, regions in by_kf.items()
            }
            graph = update_network(state, contained, workers)
            num_tubes = 1 if iteration == config.iterations else config.p_tubes
            results = workers.map(_relocalize,
                                  [(vid, graph, contained, num_tubes) for vid in video_ids])
            state = IterationState(
                iteration=iteration,
                tubes={vid: res[0] for vid, res in zip(video_ids, results)},
                saliency={vid: res[1] for vid, res in zip(video_ids, results)},
                boxes={vid: res[2] for vid, res in zip(video_ids, results)},
                graph=graph,
            )
            snapshots.append(state)

    final = {vid: state.tubes[vid][0] for vid in collection.videos}
    assert state.graph is not None
    return DiscoveryResult(final, state.graph, snapshots)
