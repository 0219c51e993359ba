"""Alternating cross-video neighbor retrieval and within-video relocalization.

Each iteration has two phases, as the method splits discovery from tracking:
``update_network`` matches regions across videos, and ``relocalize_video``
links the regions of one video. Both only read the previous iteration's
state, so the whole pipeline stays a pure function of (collection, config).

Every cross-video match runs in ``update_network``. It asks for best-match
vectors: of ``rows_t`` of frame t against ``rows_u`` of frame u, each
proposal's best match confidence. A retrieval similarity is one vector's sum,
and a saliency adds a key frame's vectors against its neighbors, so after
ranking the graph ``update_network`` also fetches the saliency vectors that
graph's relocalization reads. The run's ``MatchCache`` is its one match
service: it maps each exact input to its vector for the whole run, so a
table is matched once whichever phase or iteration asks first. A frame
pair's two directions are one table, their ``answering_table``, as swapping
the frames transposes its scores up to float reassociation; cached or not, a
key's vector is read from that table, so each key has one vector.

The cache matches the tables it lacks in chunks: tables of one shape, at
most ``CHUNK_PAIRS`` proposal pairs a chunk, each chunk one pure numpy pass
of the stacked ``match_confidences``, which leaves every table's result bit
for bit its own. It starts its threads once per ``run_discovery`` call and
hands them the tables of at least ``THREADED_PAIRS`` proposal pairs, each a
chunk of its own; the caller matches the other chunks inline, since a small
chunk holds the interpreter lock for most of its run. Every thread reads the
run's config and stacked key-frame columns, and none writes them.
Relocalization runs in the caller and reads its vectors from the cache, so it
matches nothing and outputs do not depend on the thread count.
A key frame whose boxes did not change keeps its containment mask.
Relocalization reads only the graph and the masks, so an iteration whose
graph and masks equal its predecessor's would repeat its state, and every
later iteration would repeat it too: the loop stops there without
relocalizing (``DiscoveryResult.fixed_point``), and no state is kept for the
repeats (``DiscoveryResult.state``).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .consistency import consistency_matrix, kept_consistency
from .matching import (
    LOG_SCALE_BINS,
    TRANSLATION_BINS,
    answering_table,
    appearance_confidence,
    match_confidences,
    match_side,
    saliency_keys,
    strict_containers,
)
from .model import (
    Box,
    Collection,
    Columns,
    Config,
    Frame,
    FrameRef,
    NeighborGraph,
    Proposal,
    ValidationError,
    Video,
    build_columns,
    check_integer,
    check_key_frames,
    key_frames,
)
from .motion import VideoTrackIndex, motion_coherence_many
from .solver import Trellis, TubeSolution, build_trellis, solve_p_best

# A proposal counts as lying inside the localized regions when at least this
# share of its area is covered by their union.
CONTAINMENT_RATIO = 0.9

# A table of at least this many proposal pairs is matched on a worker thread.
# A smaller one holds the interpreter lock for most of its run, so it is
# matched inline: on two cores, threads that take every table made the
# acceptance collection slower than one worker.
THREADED_PAIRS = 1000

# Smaller tables of one shape are matched together, this many proposal pairs
# at most per stacked pass: one pass pays numpy's per-call overhead once for
# all of them, and each table's result stays bit for bit its own. A pass
# needs 896 bytes a pair for its (s*u, M) outer product, so the cache keeps
# one buffer for it: allocated per pass, glibc handed those pages back and
# faulted them in again on most passes.
CHUNK_PAIRS = 512


@dataclass
class IterationState:
    """Everything one iteration hands to the next: tubes, regions, saliencies."""

    iteration: int
    tubes: dict[str, list[TubeSolution]] = field(default_factory=dict)
    boxes: dict[str, dict[int, list[Box]]] = field(default_factory=dict)
    saliency: dict[str, dict[int, dict[int, float]]] = field(default_factory=dict)
    graph: NeighborGraph | None = None


class MatchCounts(NamedTuple):
    """How many tables one iteration's retrieval and saliency matched, and how
    many best-match vectors they copied from the run's ``MatchCache``, which
    held them before; an empty pool is neither. A table matched for one key
    also answers its reverse, so matched + reused can fall short of the keys
    asked for."""

    iteration: int
    retrieval_matched: int
    retrieval_reused: int
    saliency_matched: int
    saliency_reused: int


@dataclass
class DiscoveryResult:
    """The final tubes and graph, and the state of each relocalized iteration
    and of the final one (``snapshots``), from which ``state`` reads any.

    ``fixed_point`` is the first iteration whose graph and masks repeat its
    predecessor's, after which no iteration was computed; None when no
    iteration repeats or the repeat is the last iteration. ``match_counts``
    has one entry per computed iteration, the repeat included.
    """

    tubes: dict[str, TubeSolution]
    graph: NeighborGraph
    snapshots: list[IterationState]
    fixed_point: int | None = None
    match_counts: list[MatchCounts] = field(default_factory=list)

    def state(self, iteration: int) -> IterationState:
        """The state of ``iteration``: the last snapshot at or before it."""
        return [s for s in self.snapshots if s.iteration <= iteration][-1]


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


def bootstrap_neighbors(frames: dict[FrameRef, Frame], k: int) -> NeighborGraph:
    """First-round retrieval among the key ``frames`` (ref -> ``Frame``) by L2
    distance between frame signatures; the similarity is the negated distance."""
    refs = list(frames)
    stacked = np.stack([np.asarray(frame.signature, dtype=float) for frame in frames.values()])
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


def frame_similarity(query_frame: Frame | Columns, query_rows, cand_frame: Frame | Columns,
                     cand_rows, config: Config, out: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Best match confidence of each query pool proposal against one candidate
    frame's pool, and of each candidate pool proposal against the query pool,
    both pools given as rows of what their frame argument is (see
    ``match_confidences``): the row and column maxima of one
    ``match_confidences`` table, or of each table of a stacked chunk. The
    frames' similarity is the first's sum. ``out`` is handed to
    ``match_confidences``, which rejects an empty pool.
    """
    _, scores = match_confidences(query_rows, cand_rows, query_frame, cand_frame, config, out)
    return scores.max(axis=-1), scores.max(axis=-2)


class MatchCache:
    """The run's one match service: the best-match vectors of both directions
    of every table the run matched, by (``match_side`` of t, of u). A key and
    its reverse name one table, their ``answering_table``, matched once: its
    row maxima are kept under it and its column maxima under the reverse, so
    every vector is bit for bit that rule's fresh match. ``tables`` maps each
    key to its vector, a view of its chunk's stacked vectors made once when
    the chunk is stored. ``counts`` has the (tables matched, vectors reused)
    of each ``vectors`` call.

    Both discovery phases read the run from it: its config, its key
    ``frames`` (ref -> ``Frame``, video by video in collection order) and
    their ``columns``, one stack that ``build_columns`` shares among them. The
    tables a ``vectors`` call lacks are grouped by shape and cut into chunks
    of at most ``CHUNK_PAIRS`` proposal pairs, and each chunk is one stacked
    ``match_confidences`` pass, whose rows are gathered from the stack with
    one fancy index a side. A table of at least ``THREADED_PAIRS`` pairs is a
    chunk of its own: with ``threads`` > 1, that many threads, at most one per
    key frame, take those chunks while the caller matches the others, and
    leaving the ``with`` block ends them.
    """

    def __init__(self, collection: Collection, config: Config, threads: int = 1):
        self.config = config
        self.tables: dict[tuple, np.ndarray] = {}
        self.counts: list[tuple[int, int]] = []
        self.frames = {(vid, kf): video.frames[kf] for vid, video in collection.videos.items()
                       for kf in key_frames(video, config.keyframe_stride)}
        # before the threads start, so that none builds a frame's columns
        self.columns = build_columns(self.frames.values())
        self._first_row = dict(zip(self.columns.refs, self.columns.starts))
        # the outer products of the chunks the caller matches (see CHUNK_PAIRS)
        self._outer = np.empty(CHUNK_PAIRS * LOG_SCALE_BINS * TRANSLATION_BINS)
        threads = min(threads, len(self.frames))  # bounded by the collection's size
        self._pool = None if threads == 1 else ThreadPoolExecutor(threads)

    def __enter__(self) -> MatchCache:
        return self

    def __exit__(self, *_exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)

    def vectors(self, keys: list) -> None:
        """Have every key held in ``tables``: the tables not held are matched,
        one per unordered table, in chunks, the caller matching the small ones
        while the threads take the rest. A key held before the call is reused."""
        missing = [key for key in keys if key not in self.tables]
        tables = list(dict.fromkeys(answering_table(key) for key in missing))
        self.counts.append((len(tables), len(keys) - len(missing)))
        chunks = _chunks(tables)
        pooled = {} if self._pool is None else {
            i: self._pool.submit(self._match, chunk)
            for i, chunk in enumerate(chunks) if _pairs(chunk[0]) >= THREADED_PAIRS}
        matched = [(chunk, self._match(chunk, self._outer)) for i, chunk in enumerate(chunks)
                   if i not in pooled]
        matched += [(chunks[i], future.result()) for i, future in pooled.items()]
        for chunk, (rows, cols) in matched:
            for table, row, col in zip(chunk, rows, cols):
                self.tables[table[::-1]] = col
                self.tables[table] = row  # a key that is its own reverse keeps its rows

    def _match(self, chunk: list, outer: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        """The row and column best-match vectors of a chunk's same-shape
        tables, stacked as (T, n_t) and (T, n_u); a chunk of at most
        ``CHUNK_PAIRS`` pairs builds its outer product in ``outer``."""
        fits = len(chunk) * _pairs(chunk[0]) <= CHUNK_PAIRS
        return frame_similarity(self.columns, self._rows([t for t, _ in chunk]),
                                self.columns, self._rows([u for _, u in chunk]), self.config,
                                outer if fits else None)

    def _rows(self, sides: list) -> np.ndarray:
        """The (T, n) rows of same-length ``match_side`` sides in the stack."""
        starts = np.array([self._first_row[vid, kf] for vid, kf, _ in sides], dtype=np.intp)
        rows = np.frombuffer(b"".join([rows for _, _, rows in sides]), dtype=np.intp)
        return rows.reshape(len(sides), -1) + starts[:, None]


def _pairs(key) -> int:
    """The proposal pairs of a ``MatchCache`` key's table."""
    (_, _, rows_t), (_, _, rows_u) = key
    return len(rows_t) * len(rows_u) // np.dtype(np.intp).itemsize ** 2


def _chunks(tables: list) -> list[list]:
    """``tables`` grouped by shape, in order of first appearance, and cut into
    runs of at most ``CHUNK_PAIRS`` proposal pairs; a table of at least
    ``THREADED_PAIRS`` pairs, or of more than ``CHUNK_PAIRS``, is a run of one."""
    by_shape: dict[tuple[int, int], list] = {}
    for table in tables:
        (_, _, rows_t), (_, _, rows_u) = table
        by_shape.setdefault((len(rows_t), len(rows_u)), []).append(table)
    chunks = []
    for group in by_shape.values():
        pairs = _pairs(group[0])
        size = 1 if pairs >= THREADED_PAIRS else max(1, CHUNK_PAIRS // pairs)
        chunks += [group[i:i + size] for i in range(0, len(group), size)]
    return chunks


def neighbor_pools(ref: FrameRef, graph: NeighborGraph, contained: dict[FrameRef, np.ndarray],
                   frames: dict[FrameRef, Frame]) -> list[tuple[Frame, np.ndarray]]:
    """The pools key frame ``ref``'s saliency reads: each neighbor's frame, from
    the run's key ``frames``, and the rows ``contained`` marks in it, in
    neighbor order, skipping the neighbors with none."""
    pools = []
    for neighbor, _sim in graph.neighbors.get(ref, []):
        rows = contained[neighbor].nonzero()[0]  # a mask is 1-D: flatnonzero's rows, faster
        if rows.size:
            pools.append((frames[neighbor], rows))
    return pools


def update_network(state: IterationState, contained: dict[FrameRef, np.ndarray],
                   cache: MatchCache) -> NeighborGraph:
    """Re-rank each key frame's k matching neighbors among the run's key
    frames of other videos, then have ``cache`` hold the saliency vectors of
    the new graph.

    Iteration 0 falls back to signature-based bootstrap retrieval, which
    matches no table; later iterations match the localized-region proposal
    pools of frame pairs, which ``contained`` (the ``region_contained`` mask of
    each key frame for ``state.boxes``) selects; ``retrieval_pool`` picks each
    pool and matching receives it in row order. An entry's similarity is its
    best-match vector's sum, 0 when a pool is empty. The saliency tables are
    the ``saliency_keys`` of each key frame's ``neighbor_pools``, as
    ``relocalize_video`` reads them. Retrieval and saliency each make one
    ``cache.vectors`` call, which matches the tables the cache lacks, and
    similarities are read from ``cache.tables``.
    """
    config, frames = cache.config, cache.frames
    if state.iteration == 0:
        cache.vectors([])  # counts retrieval's (0, 0)
        graph = bootstrap_neighbors(frames, config.k_neighbors)
    else:
        refs = list(frames)
        # in row order: a similarity depends on the pool's set, not its ranking
        pools = [np.sort(retrieval_pool(frame, contained[ref], state.saliency[ref[0]][ref[1]],
                                        config.retrieval_proposals))
                 for ref, frame in frames.items()]
        sides = [match_side(frame, pool) for frame, pool in zip(frames.values(), pools)]
        videos = np.array([vid for vid, _ in refs], dtype=object)
        cross = videos[:, None] != videos[None, :]  # same-video pairs are never ranked
        similarity = np.where(cross, 0.0, np.nan)
        sized = np.array([pool.size > 0 for pool in pools])
        wanted = cross & sized[:, None] & sized[None, :]
        cache.vectors([(sides[q], sides[c]) for q, c in np.argwhere(wanted).tolist()])
        for q, cols in enumerate(map(np.flatnonzero, wanted)):
            if cols.size:  # a row's sums at once: the same as each vector's own sum
                similarity[q, cols] = np.array([cache.tables[sides[q], sides[c]]
                                                for c in cols]).sum(axis=1)
        graph = _rank_neighbors(refs, similarity, config.k_neighbors)

    cache.vectors([key for ref, frame in frames.items()
                   for key in saliency_keys(frame, neighbor_pools(ref, graph, contained, frames))])
    return graph


class VideoMotion(NamedTuple):
    """What tracking reads of a video's key frames in every iteration; proposals
    and tracks never change during a run, so ``motion_scores`` computes it once."""

    coherence: dict[int, np.ndarray]  # key frame -> motion coherence per proposal row
    containers: dict[int, np.ndarray]  # key frame -> its proposals' strict_containers
    consistency: list[tuple[np.ndarray, np.ndarray]]  # transition -> consistency_matrix parts


def motion_scores(video: Video, kfs: list[int], theta: float) -> VideoMotion:
    """Motion coherence and strict containers of each proposal of the given key
    frames, and each transition's consistency parts over all their proposals."""
    index = VideoTrackIndex(video, kfs)
    frames = [video.frames[kf] for kf in kfs]
    return VideoMotion(
        {kf: motion_coherence_many(frame.boxes, tracks)
         for kf, frame, tracks in zip(kfs, frames, index.at)},
        {kf: strict_containers(frame.boxes) for kf, frame in zip(kfs, frames)},
        [consistency_matrix(a.descriptors, b.descriptors, a.boxes, b.boxes, *points, theta)
         for a, b, points in zip(frames, frames[1:], index.shared)],
    )


def build_video_trellis(video: Video,
                        pools_by_kf: dict[int, list[tuple[Frame, np.ndarray | list[Proposal]]]],
                        config: Config, motion: VideoMotion | None = None,
                        vectors: dict | None = None
                        ) -> tuple[Trellis, dict[int, dict[int, float]]]:
    """Score all proposals of a video's key frames and assemble the DP trellis.

    Each neighbor pool is a row array or a ``Proposal`` list of its frame (see
    ``frame_saliencies``). ``motion`` holds the ``motion_scores`` of the key
    frames, computed here when not given; the kept candidates' consistency is
    gathered from its parts. ``vectors`` is handed to ``frame_saliencies``.
    Returns the trellis plus the per-frame raw saliency maps needed by the
    next retrieval round.
    """
    kfs = sorted(pools_by_kf)
    if motion is None:
        motion = motion_scores(video, kfs, config.theta)
    frames = [video.frames[kf] for kf in kfs]
    scores_per_frame, saliency_maps = [], {}
    for kf, frame in zip(kfs, frames):
        phi_a, saliency = appearance_confidence(frame, motion.containers[kf], pools_by_kf[kf],
                                                config, vectors)
        scores_per_frame.append(phi_a + config.alpha * motion.coherence[kf])
        saliency_maps[kf] = dict(zip(frame.ids.tolist(), saliency.tolist()))
    trellis = build_trellis(video.video_id, kfs, [frame.ids for frame in frames],
                            scores_per_frame, config.top_candidates,
                            lambda t, rows_a, rows_b: kept_consistency(motion.consistency[t],
                                                                       rows_a, rows_b))
    return trellis, saliency_maps


def relocalize_video(video: Video, graph: NeighborGraph,
                     contained: dict[FrameRef, np.ndarray], num_tubes: int,
                     motion: dict[str, VideoMotion], cache: MatchCache
                     ) -> tuple[list[TubeSolution], dict[int, dict[int, float]],
                                dict[int, list[Box]]]:
    """Optimize one video against its neighbors' currently localized regions,
    whose proposals ``contained`` marks per key frame. ``motion`` holds the
    run's ``motion_scores`` by video: a video's first relocalization adds its
    own. ``cache`` is the run's ``MatchCache``: it holds the run's config and
    key frames, and ``update_network`` put every saliency table in it, so
    ``frame_saliencies`` matches nothing here.

    Returns the tubes, saliency maps and new localized boxes per key frame.
    """
    config = cache.config
    kfs = key_frames(video, config.keyframe_stride)
    if video.video_id not in motion:
        motion[video.video_id] = motion_scores(video, kfs, config.theta)
    pools_by_kf = {kf: neighbor_pools((video.video_id, kf), graph, contained, cache.frames)
                   for kf in kfs}
    trellis, saliency_maps = build_video_trellis(video, pools_by_kf, config,
                                                 motion[video.video_id], cache.tables)
    solutions = solve_p_best(trellis, num_tubes, config.lambda_)
    boxes_by_kf = {kf: [video.frames[kf].proposal_by_id(sol.tube.regions[kf]).box
                        for sol in solutions] for kf in kfs}
    return solutions, saliency_maps, boxes_by_kf


def check_threads(threads: int) -> None:
    """A thread count ``run_discovery`` accepts: an integer of at least 1."""
    check_integer("threads", threads)
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")


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
    robustness; the last keeps a single one. The run's ``MatchCache`` matches
    every table, on at most ``threads`` threads of its own and at most one
    per key frame. Deterministic for a given (collection, config) regardless
    of the thread count.

    Each table is matched once per run, and the loop stops at the first
    iteration that repeats its predecessor (see the module docstring). Of
    the iterations from there on, only the final one is kept: the last
    state with each video's first tube, which ``solve_p_best`` finds the
    same for any tube count.
    """
    config.validate()
    check_threads(threads)
    check_key_frames(collection, config.keyframe_stride)
    check_objective_bound(collection, config)
    cache = MatchCache(collection, config, threads)  # stacks the key frames' columns
    motion: dict[str, VideoMotion] = {}  # filled by each video's first relocalization
    state = initialize_state(collection, config)
    # both phases read the proposals inside the previous state's regions
    contained = {ref: region_contained(frame, state.boxes[ref[0]][ref[1]])
                 for ref, frame in cache.frames.items()}
    snapshots: list[IterationState] = []
    counts: list[MatchCounts] = []
    fixed_point = None
    moved = []  # (mask before, mask after) of each key frame whose boxes last changed
    with cache:
        for iteration in range(1, config.iterations + 1):
            graph = update_network(state, contained, cache)
            counts.append(MatchCounts(iteration, *cache.counts[-2], *cache.counts[-1]))
            if graph == state.graph and all(np.array_equal(a, b) for a, b in moved):
                # relocalization reads only the graph and the masks, so it would repeat
                fixed_point = iteration if iteration < config.iterations else None
                break
            last = iteration == config.iterations
            results = {vid: relocalize_video(video, graph, contained,
                                             1 if last else config.p_tubes, motion, cache)
                       for vid, video in collection.videos.items()}
            # the final iteration's regions are read by no one
            changed = {} if last else {
                (vid, kf): region_contained(cache.frames[vid, kf], regions)
                for vid, res in results.items() for kf, regions in res[2].items()
                if regions != state.boxes[vid][kf]}
            moved = [(contained[ref], mask) for ref, mask in changed.items()]
            contained = {**contained, **changed}
            state = IterationState(
                iteration=iteration,
                tubes={vid: res[0] for vid, res in results.items()},
                saliency={vid: res[1] for vid, res in results.items()},
                boxes={vid: res[2] for vid, res in results.items()},
                graph=graph,
            )
            snapshots.append(state)

    if state.iteration < config.iterations:  # the loop stopped at a repeat
        state = replace(state, iteration=config.iterations,
                        tubes={vid: sols[:1] for vid, sols in state.tubes.items()},
                        boxes={vid: {kf: regions[:1] for kf, regions in by_kf.items()}
                               for vid, by_kf in state.boxes.items()})
        snapshots.append(state)
    final = {vid: state.tubes[vid][0] for vid in collection.videos}
    assert state.graph is not None
    return DiscoveryResult(final, state.graph, snapshots, fixed_point, counts)
