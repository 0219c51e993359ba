"""Shared builders and scalar reference implementations for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from tubeloc import discovery
from tubeloc.matching import answering_table, match_confidences, match_side
from tubeloc.model import (
    Box,
    Collection,
    Config,
    Frame,
    NeighborGraph,
    Proposal,
    Track,
    Video,
    key_frames,
)
from tubeloc.solver import Trellis, solve_p_best


def basis_vec(dim: int, axis: int) -> np.ndarray:
    v = np.zeros(dim)
    v[axis] = 1.0
    return v


def rand_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def make_frame(video_id="v0", frame_index=0, width=320.0, height=240.0,
               proposals=(), signature=None) -> Frame:
    if signature is None:
        signature = np.zeros(4)
    return Frame(video_id, frame_index, width, height, list(proposals), signature)


def all_rows(frame: Frame) -> np.ndarray:
    """Every row of a frame's array view, in proposal order."""
    return np.arange(len(frame.proposals))


def rand_frame(rng: np.random.Generator, video_id: str, n_proposals: int,
               dim: int = 16, width: float = 320.0, height: float = 240.0) -> Frame:
    props = []
    for i in range(n_proposals):
        w = rng.uniform(10, 0.5 * width)
        h = rng.uniform(10, 0.5 * height)
        x = rng.uniform(0, width - w)
        y = rng.uniform(0, height - h)
        props.append(Proposal(i, Box(x, y, w, h), rand_unit(rng, dim)))
    return make_frame(video_id, 0, width, height, props)


def static_track(tid: int, label: int, x: float, y: float, start: int, length: int) -> Track:
    return Track(tid, label, start, np.array([[x, y]] * length, dtype=float))


def single_frame_video(frame: Frame, tracks=()) -> Video:
    return Video(frame.video_id, 1, {frame.frame_index: frame}, list(tracks))


def random_trellis(rng: np.random.Generator, max_frames: int = 6,
                   max_candidates: int = 8) -> Trellis:
    T = int(rng.integers(1, max_frames + 1))
    sizes = [int(rng.integers(1, max_candidates + 1)) for _ in range(T)]
    ids = [np.sort(rng.choice(1000, size=n, replace=False)).astype(int) for n in sizes]
    unary = [rng.uniform(0.0, 1.0, size=n) for n in sizes]
    pairwise = [rng.uniform(-2.0, 1.0, size=(sizes[t], sizes[t + 1])) for t in range(T - 1)]
    return Trellis("synthetic", list(range(T)), ids, unary, pairwise)


def remove_choice(trellis: Trellis, regions: dict[int, int]) -> Trellis | None:
    """Independent candidate removal used to build residual trellises in tests."""
    positions = []
    for t, kf in enumerate(trellis.frame_indices):
        pid = regions[kf]
        positions.append(int(np.flatnonzero(trellis.candidate_ids[t] == pid)[0]))
    if any(ids.size <= 1 for ids in trellis.candidate_ids):
        return None
    ids = [np.delete(trellis.candidate_ids[t], positions[t])
           for t in range(trellis.num_frames)]
    unary = [np.delete(trellis.unary[t], positions[t]) for t in range(trellis.num_frames)]
    pairwise = [
        np.delete(np.delete(trellis.pairwise[t], positions[t], axis=0),
                  positions[t + 1], axis=1)
        for t in range(trellis.num_frames - 1)
    ]
    return Trellis(trellis.video_id, trellis.frame_indices, ids, unary, pairwise)


def move_out_of_frame(video: Video, stride: int) -> None:
    """Move every key-frame proposal of ``video`` half out of its frame, so
    the whole-frame regions of the first iteration contain none of them."""
    for kf in key_frames(video, stride):
        for proposal in video.frames[kf].proposals:
            box = proposal.box
            proposal.box = Box(-box.width / 2, box.y_min, box.width, box.height)


def key_frame_map(collection: Collection, stride: int) -> dict[tuple[str, int], Frame]:
    """Every key frame of the collection, ref -> ``Frame``, video by video in
    collection order, as ``MatchCache.frames`` holds them."""
    return {(vid, kf): video.frames[kf] for vid, video in collection.videos.items()
            for kf in key_frames(video, stride)}


class DirectedMatchCache(discovery.MatchCache):
    """A ``MatchCache`` that matches every key it lacks as a table of its own:
    both directions of a frame pair are matched, and each vector is a fresh
    table's row maxima."""

    def vectors(self, keys: list) -> None:
        missing = [key for key in keys if key not in self.tables]
        self.counts.append((len(missing), len(keys) - len(missing)))
        self.tables.update((key, self._match([key])[0][0]) for key in missing)


def fresh_vector(key: tuple, collection: Collection, config: Config) -> np.ndarray:
    """A best-match key's vector, matched afresh from its ``answering_table``:
    the table's row maxima when the key is that table, its column maxima
    otherwise."""
    table = answering_table(key)
    (vid_t, kf_t, rows_t), (vid_u, kf_u, rows_u) = table
    _, scores = match_confidences(np.frombuffer(rows_t, dtype=np.intp),
                                  np.frombuffer(rows_u, dtype=np.intp),
                                  collection.videos[vid_t].frames[kf_t],
                                  collection.videos[vid_u].frames[kf_u], config)
    return scores.max(axis=1 if key == table else 0)


def recomputing_discovery(collection: Collection, config: Config,
                          directed: bool = False) -> discovery.DiscoveryResult:
    """``run_discovery``'s loop with every iteration computed in full, at one
    worker: each iteration has a fresh match cache, so no match result is
    carried over from an earlier iteration, and the loop runs all
    ``config.iterations`` iterations. With ``directed`` the cache is a
    ``DirectedMatchCache``, which matches each direction of a frame pair
    fresh. It looks the discovery functions up on their module, so a test
    can patch them."""
    motion: dict = {}  # relocalize_video adds each video's motion_scores
    state = discovery.initialize_state(collection, config)
    snapshots = []
    for iteration in range(1, config.iterations + 1):
        contained = {
            (vid, kf): discovery.region_contained(collection.videos[vid].frames[kf], regions)
            for vid, by_kf in state.boxes.items() for kf, regions in by_kf.items()
        }
        cache = (DirectedMatchCache if directed else discovery.MatchCache)(collection, config)
        graph = discovery.update_network(state, contained, cache)
        num_tubes = 1 if iteration == config.iterations else config.p_tubes
        results = {vid: discovery.relocalize_video(video, graph, contained, num_tubes,
                                                   motion, cache)
                   for vid, video in collection.videos.items()}
        state = discovery.IterationState(
            iteration=iteration,
            tubes={vid: res[0] for vid, res in results.items()},
            saliency={vid: res[1] for vid, res in results.items()},
            boxes={vid: res[2] for vid, res in results.items()},
            graph=graph,
        )
        snapshots.append(state)
    return discovery.DiscoveryResult({vid: state.tubes[vid][0] for vid in collection.videos},
                                     state.graph, snapshots)


def reference_discovery(collection: Collection, config: Config
                        ) -> list[discovery.IterationState]:
    """The method of ``run_discovery`` without its shortcuts, one state per
    iteration: no match cache, a retrieval similarity per ordered frame pair
    (its pools in row order, as ``update_network`` matches them, and 0 when
    either is empty) from a ``fresh_vector``, a full sort for each key frame's
    neighbors, containment masks recomputed every iteration, saliencies
    matched afresh by ``build_video_trellis``, and every iteration computed."""
    stride = config.keyframe_stride
    refs = [(vid, kf) for vid, video in collection.videos.items()
            for kf in key_frames(video, stride)]
    frames = {(vid, kf): collection.videos[vid].frames[kf] for vid, kf in refs}
    state = discovery.initialize_state(collection, config)
    snapshots = []
    for iteration in range(1, config.iterations + 1):
        contained = {ref: discovery.region_contained(frame, state.boxes[ref[0]][ref[1]])
                     for ref, frame in frames.items()}
        if iteration == 1:
            ranking = discovery.bootstrap_neighbors(frames, len(refs)).neighbors
        else:
            pools = {ref: np.sort(discovery.retrieval_pool(frame, contained[ref],
                                                           state.saliency[ref[0]][ref[1]],
                                                           config.retrieval_proposals))
                     for ref, frame in frames.items()}

            def similarity(q, c) -> float:
                if pools[q].size == 0 or pools[c].size == 0:
                    return 0.0
                key = (match_side(frames[q], pools[q]), match_side(frames[c], pools[c]))
                return float(fresh_vector(key, collection, config).sum())

            ranking = {q: sorted([(c, similarity(q, c)) for c in refs if c[0] != q[0]],
                                 key=lambda entry: (-entry[1], entry[0]))
                       for q in refs}
        graph = NeighborGraph({q: entries[:config.k_neighbors] for q, entries in ranking.items()})
        num_tubes = 1 if iteration == config.iterations else config.p_tubes
        tubes, saliency, boxes = {}, {}, {}
        for vid, video in collection.videos.items():
            pools_by_kf = {kf: [(frames[n], np.flatnonzero(contained[n]))
                                for n, _sim in graph.neighbors[vid, kf] if contained[n].any()]
                           for kf in key_frames(video, stride)}
            trellis, saliency[vid] = discovery.build_video_trellis(video, pools_by_kf, config)
            tubes[vid] = solve_p_best(trellis, num_tubes, config.lambda_)
            boxes[vid] = {kf: [video.frames[kf].proposal_by_id(sol.tube.regions[kf]).box
                               for sol in tubes[vid]]
                          for kf in pools_by_kf}
        state = discovery.IterationState(iteration=iteration, tubes=tubes, boxes=boxes,
                                         saliency=saliency, graph=graph)
        snapshots.append(state)
    return snapshots


def assert_same_as_reference(result: discovery.DiscoveryResult,
                             reference: list[discovery.IterationState]) -> None:
    """The state of every iteration of ``result`` equals the
    ``reference_discovery`` state of that iteration exactly: tube regions,
    neighbor lists with their similarities, and saliencies."""
    states = [result.state(i) for i in range(1, len(reference) + 1)]
    assert result.snapshots[-1].iteration == len(reference)
    for got, expected in zip(states, reference, strict=True):
        assert {vid: [sol.tube.regions for sol in sols] for vid, sols in got.tubes.items()} == \
            {vid: [sol.tube.regions for sol in sols] for vid, sols in expected.tubes.items()}
        assert got.graph.neighbors == expected.graph.neighbors
        assert got.saliency == expected.saliency


def recorded_requests(monkeypatch) -> list[list]:
    """The keys of every ``MatchCache.vectors`` call made from now on, call by
    call: a run makes two per iteration, retrieval's and then saliency's."""
    requests: list[list] = []
    vectors = discovery.MatchCache.vectors

    def recorded(cache, keys):
        requests.append(list(keys))
        vectors(cache, keys)

    monkeypatch.setattr(discovery.MatchCache, "vectors", recorded)
    return requests


def match_keys(rows_t, rows_u, frame_t, frame_u) -> list[tuple]:
    """The (``match_side`` of t, of u) key of each table one
    ``match_confidences`` call matches: its own for 1-D rows of two frames,
    and for a chunk's (T, n) rows into a ``Columns`` stack, each row's frame
    and its rows there."""
    if isinstance(frame_t, Frame):
        return [(match_side(frame_t, rows_t), match_side(frame_u, rows_u))]

    def side(columns, rows):
        i = np.searchsorted(columns.starts, rows[0], side="right") - 1
        vid, kf = columns.refs[i]
        return vid, kf, np.asarray(rows - columns.starts[i], dtype=np.intp).tobytes()

    return [(side(frame_t, t), side(frame_u, u)) for t, u in zip(rows_t, rows_u)]


def unordered_counts(requests: list[list]) -> list[tuple[int, int]]:
    """Per request of one match cache, (tables, reused): the distinct unordered
    keys that no earlier request named in either direction, and the keys that
    an earlier request did."""
    held: set[frozenset] = set()
    counts = []
    for keys in requests:
        tables = {frozenset(key) for key in keys} - held
        counts.append((len(tables), sum(frozenset(key) in held for key in keys)))
        held |= tables
    return counts


def rank_order_similarity(state: discovery.IterationState, contained: dict,
                          collection: Collection, config: Config) -> np.ndarray:
    """``update_network``'s (F, F) similarity matrix over the key frames,
    with each retrieval pool matched in ``retrieval_pool``'s rank order
    instead of row order: the same sums, associated in another order. Entries
    between key frames of one video are NaN, and an entry whose query or
    candidate pool is empty is 0."""
    by_ref = key_frame_map(collection, config.keyframe_stride)
    refs, frames = list(by_ref), list(by_ref.values())
    pools = [discovery.retrieval_pool(frame, contained[ref], state.saliency[ref[0]][ref[1]],
                                      config.retrieval_proposals)
             for ref, frame in zip(refs, frames)]
    similarity = np.full((len(refs), len(refs)), np.nan)
    for q, c in np.argwhere([[rq[0] != rc[0] for rc in refs] for rq in refs]):
        similarity[q, c] = 0.0 if pools[q].size == 0 or pools[c].size == 0 else \
            discovery.frame_similarity(frames[q], pools[q], frames[c], pools[c], config)[0].sum()
    return similarity


# -- scalar references the vectorized program is compared against ----------


def _contains_point(box: Box, x: float, y: float) -> bool:
    """Inclusive membership test for a point."""
    return box.x_min <= x <= box.x_max and box.y_min <= y <= box.y_max


def box_location(box: Box, frame_width: float, frame_height: float) -> np.ndarray:
    """Normalized center plus log square root of the box-to-frame area ratio."""
    cx = box.x_min + 0.5 * box.width
    cy = box.y_min + 0.5 * box.height
    scale = 0.5 * math.log(box.area / (frame_width * frame_height))
    return np.array([cx / frame_width, cy / frame_height, scale])


def appearance_affinity(f1, f2, gamma: float) -> float:
    """exp(-gamma * squared L2 distance); 1.0 for identical descriptors."""
    a = np.asarray(f1, dtype=float)
    b = np.asarray(f2, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"descriptor dimensions differ: {a.shape} vs {b.shape}")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    return float(np.exp(-gamma * np.sum((a - b) ** 2)))


def geometry_likelihood(offset, center, bandwidths) -> float:
    """Unnormalized diagonal Gaussian; 1.0 when the offset sits on the center."""
    off = np.asarray(offset, dtype=float)
    ctr = np.asarray(center, dtype=float)
    value = 1.0
    for k in range(3):
        z = (off[k] - ctr[k]) / bandwidths[k]
        value *= math.exp(-0.5 * z * z)
    return value


def motion_consistency(box_a: Box, box_b: Box, points_a: np.ndarray, points_b: np.ndarray,
                       theta: float) -> float:
    """Average unit-square L1 drift of shared tracks, negated; theta when none.

    Rows of ``points_a``/``points_b`` are the same track's coordinates at the
    two frames; a track is shared only when it lies inside both boxes.
    """
    points_a = np.asarray(points_a, dtype=float).reshape(-1, 2)
    points_b = np.asarray(points_b, dtype=float).reshape(-1, 2)
    if points_a.shape != points_b.shape:
        raise ValueError("point arrays must pair up row by row")
    in_a = np.array([_contains_point(box_a, x, y) for x, y in points_a], dtype=bool)
    in_b = np.array([_contains_point(box_b, x, y) for x, y in points_b], dtype=bool)
    shared = in_a & in_b
    count = int(shared.sum())
    if count == 0:
        return float(theta)
    ua = (points_a[shared, 0] - box_a.x_min) / box_a.width
    va = (points_a[shared, 1] - box_a.y_min) / box_a.height
    ub = (points_b[shared, 0] - box_b.x_min) / box_b.width
    vb = (points_b[shared, 1] - box_b.y_min) / box_b.height
    drift = np.abs(ua - ub) + np.abs(va - vb)
    return float(-drift.sum() / (2.0 * count))


def motion_coherence(box: Box, labels: np.ndarray, xy: np.ndarray) -> float:
    """Per-cell reference of ``motion_coherence_many`` for one box.

    Each point inside the box falls in a cell of its 5x5 grid; a cell's label
    is the majority of its points' labels (ties to the smaller label). A
    cluster's weight is the share of its frame points inside the box. Each
    edge adds the best weight among its occupied cells, in the order L, R, T, B.
    """
    grid = 5
    points = list(zip(xy.tolist(), labels.tolist()))
    inside = [(x, y, label) for (x, y), label in points if _contains_point(box, x, y)]
    cells: dict[tuple[int, int], list[int]] = {}
    for x, y, label in inside:
        col = min(max(int((x - box.x_min) / box.width * grid), 0), grid - 1)
        row = min(max(int((y - box.y_min) / box.height * grid), 0), grid - 1)
        cells.setdefault((row, col), []).append(label)

    def weight(label: int) -> float:
        return sum(lab == label for *_, lab in inside) / labels.tolist().count(label)

    edges = (
        [(i, 0) for i in range(grid)], [(i, grid - 1) for i in range(grid)],
        [(0, j) for j in range(grid)], [(grid - 1, j) for j in range(grid)],
    )
    total = 0.0
    for edge in edges:
        majorities = [max(sorted(set(cells[c])), key=cells[c].count) for c in edge if c in cells]
        if majorities:
            total += max(weight(label) for label in majorities)
    return total


def shared_track_points(video: Video, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-track reference of ``VideoTrackIndex.shared``: the points at frames
    ``a`` and ``b`` of every track alive at both, in track order."""
    points_a, points_b = [], []
    for track in video.tracks:
        last = track.start_frame + len(track.points) - 1
        if track.start_frame <= min(a, b) and max(a, b) <= last:
            points_a.append(track.points[a - track.start_frame])
            points_b.append(track.points[b - track.start_frame])
    return (np.array(points_a, dtype=float).reshape(-1, 2),
            np.array(points_b, dtype=float).reshape(-1, 2))


def union_area_exact(box: Box, regions) -> Fraction:
    """Exact area of ``box`` covered by the union of ``regions``.

    Inclusion-exclusion over every non-empty subset of regions, in rational
    arithmetic on the boxes' float edges, so no rounding enters.
    """
    def edges(b: Box):
        return (Fraction(b.x_min), Fraction(b.y_min), Fraction(b.x_max), Fraction(b.y_max))

    outer = edges(box)
    area = Fraction(0)
    for size in range(1, len(regions) + 1):
        for subset in combinations([edges(r) for r in regions], size):
            x0 = max([outer[0]] + [e[0] for e in subset])
            y0 = max([outer[1]] + [e[1] for e in subset])
            x1 = min([outer[2]] + [e[2] for e in subset])
            y1 = min([outer[3]] + [e[3] for e in subset])
            if x1 > x0 and y1 > y0:
                area += (-1) ** (size + 1) * (x1 - x0) * (y1 - y0)
    return area
