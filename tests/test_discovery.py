import math
import multiprocessing
import os
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tubeloc.discovery as discovery
import tubeloc.matching as matching
from helpers import (
    all_rows,
    assert_same_as_reference,
    basis_vec,
    frame_appearance,
    frame_contained,
    fresh_vector,
    key_frame_map,
    make_frame,
    match_keys,
    move_out_of_frame,
    rand_frame,
    rand_unit,
    rank_order_similarity,
    recomputing_discovery,
    recorded_requests,
    reference_discovery,
    shared_track_points,
    union_area_exact,
    unordered_counts,
)
from tubeloc.consistency import appearance_consistency_matrix, motion_consistency_matrix
from tubeloc.discovery import (
    CONTAINMENT_RATIO,
    MatchCache,
    _rank_neighbors,
    bootstrap_neighbors,
    build_video_trellis,
    check_objective_bound,
    frame_similarity,
    initialize_state,
    region_contained,
    retrieval_pool,
    run_discovery,
    update_network,
)
from tubeloc.matching import (
    answering_table,
    appearance_confidence,
    frame_saliencies,
    match_confidences,
    match_side,
    strict_containers,
)
from tubeloc.motion import motion_coherence_many
from tubeloc.model import (
    Box,
    Collection,
    Config,
    Frame,
    Proposal,
    ValidationError,
    Video,
    key_frames,
    padded_rows,
)
from tubeloc.synth import SynthSpec, generate_collection


def _collection_of_frames(frames_by_video: dict[str, list[Frame]], sig_dim=4,
                          desc_dim=4) -> Collection:
    collection = Collection(desc_dim, sig_dim)
    for vid, frames in frames_by_video.items():
        collection.videos[vid] = Video(vid, len(frames), {f.frame_index: f for f in frames})
    return collection


def _signature_frame(vid, idx, signature, n_props=1):
    props = [Proposal(i, Box(10 + 5 * i, 10, 30, 30), basis_vec(4, i % 4))
             for i in range(n_props)]
    return Frame(vid, idx, 320.0, 240.0, props, np.asarray(signature, dtype=float))


class TestInitialize:
    def test_whole_frame_boxes(self, noise_free_bundle):
        collection, _, _ = noise_free_bundle
        state = initialize_state(collection, Config())
        assert state.iteration == 0
        for vid, video in collection.videos.items():
            for kf in key_frames(video, 20):
                frame = video.frames[kf]
                assert state.boxes[vid][kf] == [Box(0.0, 0.0, frame.width, frame.height)]

    def test_single_frame_video(self):
        frame = _signature_frame("v0", 0, [1, 0, 0, 0])
        collection = _collection_of_frames({"v0": [frame]})
        state = initialize_state(collection, Config())
        assert list(state.boxes["v0"]) == [0]


class TestBootstrap:
    def test_identical_signature_ranked_first(self):
        frames = {
            "a": [_signature_frame("a", 0, [1, 0, 0, 0])],
            "b": [_signature_frame("b", 0, [1, 0, 0, 0])],
            "c": [_signature_frame("c", 0, [0, 1, 0, 0])],
        }
        graph = bootstrap_neighbors(key_frame_map(_collection_of_frames(frames), 20), k=2)
        assert graph.neighbors[("a", 0)][0] == (("b", 0), 0.0)

    def test_saturation_returns_all_other_frames(self):
        frames = {
            "a": [_signature_frame("a", 0, [1, 0, 0, 0])],
            "b": [_signature_frame("b", 0, [0, 1, 0, 0])],
        }
        graph = bootstrap_neighbors(key_frame_map(_collection_of_frames(frames), 20), k=10)
        assert len(graph.neighbors[("a", 0)]) == 1

    def test_self_video_never_retrieved(self, noise_free_bundle):
        collection, _, _ = noise_free_bundle
        graph = bootstrap_neighbors(key_frame_map(collection, 20), k=10)
        for (vid, _t), entries in graph.neighbors.items():
            assert entries, "every key frame should retrieve someone"
            assert all(nvid != vid for (nvid, _nt), _s in entries)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_reference_sort_in_any_video_order(self, data):
        # small-integer signatures make exact distance ties common, and
        # inserting the videos out of sorted order separates collection order
        # from the (video id, frame) tie order
        vids = data.draw(st.permutations(["a", "b", "c", "d"]), label="insertion order")
        stride = 2
        frames = {}
        for vid in vids[:data.draw(st.integers(1, 4), label="videos")]:
            length = data.draw(st.integers(1, 5), label="frames")
            frames[vid] = [
                _signature_frame(vid, t, data.draw(st.lists(st.integers(-1, 1), min_size=4,
                                                            max_size=4), label="signature"))
                for t in range(length)
            ]
        collection = _collection_of_frames(frames)
        k = data.draw(st.integers(1, 12), label="k")
        graph = bootstrap_neighbors(key_frame_map(collection, stride), k=k)

        refs = [(vid, t) for vid, video in collection.videos.items()
                for t in range(0, video.num_frames, stride)]
        signature = {ref: collection.videos[ref[0]].frames[ref[1]].signature for ref in refs}
        expected = {}
        for q in refs:
            ranked = sorted((math.sqrt(sum((signature[q] - signature[c]) ** 2)), c)
                            for c in refs if c[0] != q[0])
            expected[q] = [(c, -dist) for dist, c in ranked[:k]]
        assert graph.neighbors == expected


def _frame_of(boxes) -> Frame:
    return make_frame(proposals=[Proposal(i, box, basis_vec(4, 0))
                                 for i, box in enumerate(boxes)])


@st.composite
def _int_box(draw, lo: int, hi: int) -> Box:
    x0, x1 = sorted(draw(st.lists(st.integers(lo, hi), min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(st.integers(lo, hi), min_size=2, max_size=2, unique=True)))
    return Box(x0, y0, x1 - x0, y1 - y0)


def _real_box(lo: float, hi: float):
    return st.builds(Box, st.floats(lo, hi), st.floats(lo, hi),
                     st.floats(1.0, 100.0), st.floats(1.0, 100.0))


@st.composite
def _containment_case(draw):
    """1-4 proposals on a 0..20 grid and 1-5 regions that may extend past them.

    After the first, each region is free or derived from an earlier one: a
    duplicate, a box nested inside it, or a box sharing its right or bottom
    edge. Integer and eighth-integer edges keep every area exact in floating
    point.
    """
    boxes = draw(st.lists(_int_box(0, 20), min_size=1, max_size=4))
    regions = [draw(_int_box(-4, 24))]
    for _ in range(draw(st.integers(0, 4))):
        base = draw(st.sampled_from(regions))
        kind = draw(st.sampled_from(["free", "duplicate", "nested", "right", "below"]))
        if kind == "duplicate":
            regions.append(base)
        elif kind == "nested":
            inner = draw(_int_box(0, 8))
            regions.append(Box(base.x_min + inner.x_min * base.width / 8,
                               base.y_min + inner.y_min * base.height / 8,
                               inner.width * base.width / 8, inner.height * base.height / 8))
        elif kind == "right":
            regions.append(Box(base.x_max, draw(st.integers(-4, 20)),
                               draw(st.integers(1, 8)), draw(st.integers(1, 8))))
        elif kind == "below":
            regions.append(Box(draw(st.integers(-4, 20)), base.y_max,
                               draw(st.integers(1, 8)), draw(st.integers(1, 8))))
        else:
            regions.append(draw(_int_box(-4, 24)))
    return boxes, regions


class TestContainment:
    def test_union_area_with_overlap(self):
        # each region covers 60% of the box, their union all of it
        boxes = [Box(0, 0, 10, 10)]
        left, right = Box(0, 0, 6, 10), Box(4, 0, 6, 10)
        assert frame_contained(_frame_of(boxes), [left, right]).tolist() == [True]
        assert frame_contained(_frame_of(boxes), [left]).tolist() == [False]
        assert frame_contained(_frame_of(boxes), [right]).tolist() == [False]

    def test_ratio_threshold(self):
        frame = _frame_of([Box(0, 0, 10, 10)] * 3)
        assert frame_contained(frame, [Box(0, 0, 10, 9.5)]).all()  # 95% covered
        assert frame_contained(frame, [Box(0, 0, 10, 9.0)]).all()  # 90%: inclusive
        assert not frame_contained(frame, [Box(0, 0, 10, 8.0)]).any()  # 80% covered

    def test_growing_region_grows_pool(self):
        frame = _frame_of([Box(0, 0, 10, 10), Box(2, 2, 4, 4), Box(20, 20, 5, 5)])
        small = frame_contained(frame, [Box(0, 0, 8, 8)])
        large = frame_contained(frame, [Box(0, 0, 12, 12)])
        assert small.tolist() == [False, True, False]
        assert large.tolist() == [True, True, False]

    @settings(deadline=None)
    @given(_containment_case())
    @example(([Box(0, 0, 10, 10)], [Box(0, 0, 10, 9)]))  # exactly 90%
    @example(([Box(0, 0, 10, 10)], [Box(0, 0, 9, 10), Box(0, 0, 9, 10)]))  # duplicate
    @example(([Box(0, 0, 10, 10)], [Box(0, 0, 5, 9), Box(5, 0, 5, 9)]))  # shared edge
    @example(([Box(0, 0, 10, 10)], [Box(-5, -5, 20, 14)]))  # past the box
    @example(([Box(0, 0, 10, 10)], [Box(0, 0, 10, 10), Box(2, 2, 2, 2)]))  # nested
    def test_matches_exact_union_area(self, case):
        boxes, regions = case
        mask = frame_contained(_frame_of(boxes), regions)
        assert mask.tolist() == [union_area_exact(b, regions) >= CONTAINMENT_RATIO * b.area
                                 for b in boxes]

    @settings(deadline=None)
    @given(st.lists(_real_box(0.0, 100.0), min_size=1, max_size=4),
           st.lists(_real_box(-50.0, 150.0), min_size=1, max_size=5))
    def test_matches_exact_union_area_real_edges(self, boxes, regions):
        mask = frame_contained(_frame_of(boxes), regions)
        for got, b in zip(mask.tolist(), boxes):
            gap = union_area_exact(b, regions) - CONTAINMENT_RATIO * b.area
            if abs(gap) > 1e-9 * b.area:  # rounding decides only at the threshold
                assert got == (gap >= 0)


class TestRetrievalPool:
    def test_filters_and_ranks_by_saliency(self):
        frame = make_frame(proposals=[
            Proposal(0, Box(0, 0, 50, 50), basis_vec(4, 0)),
            Proposal(1, Box(10, 10, 20, 20), basis_vec(4, 1)),
            Proposal(2, Box(200, 200, 50, 40), basis_vec(4, 2)),
        ])
        mask = frame_contained(frame, [Box(0, 0, 60, 60)])
        pool = retrieval_pool(frame, mask, {0: 0.2, 1: 0.9, 2: 5.0}, limit=10)
        assert pool.tolist() == [1, 0]  # proposal 2 lies outside

    def test_limit_cap(self):
        frame = make_frame(proposals=[
            Proposal(i, Box(1 + i, 1, 20, 20), basis_vec(4, i % 4)) for i in range(5)
        ])
        mask = frame_contained(frame, [Box(0, 0, 320, 240)])
        pool = retrieval_pool(frame, mask, {}, limit=3)
        assert pool.tolist() == [0, 1, 2]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rows_match_reference_sort(self, data):
        # ids out of row order; saliencies tie, mix -0.0 with 0.0, or are missing
        ids = data.draw(st.permutations([3, 8, 1, 6, 0, 9, 4, 7, 2, 5]))
        frame = make_frame(proposals=[Proposal(pid, Box(0, 0, 10, 10), basis_vec(4, 0))
                                      for pid in ids])
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=10, max_size=10)))
        values = st.sampled_from([0.0, -0.0, 1.5, -1.5]) | st.floats(allow_nan=False)
        saliency = data.draw(st.dictionaries(st.sampled_from(ids), values))
        limit = data.draw(st.integers(0, 11))
        rows = retrieval_pool(frame, mask, saliency, limit)
        expected = sorted(np.flatnonzero(mask).tolist(),
                          key=lambda r: (-saliency.get(ids[r], 0.0), ids[r]))[:limit]
        assert rows.tolist() == expected


class TestFrameSimilarity:
    def test_identical_beats_orthogonal(self):
        cfg = Config()
        shared = [Proposal(0, Box(50, 50, 60, 60), basis_vec(4, 0))]
        query = make_frame("q", proposals=shared)
        twin = make_frame("t", proposals=[Proposal(0, Box(50, 50, 60, 60), basis_vec(4, 0))])
        ortho = make_frame("o", proposals=[Proposal(0, Box(50, 50, 60, 60), basis_vec(4, 1))])
        row = np.array([0])
        sim_twin = frame_similarity(query, row, twin, row, cfg)[0].sum()
        sim_ortho = frame_similarity(query, row, ortho, row, cfg)[0].sum()
        assert sim_twin > sim_ortho > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_column_maxima_are_the_reverse_tables_row_maxima(self, seed):
        # swapping the frames negates every offset on a grid symmetric about
        # 0: the same scores, summed in another order
        rng = np.random.default_rng(seed)
        frame_t, frame_u = rand_frame(rng, "t", 12), rand_frame(rng, "u", 9)
        rows_t, rows_u = np.array([0, 3, 4, 7, 11]), np.arange(1, 9)
        cfg = Config()
        best_t, best_u = frame_similarity(frame_t, rows_t, frame_u, rows_u, cfg)
        reverse_u, reverse_t = frame_similarity(frame_u, rows_u, frame_t, rows_t, cfg)
        _, scores = match_confidences(rows_t, rows_u, frame_t, frame_u, cfg)
        assert best_t.tobytes() == scores.max(axis=1).tobytes()
        assert best_u.tobytes() == scores.max(axis=0).tobytes()
        np.testing.assert_allclose(best_u, reverse_u, rtol=1e-12, atol=0)
        np.testing.assert_allclose(best_t, reverse_t, rtol=1e-12, atol=0)

    def test_outside_proposals_do_not_change_pool(self):
        frame = make_frame(proposals=[
            Proposal(0, Box(10, 10, 40, 40), basis_vec(4, 0)),
            Proposal(1, Box(250, 180, 60, 50), basis_vec(4, 1)),
        ])
        mask = frame_contained(frame, [Box(0, 0, 60, 60)])
        pool = retrieval_pool(frame, mask, {0: 1.0, 1: 9.0}, limit=10)
        assert pool.tolist() == [0]


class TestUpdateNetwork:
    def test_iteration_zero_delegates_to_bootstrap(self, noise_free_bundle):
        collection, _, _ = noise_free_bundle
        cfg = Config()
        state = initialize_state(collection, cfg)
        graph = update_network(state, _contained(collection, state), MatchCache(collection, cfg))
        expected = bootstrap_neighbors(key_frame_map(collection, cfg.keyframe_stride),
                                       cfg.k_neighbors)
        assert graph.neighbors == expected.neighbors

    def test_orthogonal_classes_retrieve_same_class(self, noise_free_run, noise_free_bundle):
        _, planted, _ = noise_free_bundle
        result, _elapsed = noise_free_run
        for (vid, _t), entries in result.graph.neighbors.items():
            for (nvid, _nt), _sim in entries:
                assert planted.class_labels[nvid] == planted.class_labels[vid]

    def test_k_one_returns_single_neighbor(self, noise_free_bundle):
        collection, _, _ = noise_free_bundle
        cfg = Config(k_neighbors=1)
        state = initialize_state(collection, cfg)
        graph = update_network(state, _contained(collection, state), MatchCache(collection, cfg))
        assert all(len(v) == 1 for v in graph.neighbors.values())

    def test_equal_similarities_tie_break(self):
        # identical signatures everywhere: neighbors are the smallest
        # (video id, frame index) pairs from other videos
        frames = {
            vid: [_signature_frame(vid, 0, [1, 0, 0, 0])]
            for vid in ("a", "b", "c", "d")
        }
        graph = bootstrap_neighbors(key_frame_map(_collection_of_frames(frames), 20), k=2)
        assert [ref for ref, _ in graph.neighbors[("c", 0)]] == [("a", 0), ("b", 0)]


@st.composite
def _ranking_case(draw):
    """Key frames of up to four videos in any order, an (F, F) similarity
    drawn from a few values with ties and both signed zeros, and k up to
    past the candidate count."""
    refs = draw(st.lists(st.tuples(st.sampled_from("abcd"), st.integers(0, 3)),
                         min_size=1, max_size=9, unique=True))
    values = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])
    n = len(refs)
    similarity = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
    return refs, similarity, draw(st.integers(1, n + 1))


@settings(max_examples=300, deadline=None)
@given(_ranking_case())
def test_rank_neighbors_matches_reference_sort(case):
    refs, similarity, k = case
    graph = _rank_neighbors(refs, similarity, k)
    for q, qref in enumerate(refs):
        ranked = sorted((-similarity[q, c], refs[c]) for c in range(len(refs))
                        if refs[c][0] != qref[0])
        expected = [(ref, -negated) for negated, ref in ranked[:k]]
        assert graph.neighbors[qref] == expected
        # == takes -0.0 for 0.0, so compare the signs too
        assert ([math.copysign(1, sim) for _, sim in graph.neighbors[qref]]
                == [math.copysign(1, sim) for _, sim in expected])
    assert list(graph.neighbors) == refs


class TestRelocalization:
    def test_planted_proposal_has_max_appearance_confidence(self, noise_free_bundle):
        collection, planted, _ = noise_free_bundle
        cfg = Config()
        vid = "class0_v00"
        video = collection.videos[vid]
        same_class = [w for w in collection.videos
                      if w != vid and planted.class_labels[w] == "class0"]
        pools = [
            (collection.videos[w].frames[kf], collection.videos[w].frames[kf].proposals)
            for w in same_class for kf in key_frames(collection.videos[w], 20)
        ][: cfg.k_neighbors]
        frame = video.frames[0]
        phi_a, _ = frame_appearance(frame, pools, cfg)
        best = frame.proposals[int(np.argmax(phi_a))]
        assert best.id == planted.tubes[vid][0]
        assert phi_a.max() == 1.0

    def test_alpha_zero_ranking_equals_appearance_ranking(self, noise_free_bundle):
        collection, _, _ = noise_free_bundle
        cfg = Config(alpha=0.0)
        vid = "class0_v01"
        video = collection.videos[vid]
        neighbor = collection.videos["class0_v00"]
        pools_by_kf = {
            kf: [(neighbor.frames[nkf], list(neighbor.frames[nkf].proposals))
                 for nkf in key_frames(neighbor, 20)]
            for kf in key_frames(video, 20)
        }
        trellis, _ = build_video_trellis(video, pools_by_kf, cfg)
        for t, kf in enumerate(key_frames(video, 20)):
            frame = video.frames[kf]
            phi_a, _ = frame_appearance(frame, pools_by_kf[kf], cfg)
            order = sorted(range(len(frame.proposals)),
                           key=lambda i: (-phi_a[i], frame.proposals[i].id))
            expected = [frame.proposals[i].id for i in order]
            assert trellis.candidate_ids[t].tolist() == expected

    def test_wrong_class_neighbors_flatten_appearance(self, noise_free_bundle):
        collection, planted, _ = noise_free_bundle
        cfg = Config()
        vid = "class0_v00"
        video = collection.videos[vid]
        wrong = collection.videos["class1_v00"]
        pools = [(wrong.frames[kf], list(wrong.frames[kf].proposals))
                 for kf in key_frames(wrong, 20)]
        frame = video.frames[0]
        phi_a, saliency = frame_appearance(frame, pools, cfg)
        # cross-class saliencies are far below the same-class level
        same = [(collection.videos["class0_v01"].frames[0],
                 list(collection.videos["class0_v01"].frames[0].proposals))]
        _, same_sal = frame_appearance(frame, same, cfg)
        planted_idx = [p.id for p in frame.proposals].index(planted.tubes[vid][0])
        assert saliency[planted_idx] < same_sal[planted_idx]


class TestRunDiscovery:
    def test_single_iteration_single_snapshot(self, noise_free_bundle):
        collection, _, _ = noise_free_bundle
        cfg = Config(iterations=1, p_tubes=2)
        result = run_discovery(collection, cfg, threads=2)
        assert len(result.snapshots) == 1
        # final iteration keeps a single tube per video
        assert all(len(sols) == 1 for sols in result.snapshots[0].tubes.values())

    def test_tube_counts_per_iteration(self, noise_free_run):
        result, _ = noise_free_run
        cfg = Config()
        for state in result.snapshots:
            expected = 1 if state.iteration == cfg.iterations else cfg.p_tubes
            for sols in state.tubes.values():
                assert len(sols) == expected

    def test_neighbor_graphs_never_contain_self(self, noise_free_run):
        result, _ = noise_free_run
        for state in result.snapshots:
            for (vid, _), entries in state.graph.neighbors.items():
                assert all(nvid != vid for (nvid, _), _sim in entries)

    def test_recovers_planted_tubes(self, noise_free_run, noise_free_bundle):
        _, planted, _ = noise_free_bundle
        result, _ = noise_free_run
        for vid, sol in result.tubes.items():
            assert sol.tube.regions == planted.tubes[vid]

    def test_deterministic_across_thread_counts(self, noise_free_bundle, noise_free_run):
        collection, _, _ = noise_free_bundle
        result_threads, _ = noise_free_run
        cfg = Config()
        result_serial = run_discovery(collection, cfg, threads=1)
        for vid in collection.videos:
            assert result_serial.tubes[vid].tube.regions == \
                result_threads.tubes[vid].tube.regions
            assert result_serial.tubes[vid].objective == result_threads.tubes[vid].objective
        assert result_serial.graph.neighbors == result_threads.graph.neighbors


SMALL_SPEC = SynthSpec(num_classes=2, videos_per_class=2, frames_per_video=40,
                       num_distractors=3, seed=11)
SMALL_CONFIG = Config(iterations=3, k_neighbors=4, p_tubes=2)


@pytest.fixture
def small():
    collection, _, _ = generate_collection(SMALL_SPEC)
    config = SMALL_CONFIG
    key_frame_count = sum(len(key_frames(video, config.keyframe_stride))
                          for video in collection.videos.values())
    return collection, config, key_frame_count


class TestPreconditions:
    """``run_discovery`` rejects a collection or config it cannot run before
    any scoring."""

    @pytest.fixture
    def no_scoring(self, monkeypatch):
        def fail(*_args, **_kwargs):
            raise AssertionError("scoring began before the preconditions were checked")

        monkeypatch.setattr(discovery, "motion_scores", fail)

    def test_empty_collection(self, no_scoring):
        with pytest.raises(ValidationError, match="^collection has no videos$"):
            run_discovery(Collection(4, 4), Config())

    @pytest.mark.parametrize("field,value,message", [("proposals", [], "has no proposals"),
                                                     ("signature", None, "has no signature")])
    def test_incomplete_key_frame(self, small, no_scoring, field, value, message):
        collection, config, _ = small
        vid = sorted(collection.videos)[1]
        setattr(collection.videos[vid].frames[20], field, value)
        with pytest.raises(ValidationError, match=f"^key frame 20 of video {vid} {message}$"):
            run_discovery(collection, config)

    @pytest.mark.parametrize("weights", [{"alpha": 1e308},
                                         {"lambda_": 1e308, "theta": -1e308},
                                         {"lambda_": 1e160, "theta": -1e160}])
    def test_objective_overflow(self, small, no_scoring, weights):
        collection, config, _ = small
        with pytest.raises(ValidationError, match=r"^alpha=.*, lambda=.* and theta=.* can "
                                                  r"overflow a tube objective over 2 key frames$"):
            run_discovery(collection, replace(config, **weights))

    # the rule of Config's integer fields: no bools, only integers
    @pytest.mark.parametrize("threads", [None, "2", 2.5, True, 0])
    def test_threads(self, small, no_scoring, threads):
        collection, config, _ = small
        with pytest.raises(ValidationError, match="^threads must be "):
            run_discovery(collection, config, threads=threads)

    def test_integer_threads_of_any_type(self, small):
        collection, config, _ = small
        assert run_discovery(collection, config, threads=np.int64(2)).tubes == \
            run_discovery(collection, config).tubes

    def test_objective_bound_counts_key_frames(self, small):
        # one key frame per video: no pairwise term enters the objective
        collection, config, _ = small
        weights = {"lambda_": 1e308, "theta": -1e308}
        check_objective_bound(collection, replace(config, keyframe_stride=40, **weights))
        check_objective_bound(collection, replace(config, alpha=1e307, lambda_=1e150,
                                                  theta=-1e150))
        with pytest.raises(ValidationError):
            check_objective_bound(collection, replace(config, **weights))


@st.composite
def _ragged_video(draw):
    """1-4 key frames of 1-4 proposals and 1-5 regions each (see
    ``_containment_case``), so key frames differ in both counts, with random
    unit descriptors, 0-12 track points on the same grid or between its
    lines, which may all be moved past every box, and 0-2 neighbor pools,
    rows of two 5-proposal neighbor frames. Returns the frames, their
    regions, tracks and pools."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    neighbors = [rand_frame(rng, f"n{i}", 5, dim=4) for i in range(2)]
    frames, regions, tracks, pools = [], [], [], []
    for f in range(draw(st.integers(1, 4))):
        boxes, frame_regions = draw(_containment_case())
        frames.append(make_frame("v", f, proposals=[Proposal(i, box, rand_unit(rng, 4))
                                                    for i, box in enumerate(boxes)]))
        regions.append(frame_regions)
        coordinate = st.one_of(st.integers(0, 24), st.floats(0, 24))  # edges, and between
        points = draw(st.lists(st.tuples(coordinate, coordinate, st.integers(0, 3)),
                               max_size=12))
        away = 100.0 if draw(st.booleans()) else 0.0  # no point in any box
        tracks.append((np.array([label for _, _, label in points], dtype=int),
                       np.array([[x + away, y] for x, y, _ in points], dtype=float).reshape(-1, 2)))
        pools.append([(neighbor, np.flatnonzero(rng.random(5) < 0.6) if i else np.arange(5))
                      for i, neighbor in enumerate(neighbors[:draw(st.integers(0, 2))])])
        pools[-1] = [(neighbor, rows) for neighbor, rows in pools[-1] if rows.size]
    return frames, regions, tracks, pools


class TestPerVideoPasses:
    """A video's key frames are one call of each tracking pass: the call
    returns, bit for bit, the arrays of one call per key frame."""

    @settings(max_examples=100, deadline=None)
    @given(_ragged_video())
    def test_containment(self, video):
        frames, regions, _, _ = video
        masks = region_contained(tuple(frames), regions)
        assert [(m.dtype, m.tobytes()) for m in masks] == [
            (m.dtype, m.tobytes()) for frame, frame_regions in zip(frames, regions)
            for m in region_contained((frame,), [frame_regions])]

    @settings(max_examples=100, deadline=None)
    @given(_ragged_video())
    def test_motion_coherence(self, video):
        frames, _, tracks, _ = video
        sizes = [len(frame.boxes) for frame in frames]
        coherence = motion_coherence_many(np.concatenate([frame.boxes for frame in frames]),
                                          sizes, tracks)
        expected = [motion_coherence_many(frame.boxes, [size], [frame_tracks])
                    for frame, size, frame_tracks in zip(frames, sizes, tracks)]
        assert coherence.tobytes() == np.concatenate(expected).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_ragged_video())
    def test_strict_containers(self, video):
        frames = video[0]
        sizes = [len(frame.boxes) for frame in frames]
        contains = strict_containers(np.concatenate([frame.boxes for frame in frames])
                                     [padded_rows(sizes)])
        assert contains.shape == (len(frames), max(sizes), max(sizes))
        for f, (frame, size) in enumerate(zip(frames, sizes)):
            assert contains[f, :size, :size].tobytes() == strict_containers(frame.boxes).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(_ragged_video())
    def test_appearance_confidence(self, video):
        frames, _, _, pools = video
        contains = strict_containers(np.concatenate([frame.boxes for frame in frames])
                                     [padded_rows([len(frame.boxes) for frame in frames])])
        phi_a, saliency = appearance_confidence(frames, contains, pools, Config())
        for f, frame in enumerate(frames):
            (own_phi,), (own_saliency,) = appearance_confidence(
                [frame], strict_containers(frame.boxes)[None], [pools[f]], Config())
            assert phi_a[f].tobytes() == own_phi.tobytes()
            assert saliency[f].tobytes() == own_saliency.tobytes()


class TestComputeOnce:
    """Per-run and per-iteration work is not repeated across its readers."""

    @staticmethod
    def _count_calls(monkeypatch, name: str, counts: dict):
        original = getattr(discovery, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(discovery, name, counted)

    def test_pools_stay_rows_while_scoring(self, small, monkeypatch):
        # no scorer maps proposal ids back to rows; only the boxes of the
        # chosen regions are looked up by id
        collection, config, _ = small
        lookups = []
        rows = Frame.rows
        monkeypatch.setattr(Frame, "rows",
                            lambda frame, ids: lookups.append(ids) or rows(frame, ids))
        monkeypatch.setattr(Frame, "proposal_by_id",
                            lambda frame, pid: frame.proposals[rows(frame, [pid])[0]])
        run_discovery(collection, config, threads=1)
        assert lookups == []

    def test_containment_once_per_iteration_and_frame(self, small, monkeypatch):
        # every iteration reads the masks of the previous state's regions: the
        # initial regions' masks, then those of each key frame whose regions an
        # iteration changed; the final state's regions are read by no one.
        # Each video's key frames are one call
        collection, config, key_frame_count = small
        calls = []
        original = discovery.region_contained

        def recorded(frames, regions):
            calls.append(frames)
            return original(frames, regions)

        monkeypatch.setattr(discovery, "region_contained", recorded)
        result = run_discovery(collection, config, threads=1)
        states = [initialize_state(collection, config)] + result.snapshots[:-1]
        changed = [{(vid, kf) for vid, by_kf in after.boxes.items() for kf in by_kf
                    if after.boxes[vid][kf] != before.boxes[vid][kf]}
                   for before, after in zip(states, states[1:])]
        assert 0 < sum(map(len, changed)) < (config.iterations - 1) * key_frame_count
        assert len(calls) == len(collection.videos) + sum(
            len({vid for vid, _ in refs}) for refs in changed)
        assert sum(map(len, calls)) == key_frame_count + sum(map(len, changed))
        assert all(len({frame.video_id for frame in frames}) == 1 for frames in calls)

    def test_motion_once_per_run(self, small, monkeypatch):
        collection, config, key_frame_count = small
        counts: dict = {}
        self._count_calls(monkeypatch, "VideoTrackIndex", counts)
        self._count_calls(monkeypatch, "motion_coherence_many", counts)
        self._count_calls(monkeypatch, "strict_containers", counts)
        self._count_calls(monkeypatch, "consistency_matrix", counts)
        run_discovery(collection, config, threads=1)
        assert config.iterations > 1
        assert counts["VideoTrackIndex"] == len(collection.videos)
        assert counts["motion_coherence_many"] == len(collection.videos)
        assert counts["strict_containers"] == len(collection.videos)
        assert counts["consistency_matrix"] == key_frame_count - len(collection.videos)

    def test_precomputed_motion_gives_the_same_trellis(self, small):
        collection, config, _ = small
        video = next(iter(collection.videos.values()))
        kfs = key_frames(video, config.keyframe_stride)
        neighbor = collection.videos[list(collection.videos)[-1]]
        pools_by_kf = {kf: [(neighbor.frames[0], list(neighbor.frames[0].proposals))]
                       for kf in kfs}
        fresh, _ = build_video_trellis(video, pools_by_kf, config)
        reused, _ = build_video_trellis(video, pools_by_kf, config,
                                        discovery.motion_scores(video, kfs, config.theta))
        for t in range(fresh.num_frames):
            assert np.array_equal(fresh.candidate_ids[t], reused.candidate_ids[t])
            assert np.array_equal(fresh.unary[t], reused.unary[t])
        for fresh_pairwise, reused_pairwise in zip(fresh.pairwise, reused.pairwise):
            assert fresh_pairwise.tobytes() == reused_pairwise.tobytes()

    def test_kept_candidates_consistency_is_their_own(self, monkeypatch):
        # 28 proposals a key frame, 10 kept: every transition's matrix is
        # gathered from the once-per-run parts, and must equal both matrices
        # of the kept rows computed afresh, bit for bit
        collection, _, _ = generate_collection(SynthSpec(
            videos_per_class=1, frames_per_video=41, num_distractors=24))
        config = Config(iterations=2, top_candidates=10)
        trellises = []
        original = discovery.build_trellis

        def recorded(*args, **kwargs):
            trellises.append(original(*args, **kwargs))
            return trellises[-1]

        monkeypatch.setattr(discovery, "build_trellis", recorded)
        run_discovery(collection, config)
        assert len(trellises) == config.iterations * len(collection.videos)
        for trellis in trellises:
            video = collection.videos[trellis.video_id]
            kfs = trellis.frame_indices
            for t, (a, b) in enumerate(zip(kfs, kfs[1:])):
                frame_a, frame_b = video.frames[a], video.frames[b]
                assert len(frame_a.proposals) > config.top_candidates
                rows_a = frame_a.rows(trellis.candidate_ids[t].tolist())
                rows_b = frame_b.rows(trellis.candidate_ids[t + 1].tolist())
                expected = (appearance_consistency_matrix(frame_a.descriptors[rows_a],
                                                          frame_b.descriptors[rows_b])
                            + motion_consistency_matrix(frame_a.boxes[rows_a],
                                                        frame_b.boxes[rows_b],
                                                        *shared_track_points(video, a, b),
                                                        config.theta))
                assert trellis.pairwise[t].tobytes() == expected.tobytes()


# Its saliency tables of 44 x 44 proposal pairs reach THREADED_PAIRS, while
# retrieval pools of at most 20 proposals stay below it.
LARGE_SPEC = SynthSpec(videos_per_class=1, frames_per_video=41, num_distractors=40)
LARGE_CONFIG = Config(iterations=2)


@pytest.fixture(scope="module")
def large():
    collection, _, _ = generate_collection(LARGE_SPEC)
    key_frame_count = sum(len(key_frames(video, LARGE_CONFIG.keyframe_stride))
                          for video in collection.videos.values())
    return collection, LARGE_CONFIG, key_frame_count


class TestWorkers:
    """``threads`` > 1 has the run's ``MatchCache`` start one thread pool,
    which matches the chunks of one table of at least ``THREADED_PAIRS``
    proposal pairs; the caller matches the other chunks."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the processes forked while the test runs."""
        pids = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:  # the parent's side of the fork
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        return pids

    @pytest.fixture
    def started(self, monkeypatch):
        """The threads started while the test runs."""
        threads = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: threads.append(thread) or start(thread))
        return threads

    @pytest.fixture
    def matched_on(self, monkeypatch):
        """The thread of each chunk ``MatchCache._match`` matches while the test runs."""
        threads = []
        match = MatchCache._match

        def recorded(cache, chunk, *args):
            threads.append(threading.current_thread())
            return match(cache, chunk, *args)

        monkeypatch.setattr(MatchCache, "_match", recorded)
        return threads

    @pytest.mark.parametrize("threads,iterations", [(2, 1), (2, 3), (3, 3)])
    def test_run_forks_no_process(self, small, forks, threads, iterations):
        collection, config, _ = small
        run_discovery(collection, replace(config, iterations=iterations), threads=threads)
        assert forks == []
        assert multiprocessing.active_children() == []

    def test_no_more_workers_than_key_frames(self, large, forks, started, matched_on):
        # a run starts at most one thread per key frame, and none outlives it;
        # a short switch interval interleaves the threads as densely as it can
        collection, config, key_frame_count = large
        assert key_frame_count < 12
        baseline = run_discovery(collection, config, threads=1)
        assert started == []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result = run_discovery(collection, config, threads=12)
        finally:
            sys.setswitchinterval(interval)
        assert forks == []
        assert 0 < len(started) <= key_frame_count
        assert not any(thread.is_alive() for thread in started)
        assert set(matched_on) - {threading.main_thread()} <= set(started)
        assert result.tubes == baseline.tubes
        assert result.graph == baseline.graph

    @pytest.mark.parametrize("task", ["frame_similarity", "relocalize_video"])
    def test_worker_error_reaches_caller(self, large, monkeypatch, started, task):
        # matching fails on a pool thread, relocalization in the caller
        collection, config, _ = large
        original = getattr(discovery, task)
        failed_on = []

        def fail(*args, **kwargs):
            on_main = threading.current_thread() is threading.main_thread()
            if task == "frame_similarity" and on_main:
                return original(*args, **kwargs)
            failed_on.append(on_main)
            raise ValidationError("no good", locus="v.frames.jsonl:7")

        monkeypatch.setattr(discovery, task, fail)
        with pytest.raises(ValidationError) as err:
            run_discovery(collection, config, threads=2)
        assert str(err.value) == "v.frames.jsonl:7: no good"
        assert err.value.locus == "v.frames.jsonl:7"
        assert failed_on and set(failed_on) == {task == "relocalize_video"}
        assert not any(thread.is_alive() for thread in started)

    def test_workers_only_match_tables(self, large, monkeypatch):
        # tracking runs in the caller: the pool threads run nothing but the
        # cache's chunk matches, each a chunk of one table that reaches the cut
        collection, config, _ = large
        tasks = []
        submit = ThreadPoolExecutor.submit

        def recorded(pool, task, *args):
            tasks.append((task, *args))
            return submit(pool, task, *args)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", recorded)
        run_discovery(collection, config, threads=2)
        assert tasks
        assert {task.__func__ for task, *_ in tasks} == {MatchCache._match}
        assert all(isinstance(task.__self__, MatchCache) for task, *_ in tasks)
        chunks = [chunk for _task, chunk in tasks]
        assert all(len(chunk) == 1 for chunk in chunks)
        assert all(discovery._pairs(chunk[0]) >= discovery.THREADED_PAIRS for chunk in chunks)

    def test_mixed_tables_keep_key_order(self, large, matched_on):
        # pooled and inline tables interleaved in one vectors call land under
        # their own keys, in both directions
        collection, config, _ = large
        video_a, video_b = collection.videos.values()
        frame_a, frame_b = video_a.frames[0], video_b.frames[20]
        whole = match_side(frame_a, np.arange(len(frame_a.proposals)))
        keys = [(whole, match_side(frame_b, np.arange(n))) for n in (40, 3, 30, 1, 2, 44)]
        assert [discovery._pairs(key) >= discovery.THREADED_PAIRS for key in keys] == \
            [True, False, True, False, False, True]
        keys += [key[::-1] for key in keys]
        expected = MatchCache(collection, config)
        expected.vectors(keys)
        matched_on.clear()
        with MatchCache(collection, config, 2) as cache:
            cache.vectors(keys)
        assert set(matched_on) - {threading.main_thread()}
        assert threading.main_thread() in matched_on
        got = cache.tables
        assert set(got) == set(keys) == set(expected.tables)
        for key in keys:
            assert got[key].tobytes() == expected.tables[key].tobytes()
        # each key, and its reverse, holds its answering table's maxima
        assert {key[::-1] for key in keys} == set(keys)
        for key in keys:
            assert got[key].tobytes() == fresh_vector(key, collection, config).tobytes()

    def test_same_results_on_both_sides_of_the_cut(self, large, matched_on):
        collection, config, _ = large
        baseline = run_discovery(collection, config, threads=1)
        assert set(matched_on) == {threading.main_thread()}
        for threads in (2, 3):
            matched_on.clear()
            result = run_discovery(collection, config, threads=threads)
            assert threading.main_thread() in matched_on
            assert set(matched_on) != {threading.main_thread()}
            assert result.tubes == baseline.tubes
            assert result.graph == baseline.graph
            assert result.match_counts == baseline.match_counts
            for got, expected in zip(result.snapshots, baseline.snapshots, strict=True):
                assert got.tubes == expected.tubes
                assert got.boxes == expected.boxes
                assert got.saliency == expected.saliency


class TestReuse:
    """``run_discovery`` copies the match results whose inputs did not change
    since the previous iteration and stops at an exact fixed point; the loop
    that computes every iteration in full is its oracle."""

    # name -> (spec, config, the iteration that repeats its predecessor)
    CASES = {
        "default": (SynthSpec(), Config(iterations=5), 3),
        "small": (SMALL_SPEC, SMALL_CONFIG, None),  # repeats only in its final iteration
        "small_5": (SMALL_SPEC, replace(SMALL_CONFIG, iterations=5), 3),
    }

    @pytest.fixture(scope="class", params=sorted(CASES))
    def case(self, request):
        spec, config, fixed_point = self.CASES[request.param]
        collection, _, _ = generate_collection(spec)
        return collection, config, fixed_point, recomputing_discovery(collection, config)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_same_as_computing_every_iteration(self, case, threads):
        collection, config, fixed_point, oracle = case
        result = run_discovery(collection, config, threads=threads)
        assert result.tubes == oracle.tubes
        assert result.graph == oracle.graph
        assert [s.iteration for s in result.snapshots] == \
            [*range(1, len(result.match_counts)), config.iterations]
        states = [result.state(i) for i in range(1, config.iterations + 1)]
        for got, expected in zip(states, oracle.snapshots, strict=True):
            assert got.tubes == expected.tubes
            assert got.boxes == expected.boxes
            assert got.saliency == expected.saliency
            assert got.graph == expected.graph
        assert result.fixed_point == fixed_point
        computed = fixed_point or config.iterations
        assert [c.iteration for c in result.match_counts] == list(range(1, computed + 1))

    def test_a_repeating_iteration_is_not_relocalized(self, case, monkeypatch):
        # an iteration whose graph and masks equal its predecessor's takes its
        # state without relocalizing; its snapshot equals the recomputed one
        collection, config, _, oracle = case
        calls: Counter = Counter()
        iteration = [0]
        update, relocalize = discovery.update_network, discovery.relocalize_video

        def tracked_update(state, *args, **kwargs):
            iteration[0] = state.iteration + 1
            return update(state, *args, **kwargs)

        def counted_relocalize(*args, **kwargs):
            calls[iteration[0]] += 1
            return relocalize(*args, **kwargs)

        monkeypatch.setattr(discovery, "update_network", tracked_update)
        monkeypatch.setattr(discovery, "relocalize_video", counted_relocalize)
        result = run_discovery(collection, config, threads=1)
        skipped = result.match_counts[-1].iteration
        assert calls[skipped] == 0
        assert all(calls[i] == len(collection.videos) for i in range(1, skipped))
        got, expected = result.state(skipped), oracle.snapshots[skipped - 1]
        assert (got.tubes, got.boxes, got.saliency, got.graph) == \
            (expected.tubes, expected.boxes, expected.saliency, expected.graph)

    def test_no_state_is_kept_after_the_fixed_point(self):
        # the iterations from the fixed point on repeat its predecessor's
        # state, so none of them costs a snapshot but the final one
        collection, _, _ = generate_collection(SMALL_SPEC)
        result = run_discovery(collection, replace(SMALL_CONFIG, iterations=100_000), threads=1)
        assert result.fixed_point == 3
        assert len(result.snapshots) == result.fixed_point
        assert result.state(99_999) == result.state(result.fixed_point - 1)
        assert result.snapshots[-1].iteration == 100_000
        assert {vid: len(sols) for vid, sols in result.snapshots[-1].tubes.items()} == \
            dict.fromkeys(collection.videos, 1)

    def test_the_repeat_reads_the_last_retrieval(self, monkeypatch):
        # small at five iterations repeats iteration 2 in iteration 3: the
        # pools and masks are iteration 2's, so update_network returns that
        # retrieval's graph and counts, and asks the cache for no key
        collection, _, _ = generate_collection(SMALL_SPEC)
        calls = []
        update = discovery.update_network

        def recorded(state, contained, cache):
            graph = update(state, contained, cache)
            calls.append((state, contained, cache, graph, cache.counts[-2:]))
            return graph

        monkeypatch.setattr(discovery, "update_network", recorded)
        requests = recorded_requests(monkeypatch)
        result = run_discovery(collection, replace(SMALL_CONFIG, iterations=5), threads=1)
        assert result.fixed_point == 3 and len(calls) == 3
        assert len(requests) == 4
        state, contained, cache, graph, counts = calls[-1]
        # a full call ranks the similarities it reads from cache.tables and
        # asks for every key again: all held
        cache.retrieval = None
        assert update(state, contained, cache) == graph == state.graph
        assert [len(keys) for keys in requests[4:]] == [len(keys) for keys in requests[2:4]]
        assert counts == cache.counts[-2:] == [(0, len(keys)) for keys in requests[4:]]
        assert result.match_counts[-1] == (3, *counts[0], *counts[1])

    def test_a_moved_mask_is_no_repeat(self, monkeypatch):
        # a retrieval pool keeps only a mask's most salient rows, so a mask
        # that drops a row outside its pool leaves every pool as it was; the
        # neighbor pools that saliency reads change, so retrieval is redone
        collection, _, _ = generate_collection(SMALL_SPEC)
        config = replace(SMALL_CONFIG, iterations=1, retrieval_proposals=2)
        state = run_discovery(collection, config, threads=1).snapshots[0]
        requests = recorded_requests(monkeypatch)
        with MatchCache(collection, config) as cache:
            full = {ref: np.ones(len(frame.proposals), dtype=bool)
                    for ref, frame in cache.frames.items()}
            graph = update_network(state, full, cache)
            moved = {ref: mask.copy() for ref, mask in full.items()}
            for ref, mask in moved.items():
                pool = retrieval_pool(cache.frames[ref], mask, state.saliency[ref[0]][ref[1]], 2)
                mask[np.setdiff1d(np.flatnonzero(mask), pool)[0]] = False
            assert update_network(state, moved, cache) == graph
            assert update_network(state, moved, cache) == graph  # a repeat
        # the repeat asks for no key and counts the moved masks' keys reused
        assert len(requests) == 4 and requests[2] == requests[0] and requests[3] != requests[1]
        assert cache.counts[-2:] == [(0, len(requests[2])), (0, len(requests[3]))]

    def test_no_matching_after_the_fixed_point(self, noise_free_bundle, monkeypatch):
        collection, _, _ = noise_free_bundle
        calls: Counter = Counter()
        iteration = [0]
        update, match = discovery.update_network, matching.match_confidences

        def tracked_update(state, *args, **kwargs):
            iteration[0] = state.iteration + 1
            return update(state, *args, **kwargs)

        def counted_match(*args, **kwargs):
            calls[iteration[0]] += len(match_keys(*args[:4]))  # a chunk matches many tables
            return match(*args, **kwargs)

        monkeypatch.setattr(discovery, "update_network", tracked_update)
        monkeypatch.setattr(discovery, "match_confidences", counted_match)
        monkeypatch.setattr(matching, "match_confidences", counted_match)
        requests = recorded_requests(monkeypatch)
        config = Config(iterations=5)
        recomputing_discovery(collection, config)
        # each iteration asks for 40 x 35 other-video key frames for
        # retrieval (none in iteration 1) and 40 key frames x 10 neighbors for
        # saliency; its fresh cache matches each unordered key once
        assert [len(keys) for keys in requests] == [0, 400] + [1400, 400] * 4
        per_iteration = [requests[i:i + 2] for i in range(0, len(requests), 2)]
        assert calls == Counter({i: sum(n for n, _ in unordered_counts(pair))
                                 for i, pair in enumerate(per_iteration, 1)})
        calls.clear()
        requests.clear()
        result = run_discovery(collection, config, threads=1)
        # one cache for the run: a table is matched once, whichever
        # iteration, phase or direction asks first; iteration 3's retrieval
        # pools equal iteration 2's as sets and its masks repeat, so it asks
        # for nothing, counts each of iteration 2's keys reused, and is not
        # relocalized
        assert [len(keys) for keys in requests] == [0, 400, 1400, 400]
        counts = unordered_counts(requests) + [(0, 1400), (0, 400)]
        assert [(c.retrieval_matched, c.retrieval_reused, c.saliency_matched, c.saliency_reused)
                for c in result.match_counts] == [
            (*counts[i], *counts[i + 1]) for i in range(0, len(counts), 2)]
        assert result.fixed_point == 3
        assert [calls[c.iteration] for c in result.match_counts] == [
            c.retrieval_matched + c.saliency_matched for c in result.match_counts]
        last = result.match_counts[-1]
        assert last.iteration == 3 and last.retrieval_matched == last.saliency_matched == 0


@st.composite
def _reference_case(draw) -> tuple[SynthSpec, Config, bool]:
    """2-4 videos of 1-3 key frames with 0-6 distractors each, and
    k_neighbors, p_tubes, iterations and retrieval_proposals across their
    ranges: a retrieval pool smaller than a frame's contained rows lets a
    graph repeat while its masks change. Noise-free signatures tie every
    bootstrap distance within a class, and the flag moves the last video's
    proposals half out of frame, which empties its pools in iteration 1."""
    videos = draw(st.integers(2, 4))
    classes = draw(st.sampled_from([n for n in range(1, videos + 1) if videos % n == 0]))
    key_frame_count = draw(st.integers(1, 3))
    spec = SynthSpec(seed=draw(st.integers(0, 2 ** 16)), num_classes=classes,
                     videos_per_class=videos // classes,
                     frames_per_video=20 * (key_frame_count - 1) + draw(st.integers(1, 20)),
                     num_distractors=draw(st.integers(0, 6)),
                     descriptor_noise=draw(st.sampled_from([0.0, 0.11])))
    other_key_frames = (videos - 1) * key_frame_count
    config = Config(k_neighbors=draw(st.integers(1, other_key_frames + 1)),
                    p_tubes=draw(st.integers(1, 5)), iterations=draw(st.integers(1, 4)),
                    retrieval_proposals=draw(st.integers(1, 12)))
    return spec, config, draw(st.booleans())


class TestReference:
    """``run_discovery`` reaches the outputs of ``reference_discovery``, the
    loop with no match cache, no mask reuse and no early stop, bit for bit."""

    @pytest.mark.parametrize("threads", [1, 2])
    @settings(max_examples=40, deadline=None)
    @given(case=_reference_case())
    # retrieval pools of one proposal: iteration 3's graph repeats while its
    # masks change, so the loop must go on
    @example(case=(SynthSpec(seed=0, num_classes=2, videos_per_class=1, frames_per_video=2,
                             num_distractors=0),
                   Config(k_neighbors=1, p_tubes=1, iterations=3, retrieval_proposals=1), False))
    # the second video's pools are empty in iteration 1
    @example(case=(SynthSpec(seed=3, num_classes=1, videos_per_class=2, frames_per_video=41,
                             num_distractors=2),
                   Config(k_neighbors=2, p_tubes=2, iterations=2), True))
    # noise-free: frames 0 and 20 of class0_v00 tie exactly for the third
    # neighbor of ('class2_v00', 0) in iteration 3, so a key read from
    # another table than the reference's flips the tie and moves saliencies
    @example(case=(SynthSpec(seed=104, num_classes=4, videos_per_class=1, frames_per_video=21,
                             keyframe_stride=20, num_distractors=4,
                             prototype_separation_deg=90.0, descriptor_noise=0.0,
                             signature_noise=0.0),
                   Config(k_neighbors=3, p_tubes=2, iterations=3, keyframe_stride=20,
                          retrieval_proposals=2), True))
    def test_same_as_the_cache_free_loop(self, threads, case):
        spec, config, out_of_frame = case
        collection, _, _ = generate_collection(spec)
        if out_of_frame:
            move_out_of_frame(list(collection.videos.values())[-1], config.keyframe_stride)
        reference = reference_discovery(collection, config)
        with pytest.MonkeyPatch.context() as patch:
            # no table of these collections reaches THREADED_PAIRS, and one
            # chunk holds many of them; at two threads, the tables of at
            # least 25 pairs are chunks of one on the threads, and a chunk of
            # the others holds at most 40 pairs, so a shape spans many chunks
            if threads > 1:
                patch.setattr(discovery, "THREADED_PAIRS", 25)
                patch.setattr(discovery, "CHUNK_PAIRS", 40)
            result = run_discovery(collection, config, threads=threads)
        assert_same_as_reference(result, reference)


# tall-shaped: half-margin descriptor noise, short videos, 4 videos per class
RANK_SPEC = SynthSpec(videos_per_class=4, frames_per_video=41, descriptor_noise=0.11)


class TestMatchCache:
    """One cache serves retrieval and saliency, and one table both directions
    of a frame pair: every vector it hands out is, bit for bit, the vector
    its key's ``answering_table`` gives when matched again, as the cache-free
    path matches it."""

    @pytest.mark.parametrize("spec, config", [
        (SMALL_SPEC, SMALL_CONFIG),
        (replace(RANK_SPEC, seed=101), Config(iterations=3)),
    ])
    def test_copied_vectors_equal_a_fresh_match(self, spec, config, monkeypatch):
        collection, _, _ = generate_collection(spec)
        copied = []  # every vector the cache hands out, copied or just matched

        def recorded(method):
            def handed_out(cache, keys):
                method(cache, keys)
                copied.extend((key, cache.tables[key]) for key in keys)
            return handed_out

        monkeypatch.setattr(MatchCache, "vectors", recorded(MatchCache.vectors))
        result = run_discovery(collection, config, threads=1)
        assert len(copied) >= sum(c.retrieval_reused for c in result.match_counts) > 0

        reversed_keys = 0
        for key, vector in copied:
            fresh = fresh_vector(key, collection, config)
            assert vector.dtype == fresh.dtype
            assert vector.tobytes() == fresh.tobytes()
            reversed_keys += key != answering_table(key)  # read by column maxima
        assert reversed_keys > 0

    @pytest.mark.parametrize("spec, config", [
        *[(SynthSpec(seed=seed), Config()) for seed in (1, 101)],  # default-shaped
        *[(replace(RANK_SPEC, seed=seed), Config(iterations=3)) for seed in (1, 101)],
    ])
    def test_the_cache_free_path_reads_the_held_vectors(self, spec, config, monkeypatch):
        # build_video_trellis without vectors, as checks and oracles call it,
        # gives a saliency key the bytes the run's cache holds for it, and a
        # retrieval key's fresh match is the same rule's
        collection, _, _ = generate_collection(spec)
        caches = []
        enter = MatchCache.__enter__
        monkeypatch.setattr(MatchCache, "__enter__",
                            lambda cache: caches.append(cache) or enter(cache))
        run_discovery(collection, config, threads=1)
        [cache] = caches
        reversed_saliency_keys = 0
        for key, held in cache.tables.items():
            assert held.tobytes() == fresh_vector(key, collection, config).tobytes()
            (vid_t, kf_t, rows_t), (vid_u, kf_u, rows_u) = key
            frame = collection.videos[vid_t].frames[kf_t]
            if rows_t == match_side(frame, all_rows(frame))[2]:  # a saliency key
                pool = (collection.videos[vid_u].frames[kf_u], np.frombuffer(rows_u, dtype=np.intp))
                assert held.tobytes() == frame_saliencies(frame, [pool], config).tobytes()
                reversed_saliency_keys += key != answering_table(key)
        assert reversed_saliency_keys > 0

    @staticmethod
    def _record_matches(monkeypatch, record) -> None:
        """Call ``record(rows_t, rows_u, frame_t, frame_u)`` before every match."""
        match = matching.match_confidences

        def recorded_match(rows_t, rows_u, frame_t, frame_u, config, *args):
            record(rows_t, rows_u, frame_t, frame_u)
            return match(rows_t, rows_u, frame_t, frame_u, config, *args)

        monkeypatch.setattr(discovery, "match_confidences", recorded_match)
        monkeypatch.setattr(matching, "match_confidences", recorded_match)

    def test_no_table_is_matched_twice_in_a_run(self, monkeypatch):
        # bench tall at seed 102: a cache that dropped the tables of all but
        # the current and the previous iteration matched one again in
        # iteration 3; a frame pair's two directions are one table
        collection, _, _ = generate_collection(
            SynthSpec(videos_per_class=8, frames_per_video=41, descriptor_noise=0.11, seed=102))
        tables = []
        self._record_matches(monkeypatch, lambda *args: tables.extend(
            frozenset(key) for key in match_keys(*args)))
        requests = recorded_requests(monkeypatch)
        result = run_discovery(collection, Config(iterations=3), threads=1)
        assert len(result.match_counts) == 3
        assert len(tables) == sum(c.retrieval_matched + c.saliency_matched
                                  for c in result.match_counts)
        assert [table for table, n in Counter(tables).items() if n > 1] == []
        assert set(tables) == {frozenset(key) for keys in requests for key in keys}

    def test_every_table_is_matched_under_discoverys_name(self, monkeypatch):
        # a tracer times matching by wrapping the name match_confidences in
        # discovery, so every table a run counts passes through that name
        collection, _, _ = generate_collection(replace(RANK_SPEC, seed=101))
        tables = []
        match = discovery.match_confidences

        def recorded(*args):
            tables.extend(frozenset(key) for key in match_keys(*args[:4]))
            return match(*args)

        monkeypatch.setattr(discovery, "match_confidences", recorded)
        result = run_discovery(collection, Config(iterations=3), threads=1)
        assert len(tables) == sum(c.retrieval_matched + c.saliency_matched
                                  for c in result.match_counts) > 0
        assert len(set(tables)) == len(tables)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_chunked_tables_equal_a_fresh_match(self, large, monkeypatch, threads):
        # one vectors call of mixed shapes: a shape of more tables than one
        # chunk holds, keys beside their reverses, a key that is its own
        # reverse, and tables that reach a lowered THREADED_PAIRS
        collection, config, _ = large
        monkeypatch.setattr(discovery, "THREADED_PAIRS", 100)
        chunks = []
        match = MatchCache._match

        def recorded(cache, chunk, *args):
            chunks.append((threading.current_thread(), chunk))
            return match(cache, chunk, *args)

        monkeypatch.setattr(MatchCache, "_match", recorded)
        frames = key_frame_map(collection, config.keyframe_stride)
        rng = np.random.default_rng(5)

        def side(n):
            frame = list(frames.values())[rng.integers(len(frames))]
            return match_side(frame, np.sort(rng.choice(len(frame.proposals), n, replace=False)))

        square = [(side(4), side(4)) for _ in range(40)]  # 16 pairs a table
        mixed = [(side(n_t), side(n_u)) for n_t, n_u in [(1, 1), (5, 7), (44, 44), (12, 20),
                                                         (7, 5), (1, 30)]]
        # two 110-pair tables, matched in this direction, would share a chunk
        # but for the lowered cut
        first, last = min(frames), max(frames)
        mixed += [(match_side(frames[first], np.arange(n, n + 10)),
                   match_side(frames[last], np.arange(11))) for n in (0, 1)]
        whole = side(44)
        keys = list(dict.fromkeys(square + mixed + [(whole, whole)]
                                  + [key[::-1] for key in square[::3] + mixed[1:4]]))
        tables = {min(key, key[::-1]) for key in keys}
        with MatchCache(collection, config, threads) as cache:
            cache.vectors(keys)
        got = cache.tables
        assert set(got) == {key for table in tables for key in (table, table[::-1])}
        assert cache.counts == [(len(tables), 0)]
        assert sorted(table for _, chunk in chunks for table in chunk) == sorted(tables)
        for thread, chunk in chunks:
            pairs = discovery._pairs(chunk[0])
            assert {discovery._pairs(table) for table in chunk} == {pairs}
            if pairs >= discovery.THREADED_PAIRS:
                assert len(chunk) == 1
            else:
                assert len(chunk) <= discovery.CHUNK_PAIRS // pairs
                assert thread is threading.main_thread()
        square_chunks = [len(chunk) for _, chunk in chunks if discovery._pairs(chunk[0]) == 16]
        assert len(square_chunks) > 1 and max(square_chunks) == discovery.CHUNK_PAIRS // 16
        assert {thread is threading.main_thread() for thread, _ in chunks} == \
            ({True, False} if threads > 1 else {True})
        for key in keys:
            assert got[key].tobytes() == fresh_vector(key, collection, config).tobytes()

    @pytest.mark.parametrize("spec, config", [
        (SMALL_SPEC, SMALL_CONFIG),
        (replace(RANK_SPEC, seed=101), Config(iterations=3)),
    ])
    def test_every_match_runs_inside_a_phase(self, spec, config, monkeypatch):
        # retrieval and saliency tables are both matched inside update_network,
        # which a traced run times by name, and relocalization matches none
        collection, _, _ = generate_collection(spec)
        phases: list[str] = []
        calls: Counter = Counter()

        def in_phase(name, fn):
            def wrapped(*args, **kwargs):
                phases.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    phases.pop()
            return wrapped

        monkeypatch.setattr(discovery, "update_network",
                            in_phase("retrieval", discovery.update_network))
        monkeypatch.setattr(discovery, "relocalize_video",
                            in_phase("relocalization", discovery.relocalize_video))
        self._record_matches(monkeypatch, lambda *_args: calls.update(phases[-1:] or ["none"]))
        run_discovery(collection, config, threads=1)
        assert set(calls) == {"retrieval"}

    def test_the_small_run_matches_retrieval_tables(self, small):
        # so a failing frame_similarity reaches a two-worker run's caller
        collection, config, _ = small
        assert run_discovery(collection, config, threads=1).match_counts[1].retrieval_matched > 0

    def test_a_saliency_table_is_copied_from_retrieval(self):
        # tall-shaped: iteration 2's retrieval pools are whole frames, so its
        # saliency tables were matched by its retrieval (or by iteration 1)
        collection, _, _ = generate_collection(replace(RANK_SPEC, seed=101))
        counts = run_discovery(collection, Config(iterations=3), threads=1).match_counts
        second = counts[1]
        assert second.saliency_matched < second.saliency_reused
        assert second.retrieval_reused > 0  # iteration 1's saliency tables


def _contained(collection: Collection, state) -> dict:
    return {(vid, kf): frame_contained(collection.videos[vid].frames[kf], regions)
            for vid, by_kf in state.boxes.items() for kf, regions in by_kf.items()}


def _neighbor_refs(graph) -> dict:
    return {ref: [n for n, _sim in entries] for ref, entries in graph.neighbors.items()}


class TestRetrievalReuseKey:
    """A retrieval entry is copied when both pools repeat as sets: the
    saliency ranking selects a pool, and matching receives it in row order."""

    @staticmethod
    def _pools(collection, config, state, contained) -> dict:
        return {ref: retrieval_pool(frame, contained[ref], state.saliency[ref[0]][ref[1]],
                                    config.retrieval_proposals)
                for ref, frame in key_frame_map(collection, config.keyframe_stride).items()}

    def test_a_reordered_pool_is_not_matched_again(self, small):
        collection, config, key_frame_count = small
        state = run_discovery(collection, config, threads=1).snapshots[0]
        contained = _contained(collection, state)
        cache = MatchCache(collection, config)
        update_network(state, contained, cache)
        cross = key_frame_count ** 2 - sum(
            len(key_frames(video, config.keyframe_stride)) ** 2
            for video in collection.videos.values())
        # retrieval's, before saliency's: a pair's two directions are one table
        assert cache.counts[-2] == (cross // 2, 0)

        # reverse the saliencies within each pool: rankings change, sets do not
        pools = self._pools(collection, config, state, contained)
        saliency = {vid: {kf: dict(by_id) for kf, by_id in by_kf.items()}
                    for vid, by_kf in state.saliency.items()}
        for (vid, kf), rows in pools.items():
            ids = collection.videos[vid].frames[kf].ids[rows].tolist()
            values = [saliency[vid][kf].get(pid, 0.0) for pid in ids]
            saliency[vid][kf].update(zip(ids, reversed(values)))
        reordered = replace(state, saliency=saliency)
        new_pools = self._pools(collection, config, reordered, contained)
        assert all(set(new_pools[ref].tolist()) == set(rows.tolist())
                   for ref, rows in pools.items())
        assert any(new_pools[ref].tolist() != rows.tolist() for ref, rows in pools.items())
        graph = update_network(reordered, contained, cache)
        assert cache.counts[-2] == (0, cross)
        assert graph == update_network(reordered, contained, MatchCache(collection, config))

        # one key frame loses a pool row: its row and column are matched
        # again, one table per other-video key frame
        (vid, kf), rows = next((ref, rows) for ref, rows in pools.items() if rows.size > 1)
        shrunk = dict(contained)
        shrunk[vid, kf] = contained[vid, kf].copy()
        shrunk[vid, kf][rows[0]] = False
        graph = update_network(reordered, shrunk, cache)
        other_video = key_frame_count - len(key_frames(collection.videos[vid],
                                                       config.keyframe_stride))
        assert cache.counts[-2] == (other_video, cross - 2 * other_video)
        assert graph == update_network(reordered, shrunk, MatchCache(collection, config))


@pytest.mark.parametrize("seed", range(101, 111))
def test_row_order_pools_rank_as_rank_order_pools(seed, monkeypatch):
    # matching a pool in row order reassociates its sums; no near tie between
    # neighbors may flip
    collection, _, _ = generate_collection(replace(RANK_SPEC, seed=seed))
    config = Config(iterations=3)
    state = run_discovery(collection, config, threads=1).snapshots[1]
    assert state.iteration == 2
    contained = _contained(collection, state)
    ranked = []  # the similarity matrix update_network ranks
    rank = discovery._rank_neighbors

    def captured(refs, similarity, k):
        ranked.append(similarity)
        return rank(refs, similarity, k)

    monkeypatch.setattr(discovery, "_rank_neighbors", captured)
    update_network(state, contained, MatchCache(collection, config))
    [similarity] = ranked
    expected = rank_order_similarity(state, contained, collection, config)
    refs = list(key_frame_map(collection, config.keyframe_stride))
    assert _neighbor_refs(_rank_neighbors(refs, similarity, config.k_neighbors)) == \
        _neighbor_refs(_rank_neighbors(refs, expected, config.k_neighbors))
    assert np.array_equal(np.isnan(similarity), np.isnan(expected))
    assert np.nanmax(np.abs(similarity - expected)) <= 1e-12 * np.nanmax(np.abs(expected))


@pytest.mark.parametrize("seed", range(101, 111))
def test_transposed_tables_rank_as_tables_matched_per_direction(seed):
    # a reverse key's vector is the column maxima of its frame pair's table,
    # which reassociates the reverse table's sums; no near tie between
    # neighbors or proposals may flip
    collection, _, _ = generate_collection(replace(RANK_SPEC, seed=seed))
    config = Config(iterations=3)
    result = run_discovery(collection, config, threads=1)
    oracle = recomputing_discovery(collection, config, directed=True)
    assert {vid: sol.tube.regions for vid, sol in result.tubes.items()} == \
        {vid: sol.tube.regions for vid, sol in oracle.tubes.items()}
    for got, expected in zip(result.snapshots, oracle.snapshots, strict=True):
        assert _neighbor_refs(got.graph) == _neighbor_refs(expected.graph)
        assert got.boxes == expected.boxes
        assert {vid: [sol.tube.regions for sol in sols] for vid, sols in got.tubes.items()} == \
            {vid: [sol.tube.regions for sol in sols] for vid, sols in expected.tubes.items()}
        similarity = [s for entries in got.graph.neighbors.values() for _n, s in entries]
        reference = [s for entries in expected.graph.neighbors.values() for _n, s in entries]
        np.testing.assert_allclose(similarity, reference, rtol=1e-12, atol=0)
        saliency = [s for by_kf in got.saliency.values() for by_id in by_kf.values()
                    for s in by_id.values()]
        reference = [s for by_kf in expected.saliency.values() for by_id in by_kf.values()
                     for s in by_id.values()]
        np.testing.assert_allclose(saliency, reference, rtol=1e-12, atol=0)
