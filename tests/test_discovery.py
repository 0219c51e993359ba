import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tubeloc.discovery as discovery
from helpers import basis_vec, make_frame, union_area_exact
from tubeloc.discovery import (
    CONTAINMENT_RATIO,
    RunInputs,
    Workers,
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
from tubeloc.matching import appearance_confidence
from tubeloc.model import (
    Box,
    Collection,
    Config,
    Frame,
    Proposal,
    ValidationError,
    Video,
    key_frames,
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
        graph = bootstrap_neighbors(_collection_of_frames(frames), k=2, stride=20)
        assert graph.neighbors[("a", 0)][0] == (("b", 0), 0.0)

    def test_saturation_returns_all_other_frames(self):
        frames = {
            "a": [_signature_frame("a", 0, [1, 0, 0, 0])],
            "b": [_signature_frame("b", 0, [0, 1, 0, 0])],
        }
        graph = bootstrap_neighbors(_collection_of_frames(frames), k=10, stride=20)
        assert len(graph.neighbors[("a", 0)]) == 1

    def test_self_video_never_retrieved(self, noise_free_bundle):
        collection, _, _ = noise_free_bundle
        graph = bootstrap_neighbors(collection, k=10, stride=20)
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
        graph = bootstrap_neighbors(collection, k=k, stride=stride)

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
        assert region_contained(_frame_of(boxes), [left, right]).tolist() == [True]
        assert region_contained(_frame_of(boxes), [left]).tolist() == [False]
        assert region_contained(_frame_of(boxes), [right]).tolist() == [False]

    def test_ratio_threshold(self):
        frame = _frame_of([Box(0, 0, 10, 10)] * 3)
        assert region_contained(frame, [Box(0, 0, 10, 9.5)]).all()  # 95% covered
        assert region_contained(frame, [Box(0, 0, 10, 9.0)]).all()  # 90%: inclusive
        assert not region_contained(frame, [Box(0, 0, 10, 8.0)]).any()  # 80% covered

    def test_growing_region_grows_pool(self):
        frame = _frame_of([Box(0, 0, 10, 10), Box(2, 2, 4, 4), Box(20, 20, 5, 5)])
        small = region_contained(frame, [Box(0, 0, 8, 8)])
        large = region_contained(frame, [Box(0, 0, 12, 12)])
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
        mask = region_contained(_frame_of(boxes), regions)
        assert mask.tolist() == [union_area_exact(b, regions) >= CONTAINMENT_RATIO * b.area
                                 for b in boxes]

    @settings(deadline=None)
    @given(st.lists(_real_box(0.0, 100.0), min_size=1, max_size=4),
           st.lists(_real_box(-50.0, 150.0), min_size=1, max_size=5))
    def test_matches_exact_union_area_real_edges(self, boxes, regions):
        mask = region_contained(_frame_of(boxes), regions)
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
        mask = region_contained(frame, [Box(0, 0, 60, 60)])
        pool = retrieval_pool(frame, mask, {0: 0.2, 1: 0.9, 2: 5.0}, limit=10)
        assert pool.tolist() == [1, 0]  # proposal 2 lies outside

    def test_limit_cap(self):
        frame = make_frame(proposals=[
            Proposal(i, Box(1 + i, 1, 20, 20), basis_vec(4, i % 4)) for i in range(5)
        ])
        mask = region_contained(frame, [Box(0, 0, 320, 240)])
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
        sim_twin = frame_similarity(query, row, twin, row, cfg)
        sim_ortho = frame_similarity(query, row, ortho, row, cfg)
        assert sim_twin > sim_ortho > 0

    def test_empty_side_scores_zero(self):
        cfg = Config()
        frame = make_frame(proposals=[Proposal(0, Box(0, 0, 10, 10), basis_vec(4, 0))])
        none, row = np.array([], dtype=int), np.array([0])
        assert frame_similarity(frame, none, frame, row, cfg) == 0.0
        assert frame_similarity(frame, row, frame, none, cfg) == 0.0

    def test_outside_proposals_do_not_change_pool(self):
        frame = make_frame(proposals=[
            Proposal(0, Box(10, 10, 40, 40), basis_vec(4, 0)),
            Proposal(1, Box(250, 180, 60, 50), basis_vec(4, 1)),
        ])
        mask = region_contained(frame, [Box(0, 0, 60, 60)])
        pool = retrieval_pool(frame, mask, {0: 1.0, 1: 9.0}, limit=10)
        assert pool.tolist() == [0]


class TestUpdateNetwork:
    def test_iteration_zero_delegates_to_bootstrap(self, noise_free_bundle):
        collection, _, _ = noise_free_bundle
        cfg = Config()
        state = initialize_state(collection, cfg)
        # bootstrap reads no masks
        graph = update_network(state, {}, Workers(RunInputs(collection, cfg, {})))
        expected = bootstrap_neighbors(collection, cfg.k_neighbors, cfg.keyframe_stride)
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
        graph = update_network(initialize_state(collection, cfg), {},
                               Workers(RunInputs(collection, cfg, {})))
        assert all(len(v) == 1 for v in graph.neighbors.values())

    def test_equal_similarities_tie_break(self):
        # identical signatures everywhere: neighbors are the smallest
        # (video id, frame index) pairs from other videos
        frames = {
            vid: [_signature_frame(vid, 0, [1, 0, 0, 0])]
            for vid in ("a", "b", "c", "d")
        }
        graph = bootstrap_neighbors(_collection_of_frames(frames), k=2, stride=20)
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
        phi_a, _ = appearance_confidence(frame, pools, cfg)
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
            phi_a, _ = appearance_confidence(frame, pools_by_kf[kf], cfg)
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
        phi_a, saliency = appearance_confidence(frame, pools, cfg)
        # cross-class saliencies are far below the same-class level
        same = [(collection.videos["class0_v01"].frames[0],
                 list(collection.videos["class0_v01"].frames[0].proposals))]
        _, same_sal = appearance_confidence(frame, same, cfg)
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


@pytest.fixture
def small():
    spec = SynthSpec(num_classes=2, videos_per_class=2, frames_per_video=40,
                     num_distractors=3, seed=11)
    collection, _, _ = generate_collection(spec)
    config = Config(iterations=3, k_neighbors=4, p_tubes=2)
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

    def test_objective_bound_counts_key_frames(self, small):
        # one key frame per video: no pairwise term enters the objective
        collection, config, _ = small
        weights = {"lambda_": 1e308, "theta": -1e308}
        check_objective_bound(collection, replace(config, keyframe_stride=40, **weights))
        check_objective_bound(collection, replace(config, alpha=1e307, lambda_=1e150,
                                                  theta=-1e150))
        with pytest.raises(ValidationError):
            check_objective_bound(collection, replace(config, **weights))


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
        # every iteration reads the masks of the previous state's regions;
        # the final state's regions are read by no one
        collection, config, key_frame_count = small
        counts: dict = {}
        self._count_calls(monkeypatch, "region_contained", counts)
        run_discovery(collection, config, threads=1)
        assert counts["region_contained"] == config.iterations * key_frame_count

    def test_motion_once_per_run(self, small, monkeypatch):
        collection, config, key_frame_count = small
        counts: dict = {}
        self._count_calls(monkeypatch, "VideoTrackIndex", counts)
        self._count_calls(monkeypatch, "motion_coherence_many", counts)
        run_discovery(collection, config, threads=1)
        assert counts["VideoTrackIndex"] == len(collection.videos)
        assert counts["motion_coherence_many"] == key_frame_count

    def test_precomputed_motion_gives_the_same_trellis(self, small):
        collection, config, _ = small
        video = next(iter(collection.videos.values()))
        kfs = key_frames(video, config.keyframe_stride)
        neighbor = collection.videos[list(collection.videos)[-1]]
        pools_by_kf = {kf: [(neighbor.frames[0], list(neighbor.frames[0].proposals))]
                       for kf in kfs}
        fresh, _ = build_video_trellis(video, pools_by_kf, config)
        reused, _ = build_video_trellis(video, pools_by_kf, config,
                                        discovery.motion_scores(video, kfs))
        for t in range(fresh.num_frames):
            assert np.array_equal(fresh.candidate_ids[t], reused.candidate_ids[t])
            assert np.array_equal(fresh.unary[t], reused.unary[t])


class TestWorkers:
    """``threads`` > 1 forks one process pool per run."""

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

    @pytest.mark.parametrize("threads,iterations", [(2, 1), (2, 3), (3, 3)])
    def test_one_fork_per_worker_per_run(self, small, forks, threads, iterations):
        collection, config, _ = small
        run_discovery(collection, replace(config, iterations=iterations), threads=threads)
        assert len(forks) == threads
        assert multiprocessing.active_children() == []

    def test_no_more_workers_than_key_frames(self, small, forks):
        # no phase has more tasks than key frames, so extra workers are not forked
        collection, config, key_frame_count = small
        assert key_frame_count == 8
        baseline = run_discovery(collection, config, threads=1)
        result = run_discovery(collection, config, threads=12)
        assert len(forks) == key_frame_count
        assert multiprocessing.active_children() == []
        assert result.tubes == baseline.tubes
        assert result.graph == baseline.graph

    @pytest.mark.parametrize("task", ["frame_similarity", "relocalize_video"])
    def test_worker_error_reaches_caller(self, small, monkeypatch, task):
        # patched before the run, so the forked workers inherit the patch
        collection, config, _ = small

        def fail(*_args, **_kwargs):
            raise ValidationError("no good", locus="v.frames.jsonl:7")

        monkeypatch.setattr(discovery, task, fail)
        with pytest.raises(ValidationError) as err:
            run_discovery(collection, config, threads=2)
        assert str(err.value) == "v.frames.jsonl:7: no good"
        assert err.value.locus == "v.frames.jsonl:7"
        assert multiprocessing.active_children() == []
