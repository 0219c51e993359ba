"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line on stderr (visible with ``pytest -s``).
"""

import os
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    appearance_affinity,
    frame_appearance,
    key_frame_map,
    remove_choice,
    shared_track_points,
    verify_planted_optimal,
)
from tubeloc.cli import main as cli_main
from tubeloc.consistency import (
    appearance_consistency_matrix,
    motion_consistency_matrix,
)
from tubeloc.discovery import bootstrap_neighbors, run_discovery
from tubeloc.formats import save_collection
from tubeloc.matching import match_confidences
from tubeloc.metrics import corloc, corret, iou, retrieval_confusion, topk_error, video_labels
from tubeloc.model import Box, Config, NeighborGraph, interpolate_tube, key_frames
from tubeloc.motion import VideoTrackIndex, motion_coherence_many
from tubeloc.solver import Trellis, solve_p_best
from tubeloc.synth import (
    SynthSpec,
    brute_force_matching,
    brute_force_tube,
    generate_collection,
)

# Descriptor noise at which the planted-vs-background affinity margin is
# roughly halved (checked inside criterion 5).
HALF_MARGIN_NOISE = 0.11


class _report:
    def __init__(self, num, name):
        self.line = f"ACCEPTANCE {num} {name}"

    def __enter__(self):
        return self

    def __exit__(self, exc_type, _exc, _tb):
        print(f"{self.line}: {'PASS' if exc_type is None else 'FAIL'}", file=sys.stderr)
        return False


def _dp_instances(count=200, seed=20240501):
    """Seeded random trellises per the acceptance setup: T <= 6, <= 8
    candidates per frame, unary in [0, 1], pairwise in [-2, 1]."""
    rng = np.random.default_rng(seed)
    instances = []
    for trial in range(count):
        T = int(rng.integers(1, 7))
        sizes = [int(rng.integers(1, 9)) for _ in range(T)]
        ids = [np.sort(rng.choice(1000, size=n, replace=False)).astype(int) for n in sizes]
        unary = [rng.uniform(0.0, 1.0, size=n) for n in sizes]
        pairwise = [rng.uniform(-2.0, 1.0, size=(sizes[t], sizes[t + 1]))
                    for t in range(T - 1)]
        lam = (0.0, 0.5, 2.0)[trial % 3]
        instances.append((Trellis(f"i{trial}", list(range(T)), ids, unary, pairwise), lam))
    return instances


def test_criterion_1_dp_optimality():
    with _report(1, "DP optimality vs exhaustive enumeration"):
        start = time.perf_counter()
        for trellis, lam in _dp_instances():
            dp = solve_p_best(trellis, 1, lam)[0]
            bf = brute_force_tube(trellis, lam)
            assert dp.tube.regions == bf.tube.regions
            assert abs(dp.objective - bf.objective) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"200 instances took {elapsed:.2f}s"


def test_criterion_2_sequential_dp():
    with _report(2, "sequential DP extracts residual optima"):
        for trellis, lam in _dp_instances():
            solutions = solve_p_best(trellis, 3, lam)
            capacity = min(trellis.candidate_count(t) for t in range(trellis.num_frames))
            assert len(solutions) == min(3, capacity)
            for kf in trellis.frame_indices:
                chosen = [sol.tube.regions[kf] for sol in solutions]
                assert len(chosen) == len(set(chosen)), "tubes share a region"
            residual = trellis
            for i, sol in enumerate(solutions):
                expected = brute_force_tube(residual, lam)
                assert sol.tube.regions == expected.tube.regions
                assert abs(sol.objective - expected.objective) <= 1e-9
                if i + 1 < len(solutions):
                    residual = remove_choice(residual, sol.tube.regions)
                    assert residual is not None


def test_criterion_3_matching_oracle_equivalence():
    with _report(3, "production matching equals naive voting within 1e-12"):
        from helpers import all_rows, rand_frame

        rng = np.random.default_rng(77)
        cfg = Config()
        for _ in range(100):
            a = rand_frame(rng, "a", int(rng.integers(1, 21)))
            b = rand_frame(rng, "b", int(rng.integers(1, 21)))
            expected_votes, expected_scores = brute_force_matching(a.proposals, b.proposals,
                                                                   a, b, cfg)
            votes, scores = match_confidences(all_rows(a), all_rows(b), a, b, cfg)
            np.testing.assert_allclose(votes, expected_votes, rtol=1e-12, atol=1e-280)
            np.testing.assert_allclose(scores, expected_scores, rtol=1e-12, atol=1e-280)


def _bootstrap_pools(collection, config):
    """Iteration-1 neighbor pools: whole-frame localizations, all proposals."""
    graph = bootstrap_neighbors(key_frame_map(collection, config.keyframe_stride),
                                config.k_neighbors)
    pools = {}
    for vid, video in collection.videos.items():
        for kf in key_frames(video, config.keyframe_stride):
            refs = graph.neighbors[(vid, kf)]
            pools[(vid, kf)] = [
                (collection.videos[nvid].frames[nkf],
                 list(collection.videos[nvid].frames[nkf].proposals))
                for (nvid, nkf), _sim in refs
            ]
    return pools


def test_criterion_4_score_range_invariants(noise_free_bundle):
    with _report(4, "score ranges: standout, motion, consistency"):
        cfg = Config()
        for spec in (SynthSpec(), replace(SynthSpec(), descriptor_noise=HALF_MARGIN_NOISE)):
            collection, _, _ = generate_collection(spec)
            pools = _bootstrap_pools(collection, cfg)
            for vid, video in collection.videos.items():
                kfs = key_frames(video, cfg.keyframe_stride)
                for kf, tracks in zip(kfs, VideoTrackIndex(video, kfs).at):
                    frame = video.frames[kf]
                    phi_a, _ = frame_appearance(frame, pools[(vid, kf)], cfg)
                    assert np.all((phi_a >= 0.0) & (phi_a <= 1.0))
                    degenerate = np.all(phi_a == phi_a[0])
                    if not degenerate:
                        assert phi_a.min() == 0.0 and phi_a.max() == 1.0
                    phi_m = motion_coherence_many(frame.boxes, [len(frame.boxes)], [tracks])
                    assert np.all((phi_m >= 0.0) & (phi_m <= 4.0))
                for a, b in zip(kfs, kfs[1:]):
                    props_a = video.frames[a].proposals
                    props_b = video.frames[b].proposals
                    psi_a = appearance_consistency_matrix(
                        np.stack([p.descriptor for p in props_a]),
                        np.stack([p.descriptor for p in props_b]))
                    assert np.all((psi_a >= 0.0) & (psi_a <= 1.0))
                    pts_a, pts_b = shared_track_points(video, a, b)
                    psi_m = motion_consistency_matrix(
                        video.frames[a].boxes, video.frames[b].boxes,
                        pts_a, pts_b, cfg.theta)
                    in_unit = (psi_m >= -1.0) & (psi_m <= 0.0)
                    assert np.all(in_unit | (psi_m == cfg.theta))
                    assert cfg.theta == -2.0


def test_criterion_5_end_to_end_recovery(noise_free_bundle, noise_free_run):
    with _report(5, "end-to-end recovery: CorLoc/CorRet on planted collections"):
        collection, planted, _ = noise_free_bundle
        cfg = Config()
        assert (cfg.alpha, cfg.lambda_, cfg.k_neighbors, cfg.p_tubes, cfg.iterations) == \
            (0.5, 2.0, 10, 5, 5)
        assert verify_planted_optimal(collection, planted, cfg)

        result, elapsed = noise_free_run
        assert elapsed < 60.0, f"noise-free run took {elapsed:.1f}s"
        tubes = {vid: sol.tube for vid, sol in result.tubes.items()}
        _, corloc_avg = corloc(tubes, collection)
        _, corret_avg = corret(result.graph, video_labels(collection))
        assert corloc_avg == 100.0
        assert corret_avg == 100.0

        # noisy variant: raise descriptor noise until affinity margins halve
        noisy_spec = replace(SynthSpec(), descriptor_noise=HALF_MARGIN_NOISE)
        noisy_col, noisy_planted, _ = generate_collection(noisy_spec)
        ratio = _margin_ratio(collection, planted, noisy_col, noisy_planted)
        assert 0.35 <= ratio <= 0.65, f"margin ratio {ratio:.2f} is not near one half"
        start = time.perf_counter()
        noisy_result = run_discovery(noisy_col, cfg, threads=os.cpu_count())
        noisy_elapsed = time.perf_counter() - start
        assert noisy_elapsed < 60.0, f"noisy run took {noisy_elapsed:.1f}s"
        noisy_tubes = {vid: sol.tube for vid, sol in noisy_result.tubes.items()}
        _, noisy_corloc = corloc(noisy_tubes, noisy_col)
        assert noisy_corloc >= 90.0


def _margin_ratio(clean_col, clean_planted, noisy_col, noisy_planted):
    """Planted-vs-background affinity margin of the noisy collection relative
    to the clean one."""

    def margin(collection, planted):
        vids = sorted(collection.videos)
        planted_descs, background = {}, []
        for vid in vids:
            frame = collection.videos[vid].frames[0]
            pid = planted.tubes[vid][0]
            planted_descs[vid] = frame.proposal_by_id(pid).descriptor
            background += [p.descriptor for p in frame.proposals if p.id != pid]
        same = [
            appearance_affinity(planted_descs[a], planted_descs[b], 1.0)
            for i, a in enumerate(vids) for b in vids[i + 1:]
            if planted.class_labels[a] == planted.class_labels[b]
        ]
        floor = [
            appearance_affinity(planted_descs[vids[0]], desc, 1.0)
            for desc in background[:60]
        ]
        return float(np.mean(same)) - float(np.mean(floor))

    return margin(noisy_col, noisy_planted) / margin(clean_col, clean_planted)


def test_criterion_6_iteration_monotonicity(noise_free_bundle, noise_free_run):
    with _report(6, "mean IoU vs planted is non-decreasing over iterations"):
        collection, planted, _ = noise_free_bundle
        result, _ = noise_free_run
        curve = []
        for iteration in range(1, Config().iterations + 1):
            state = result.state(iteration)
            total, count = 0.0, 0
            for vid, sols in state.tubes.items():
                boxes = interpolate_tube(sols[0].tube, collection.videos[vid])
                for t, box in boxes.items():
                    total += iou(box, planted.boxes[vid][t])
                    count += 1
            curve.append(total / count)
        assert len(curve) == 5
        assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:])), curve


def test_criterion_7_metric_unit_suite():
    with _report(7, "metric hand cases and invariants"):
        assert iou(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == 1.0
        assert iou(Box(0, 0, 10, 10), Box(50, 50, 10, 10)) == 0.0
        assert iou(Box(0, 0, 10, 10), Box(5, 0, 10, 10)) == pytest.approx(1 / 3)

        # the localization criterion is strictly greater than one half
        from tubeloc.metrics import IOU_THRESHOLD
        boundary = iou(Box(0, 0, 10, 10), Box(0, 0, 10, 5))
        assert boundary == 0.5
        assert not boundary > IOU_THRESHOLD

        rng = np.random.default_rng(5)
        vids = [f"v{i}" for i in range(10)]
        labels = {vid: f"class{i % 3}" for i, vid in enumerate(vids)}
        for _ in range(20):
            graph = NeighborGraph()
            for vid in vids:
                others = [w for w in vids if w != vid]
                graph.neighbors[(vid, 0)] = [
                    ((str(other), 0), float(rng.uniform(0, 1)))
                    for other in rng.choice(others, size=6)
                ]
            _, top1 = topk_error(graph, labels, 1)
            _, top2 = topk_error(graph, labels, 2)
            assert top2 <= top1 + 1e-9
            classes, matrix = retrieval_confusion(graph, labels)
            per_class, _ = corret(graph, labels)
            for i, label in enumerate(classes):
                assert matrix[i, i] == pytest.approx(per_class[label], abs=1e-9)
                assert abs(matrix[i].sum() - 100.0) < 0.1


def test_criterion_8_pipeline_determinism(tmp_path, noise_free_bundle):
    with _report(8, "byte-identical outputs for identical seed and config"):
        collection, _, _ = noise_free_bundle
        data = tmp_path / "collection"
        save_collection(collection, data)
        args = ["run", "--collection", str(data / "manifest.jsonl"), "--snapshots",
                "--threads", str(os.cpu_count() or 1)]
        out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
        assert cli_main(args + ["--out", str(out_a)]) == 0
        assert cli_main(args + ["--out", str(out_b)]) == 0

        # every result file must match; the run manifest is excluded since it
        # records wall-clock timestamps by design
        files_a = sorted(
            p.relative_to(out_a) for p in out_a.rglob("*")
            if p.is_file() and p.name != "run_manifest.json"
        )
        files_b = sorted(
            p.relative_to(out_b) for p in out_b.rglob("*")
            if p.is_file() and p.name != "run_manifest.json"
        )
        assert files_a == files_b and files_a
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
