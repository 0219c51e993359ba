import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import verify_planted_optimal
from tubeloc.discovery import build_video_trellis
from tubeloc.formats import load_collection, save_collection
from tubeloc.model import ValidationError, key_frames
from tubeloc.synth import (
    SynthSpec,
    generate_collection,
    load_planted,
    save_planted,
)


class TestGenerator:
    def test_same_seed_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for out in (a_dir, b_dir):
            collection, _, _ = generate_collection(SynthSpec(seed=21))
            save_collection(collection, out)
        for src in sorted(a_dir.iterdir()):
            assert src.read_bytes() == (b_dir / src.name).read_bytes()

    def test_different_seed_different_descriptors(self):
        a, _, _ = generate_collection(SynthSpec(seed=1, descriptor_noise=0.1))
        b, _, _ = generate_collection(SynthSpec(seed=2, descriptor_noise=0.1))
        assert sorted(a.videos) == sorted(b.videos)
        da = a.videos["class0_v00"].frames[0].proposals[0].descriptor
        db = b.videos["class0_v00"].frames[0].proposals[0].descriptor
        assert not np.allclose(da, db)

    def test_orthogonal_class_prototypes(self, noise_free_bundle):
        collection, planted, _ = noise_free_bundle
        d0 = collection.videos["class0_v00"]
        d1 = collection.videos["class1_v00"]
        f0 = d0.frames[0].proposal_by_id(planted.tubes["class0_v00"][0]).descriptor
        f1 = d1.frames[0].proposal_by_id(planted.tubes["class1_v00"][0]).descriptor
        assert abs(float(f0 @ f1)) < 1e-9

    def test_shape_counts(self, noise_free_bundle):
        collection, planted, truths = noise_free_bundle
        assert len(collection.videos) == 8
        for vid, video in collection.videos.items():
            assert video.num_frames == 100
            kfs = key_frames(video, 20)
            assert kfs == [0, 20, 40, 60, 80]
            assert sorted(planted.tubes[vid]) == kfs
            for kf in kfs:
                assert len(video.frames[kf].proposals) == 9
        assert len(truths) == 8

    def test_planted_boxes_linear_between_key_frames(self, noise_free_bundle):
        _, planted, _ = noise_free_bundle
        boxes = planted.boxes["class0_v00"]
        mid = boxes[10]
        lo, hi = boxes[0], boxes[20]
        assert mid.x_min == pytest.approx((lo.x_min + hi.x_min) / 2, abs=1e-6)
        assert mid.width == pytest.approx((lo.width + hi.width) / 2, abs=1e-6)

    def test_generated_files_load_back(self, tmp_path, noise_free_bundle):
        collection, _, _ = noise_free_bundle
        save_collection(collection, tmp_path)
        loaded = load_collection(tmp_path / "manifest.jsonl", keyframe_stride=20)
        assert sorted(loaded.videos) == sorted(collection.videos)

    @settings(max_examples=100, deadline=None)
    @given(spec=st.builds(
        SynthSpec,
        seed=st.integers(0, 2 ** 16),
        num_classes=st.integers(1, 17),
        videos_per_class=st.integers(1, 2),
        frames_per_video=st.integers(1, 6),
        keyframe_stride=st.integers(1, 4),
        prototype_separation_deg=st.floats(0.0, 90.0),
        descriptor_noise=st.floats(0.0, sys.float_info.max),
        signature_noise=st.floats(0.0, sys.float_info.max),
        num_distractors=st.integers(0, 2),
    ))
    @example(spec=SynthSpec(num_classes=16, videos_per_class=1, frames_per_video=3,
                            descriptor_noise=1e300, signature_noise=1e300))
    def test_every_accepted_spec_generates_a_loadable_collection(self, spec):
        try:
            spec.validate()
        except ValidationError:
            return
        collection, _, _ = generate_collection(spec)
        with tempfile.TemporaryDirectory() as tmp:
            manifest = save_collection(collection, Path(tmp))
            loaded = load_collection(manifest, keyframe_stride=spec.keyframe_stride)
        assert sorted(loaded.videos) == sorted(collection.videos)

    def test_infeasible_geometry_rejected(self):
        # 17 classes need 17 orthogonal signature prototypes in 16 dimensions
        with pytest.raises(ValidationError, match="num_classes must be <= 16"):
            generate_collection(SynthSpec(num_classes=17))

    def test_annotated_frame_between_key_frames(self, noise_free_bundle):
        collection, _, _ = noise_free_bundle
        for truth in collection.ground_truths.values():
            assert truth.frame_index == 50  # exercises tube interpolation


class TestPlantedSurvival:
    def test_planted_survives_trellis_pruning(self, noise_free_bundle, default_config):
        collection, planted, _ = noise_free_bundle
        vid = "class0_v00"
        video = collection.videos[vid]
        neighbor = collection.videos["class0_v01"]
        pools_by_kf = {
            kf: [(neighbor.frames[nkf], list(neighbor.frames[nkf].proposals))
                 for nkf in key_frames(neighbor, 20)]
            for kf in key_frames(video, 20)
        }
        trellis, _ = build_video_trellis(video, pools_by_kf, default_config)
        for t, kf in enumerate(key_frames(video, 20)):
            assert planted.tubes[vid][kf] in trellis.candidate_ids[t]


class TestVerifyPlantedOptimal:
    def test_default_spec_holds(self, noise_free_bundle, default_config):
        collection, planted, _ = noise_free_bundle
        assert verify_planted_optimal(collection, planted, default_config)

    def test_extreme_noise_breaks_optimality(self, default_config):
        spec = SynthSpec(descriptor_noise=5.0, seed=3)
        collection, planted, _ = generate_collection(spec)
        assert not verify_planted_optimal(collection, planted, default_config)

    def test_no_distractors_holds(self, default_config):
        spec = SynthSpec(num_distractors=0)
        collection, planted, _ = generate_collection(spec)
        assert verify_planted_optimal(collection, planted, default_config)


class TestBruteForceGuards:
    def test_matching_pair_guard(self, noise_free_bundle, default_config):
        from tubeloc.synth import brute_force_matching

        collection, _, _ = noise_free_bundle
        frame = collection.videos["class0_v00"].frames[0]
        many = frame.proposals * 40  # 360 x 360 pairs exceeds the guard
        with pytest.raises(ValueError, match="guard"):
            brute_force_matching(many, many, frame, frame, default_config)


class TestPlantedArtifact:
    def test_round_trip(self, tmp_path, noise_free_bundle):
        _, planted, _ = noise_free_bundle
        path = tmp_path / "planted.jsonl"
        save_planted(planted, path)
        loaded = load_planted(path)
        assert loaded.class_labels == planted.class_labels
        assert loaded.tubes == planted.tubes
        assert loaded.boxes == planted.boxes
