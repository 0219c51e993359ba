"""Degenerate collections run to completion and stay thread-count independent."""

import pytest

from tubeloc.discovery import run_discovery
from tubeloc.model import Config, key_frames
from tubeloc.synth import SynthSpec, generate_collection

CASES = {
    # a single video: every key frame's neighbor list is empty
    "one_video": SynthSpec(num_classes=1, videos_per_class=1, frames_per_video=41),
    # one key frame per video: the trellis is a single column
    "one_key_frame": SynthSpec(videos_per_class=2, frames_per_video=10),
    # one-frame videos carry no point tracks
    "no_tracks": SynthSpec(videos_per_class=2, frames_per_video=1),
}


def _outputs(result) -> tuple:
    tubes = {vid: (sol.tube.regions, sol.objective) for vid, sol in result.tubes.items()}
    return tubes, result.graph.neighbors


@pytest.mark.parametrize("name", sorted(CASES))
def test_degenerate_collection_completes(name):
    collection, _planted, _truths = generate_collection(CASES[name])
    config = Config(iterations=2)
    if name == "no_tracks":
        assert all(not video.tracks for video in collection.videos.values())
    result = run_discovery(collection, config, threads=1)

    assert set(result.tubes) == set(collection.videos)
    for vid, sol in result.tubes.items():
        video = collection.videos[vid]
        kfs = key_frames(video, config.keyframe_stride)
        assert sorted(sol.tube.regions) == kfs
        for kf, pid in sol.tube.regions.items():
            assert pid in {p.id for p in video.frames[kf].proposals}
    if name == "one_video":
        assert all(entries == [] for entries in result.graph.neighbors.values())
    if name == "one_key_frame":
        assert all(len(key_frames(v, config.keyframe_stride)) == 1
                   for v in collection.videos.values())

    assert _outputs(run_discovery(collection, config, threads=2)) == _outputs(result)
