"""Degenerate collections run to completion and stay thread-count independent."""

import pytest

from helpers import move_out_of_frame
from tubeloc.discovery import MatchCache, region_contained, run_discovery, update_network
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


def test_neighbors_with_empty_pools_complete():
    # two videos: in the first iteration every neighbor of the first video's
    # key frames is a key frame of the second, whose pool is empty
    collection, _planted, _truths = generate_collection(
        SynthSpec(num_classes=1, videos_per_class=2, frames_per_video=41))
    config = Config(iterations=3)
    first, second = collection.videos.values()
    move_out_of_frame(second, config.keyframe_stride)
    result = run_discovery(collection, config, threads=1)
    saliency = result.snapshots[0].saliency[first.video_id]
    assert all(value == 0.0 for by_id in saliency.values() for value in by_id.values())
    assert _outputs(run_discovery(collection, config, threads=2)) == _outputs(result)


@pytest.mark.parametrize("threads", [1, 2])
def test_empty_retrieval_pools_score_zero_and_are_not_cached(threads):
    collection, _planted, _truths = generate_collection(
        SynthSpec(num_classes=1, videos_per_class=3, frames_per_video=41))
    config = Config(iterations=1)
    state = run_discovery(collection, config, threads=1).snapshots[0]
    empty = list(collection.videos)[-1]
    contained = {(vid, kf): region_contained(collection.videos[vid].frames[kf], regions)
                 & (vid != empty)
                 for vid, by_kf in state.boxes.items() for kf, regions in by_kf.items()}
    with MatchCache(collection, config, threads) as cache:
        graph = update_network(state, contained, cache)
    kfs = {vid: len(key_frames(video, config.keyframe_stride))
           for vid, video in collection.videos.items()}
    for (vid, _kf), entries in graph.neighbors.items():
        for (nvid, _nkf), similarity in entries:
            assert (similarity == 0.0) == (empty in (vid, nvid))
    # retrieval matched one table per unordered pair of key frames of the two
    # videos with pools, and the cache keeps no table with an empty side
    pairs = kfs[list(collection.videos)[0]] * kfs[list(collection.videos)[1]]
    assert cache.counts[0] == (pairs, 0)  # retrieval's, before saliency's
    assert all(side[2] for key in cache.tables for side in key)
    assert update_network(state, contained, MatchCache(collection, config)) == graph
