import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubeloc.formats import (
    canon_float,
    load_collection,
    load_neighbor_graph,
    load_tubes,
    save_collection,
    save_neighbor_graph,
    save_results,
    save_run_manifest,
    save_tubes,
    write_jsonl,
    write_text,
)
from tubeloc.model import (
    Collection,
    Config,
    Frame,
    NeighborGraph,
    Tube,
    ValidationError,
    Video,
    build_columns,
)
from tubeloc.motion import VideoTrackIndex
from tubeloc.synth import SynthSpec, generate_collection


def _assert_collections_equal(a, b):
    assert a.descriptor_dim == b.descriptor_dim
    assert a.signature_dim == b.signature_dim
    assert list(a.videos) == list(b.videos)
    for vid in a.videos:
        va, vb = a.videos[vid], b.videos[vid]
        assert va.num_frames == vb.num_frames
        assert sorted(va.frames) == sorted(vb.frames)
        for t in va.frames:
            fa, fb = va.frames[t], vb.frames[t]
            assert (fa.width, fa.height) == (fb.width, fb.height)
            np.testing.assert_array_equal(fa.signature, fb.signature)
            assert [p.id for p in fa.proposals] == [p.id for p in fb.proposals]
            for pa, pb in zip(fa.proposals, fb.proposals):
                assert pa.box == pb.box
                np.testing.assert_allclose(pa.descriptor, pb.descriptor, atol=1e-9)
        assert len(va.tracks) == len(vb.tracks)
        for ta, tb in zip(va.tracks, vb.tracks):
            assert (ta.id, ta.cluster_label, ta.start_frame) == (tb.id, tb.cluster_label, tb.start_frame)
            np.testing.assert_array_equal(ta.points, tb.points)
    assert a.ground_truths == b.ground_truths


def _frames_only(frames_by_video: dict[str, list[int]]) -> Collection:
    """A collection of unlabeled videos holding just the given frames."""
    collection = Collection(1, 1)
    for vid, indices in frames_by_video.items():
        frames = {t: Frame(vid, t, 1.0, 1.0, [], np.ones(1)) for t in indices}
        collection.videos[vid] = Video(vid, max(indices) + 1, frames)
    return collection


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    """A hand-sized collection on disk: 1 video, 1 frame, 4 proposals."""
    out = tmp_path_factory.mktemp("tiny")
    spec = SynthSpec(num_classes=1, videos_per_class=1, frames_per_video=1, num_distractors=0)
    collection, _planted, _truths = generate_collection(spec)
    save_collection(collection, out)
    return out, collection


class TestCanonFloat:
    def test_json_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(11)
        for value in rng.uniform(-1e6, 1e6, size=200):
            c = canon_float(value)
            assert json.loads(json.dumps(c)) == c
            assert canon_float(c) == c

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            canon_float(float("inf"))


class TestLoadCollection:
    def test_minimal_hand_written_manifest(self, tmp_path):
        (tmp_path / "manifest.jsonl").write_text(
            '{"type": "collection", "format_version": 1, "descriptor_dim": 2, "signature_dim": 2}\n'
            '{"type": "video", "video_id": "v0", "num_frames": 1,'
            ' "frames_file": "v0.frames.jsonl", "tracks_file": "v0.tracks.jsonl"}\n'
        )
        (tmp_path / "v0.frames.jsonl").write_text(
            '{"type": "frame", "frame_index": 0, "width": 100.0, "height": 100.0, "signature": [1.0, 0.0]}\n'
            '{"type": "proposal", "frame_index": 0, "id": 0, "box": [10, 10, 20, 20], "descriptor": [3.0, 4.0]}\n'
        )
        (tmp_path / "v0.tracks.jsonl").write_text("")
        loaded = load_collection(tmp_path / "manifest.jsonl")
        assert len(loaded.videos) == 1
        video = loaded.videos["v0"]
        assert video.num_frames == 1
        assert len(video.frames[0].proposals) == 1
        # descriptors are normalized at ingestion
        np.testing.assert_allclose(video.frames[0].proposals[0].descriptor, [0.6, 0.8])

    @pytest.mark.parametrize("descriptor,expected", [
        ([1e200, 1e200], [2 ** -0.5, 2 ** -0.5]),
        ([1e-320, 0.0], [1.0, 0.0]),
    ], ids=["squared_norm_overflows", "subnormal"])
    def test_finite_nonzero_descriptor_loads_unit_norm(self, tmp_path, descriptor, expected):
        # neither a squared norm that overflows nor one that underflows to 0
        # makes the descriptor zero or rejects it
        (tmp_path / "manifest.jsonl").write_text(
            '{"type": "collection", "format_version": 1, "descriptor_dim": 2, "signature_dim": 2}\n'
            '{"type": "video", "video_id": "v0", "num_frames": 1,'
            ' "frames_file": "v0.frames.jsonl", "tracks_file": "v0.tracks.jsonl"}\n'
        )
        write_jsonl(tmp_path / "v0.frames.jsonl", [
            {"type": "frame", "frame_index": 0, "width": 100.0, "height": 100.0,
             "signature": [1.0, 0.0]},
            {"type": "proposal", "frame_index": 0, "id": 0, "box": [10, 10, 20, 20],
             "descriptor": descriptor}])
        (tmp_path / "v0.tracks.jsonl").write_text("")
        loaded = load_collection(tmp_path / "manifest.jsonl", keyframe_stride=1)
        got = loaded.videos["v0"].frames[0].proposals[0].descriptor
        np.testing.assert_allclose(got, expected, rtol=1e-15)

    @staticmethod
    def _write_tracked_video(root: Path, sizes, tracks) -> Path:
        """One video with frames of the given (width, height) and the given
        track records (start frame, points); returns the manifest."""
        (root / "manifest.jsonl").write_text(
            '{"type": "collection", "format_version": 1, "descriptor_dim": 2, "signature_dim": 2}\n'
            + json.dumps({"type": "video", "video_id": "v0", "num_frames": len(sizes),
                          "frames_file": "v0.frames.jsonl",
                          "tracks_file": "v0.tracks.jsonl"}) + "\n")
        write_jsonl(root / "v0.frames.jsonl", [
            {"type": "frame", "frame_index": t, "width": w, "height": h,
             "signature": [1.0, 0.0]} for t, (w, h) in enumerate(sizes)])
        write_jsonl(root / "v0.tracks.jsonl", [
            {"type": "track", "id": i, "cluster": 0, "start_frame": start,
             "points": points} for i, (start, points) in enumerate(tracks)])
        return root / "manifest.jsonl"

    def test_track_points_on_the_bounds_slack_load(self, tmp_path):
        sizes = [(100.0, 80.0), (60.0, 300.0), (50.0, 50.0)]
        eps = [1e-6 * max(w, h) for w, h in sizes]
        low = [[-e, -e] for e in eps]
        high = [[w + e, h + e] for (w, h), e in zip(sizes, eps)]
        manifest = self._write_tracked_video(tmp_path, sizes, [(0, low), (0, high)])
        tracks = load_collection(manifest).videos["v0"].tracks
        np.testing.assert_array_equal(tracks[0].points, low)
        np.testing.assert_array_equal(tracks[1].points, high)

    def test_first_track_point_outside_bounds_is_named(self, tmp_path):
        sizes = [(100.0, 80.0)] * 5
        eps = 1e-6 * 100.0
        # frames 2 and 4 are outside, just past the slack in x and in y
        points = [[1.0, 1.0], [100.0 + eps, 80.0], [np.nextafter(100.0 + eps, 200.0), 1.0],
                  [1.0, 1.0], [1.0, np.nextafter(-eps, -1.0)]]
        manifest = self._write_tracked_video(
            tmp_path, sizes, [(0, [[1.0, 1.0], [2.0, 2.0]]), (0, points)])
        with pytest.raises(ValidationError) as err:
            load_collection(manifest)
        assert str(err.value) == (f"{tmp_path / 'v0.tracks.jsonl'}:2: "
                                  "track 1 point at frame 2 outside frame bounds")

    def test_generated_tiny_round_trip(self, tiny_dir):
        out, collection = tiny_dir
        loaded = load_collection(out / "manifest.jsonl")
        _assert_collections_equal(collection, loaded)

    def test_zero_width_box_names_frame_and_proposal(self, tmp_path, tiny_dir):
        out, _ = tiny_dir
        target = tmp_path / "bad"
        target.mkdir()
        for src in out.iterdir():
            target.joinpath(src.name).write_bytes(src.read_bytes())
        frames_file = next(target.glob("*.frames.jsonl"))
        lines = frames_file.read_text().splitlines()
        pid = fidx = None
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record["type"] == "proposal":
                record["box"][2] = 0.0
                lines[i] = json.dumps(record)
                pid, fidx = record["id"], record["frame_index"]
                break
        frames_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as err:
            load_collection(target / "manifest.jsonl")
        message = str(err.value)
        assert frames_file.name in message
        assert f"proposal {pid}" in message
        assert f"frame {fidx}" in message

    @pytest.mark.parametrize("side, loads", [(1e-150, True), (1e-160, False), (1e-200, False)])
    def test_box_area_must_not_underflow_against_its_frame(self, tmp_path, tiny_dir, side,
                                                           loads):
        # build_columns takes the log of (w * h) / (W * H) as a box's scale: at
        # 1e-160 the box area is a positive subnormal but its ratio to the
        # frame's is 0, and at 1e-200 the area itself is 0
        out, collection = tiny_dir
        [video] = collection.videos.values()
        target = tmp_path / "bad"
        shutil.copytree(out, target)
        frames_file = next(target.glob("*.frames.jsonl"))
        records = [json.loads(line) for line in frames_file.read_text().splitlines()]
        line, record = next((i, r) for i, r in enumerate(records, start=1)
                            if r["type"] == "proposal")
        record["box"] = [10.0, 10.0, side, side]
        frames_file.write_text("".join(json.dumps(r) + "\n" for r in records))
        if loads:
            [video] = load_collection(target / "manifest.jsonl").videos.values()
            assert np.isfinite(build_columns(video.frames.values()).locations).all()
            return
        with pytest.raises(ValidationError) as err:
            load_collection(target / "manifest.jsonl")
        assert str(err.value) == (
            f"{frames_file}:{line}: proposal {record['id']} box area underflows against "
            f"frame {record['frame_index']} of video {video.video_id}")

    def test_wrong_descriptor_dimension(self, tmp_path, tiny_dir):
        out, _ = tiny_dir
        target = tmp_path / "bad_dim"
        target.mkdir()
        for src in out.iterdir():
            target.joinpath(src.name).write_bytes(src.read_bytes())
        frames_file = next(target.glob("*.frames.jsonl"))
        lines = frames_file.read_text().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record["type"] == "proposal":
                record["descriptor"] = record["descriptor"][:-1]
                lines[i] = json.dumps(record)
                break
        frames_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="dimension"):
            load_collection(target / "manifest.jsonl")

    def test_duplicate_proposal_id(self, tmp_path, tiny_dir):
        out, _ = tiny_dir
        target = tmp_path / "bad_dup"
        target.mkdir()
        for src in out.iterdir():
            target.joinpath(src.name).write_bytes(src.read_bytes())
        frames_file = next(target.glob("*.frames.jsonl"))
        lines = frames_file.read_text().splitlines()
        dup = next(line for line in lines if json.loads(line)["type"] == "proposal")
        frames_file.write_text("\n".join(lines + [dup]) + "\n")
        with pytest.raises(ValidationError, match="duplicate proposal id"):
            load_collection(target / "manifest.jsonl")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_collection(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize("version, message", [
        (None, "missing field 'format_version'"),
        ("banana", "format_version must be 1, got 'banana'"),
        (2, "format_version must be 1, got 2"),
        (1.0, "format_version must be 1, got 1.0"),
        (True, "format_version must be 1, got True"),
    ], ids=["missing", "string", "other", "float", "bool"])
    def test_format_version_must_match(self, tmp_path, tiny_dir, version, message):
        source, _collection = tiny_dir
        target = tmp_path / "c"
        shutil.copytree(source, target)
        manifest = target / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        header = json.loads(lines[0])
        if version is None:
            del header["format_version"]
        else:
            header["format_version"] = version
        manifest.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ValidationError) as err:
            load_collection(manifest)
        assert str(err.value) == f"{manifest}:1: {message}"

    def test_header_record_only_first(self, tmp_path, tiny_dir):
        source, _collection = tiny_dir
        target = tmp_path / "c"
        shutil.copytree(source, target)
        manifest = target / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines + lines[:1]) + "\n")
        with pytest.raises(ValidationError, match=rf":{len(lines) + 1}: .*may only come first"):
            load_collection(manifest)

    def test_keyframe_stride_requires_proposals(self, tmp_path, tiny_dir):
        out, _ = tiny_dir
        target = tmp_path / "no_props"
        target.mkdir()
        for src in out.iterdir():
            target.joinpath(src.name).write_bytes(src.read_bytes())
        frames_file = next(target.glob("*.frames.jsonl"))
        lines = [line for line in frames_file.read_text().splitlines()
                 if json.loads(line)["type"] != "proposal"]
        frames_file.write_text("\n".join(lines) + "\n")
        load_collection(target / "manifest.jsonl")  # fine without stride
        with pytest.raises(ValidationError, match="no proposals"):
            load_collection(target / "manifest.jsonl", keyframe_stride=20)


class TestCollectionRoundTrip:
    def test_full_synthetic_round_trip(self, tmp_path, noise_free_bundle):
        collection, _planted, _truths = noise_free_bundle
        save_collection(collection, tmp_path)
        loaded = load_collection(tmp_path / "manifest.jsonl", keyframe_stride=20)
        _assert_collections_equal(collection, loaded)

    def test_save_is_deterministic(self, tmp_path, noise_free_bundle):
        collection, _planted, _truths = noise_free_bundle
        a, b = tmp_path / "a", tmp_path / "b"
        save_collection(collection, a)
        save_collection(collection, b)
        for src in sorted(a.iterdir()):
            assert src.read_bytes() == (b / src.name).read_bytes()


class TestResults:
    def test_tube_round_trip(self, tmp_path, noise_free_bundle):
        collection, planted, _ = noise_free_bundle
        tubes = {
            vid: [Tube(vid, dict(planted.tubes[vid]), score=1.23456789123)]
            for vid in collection.videos
        }
        path = tmp_path / "tubes.jsonl"
        save_tubes(tubes, collection, path)
        loaded = load_tubes(path, collection)
        assert set(loaded) == set(tubes)
        for vid in tubes:
            assert loaded[vid][0].regions == tubes[vid][0].regions
            assert loaded[vid][0].score == canon_float(tubes[vid][0].score)

    def test_empty_tube_set(self, tmp_path, noise_free_bundle):
        collection, _, _ = noise_free_bundle
        path = tmp_path / "tubes.jsonl"
        save_tubes({}, collection, path)
        assert path.read_text() == ""
        assert load_tubes(path, collection) == {}

    def test_neighbor_graph_round_trip(self, tmp_path):
        graph = NeighborGraph({
            ("a", 0): [(("b", 20), 0.5), (("c", 0), -1.25)],
            ("b", 20): [(("a", 0), 3.0)],
        })
        path = tmp_path / "neighbors.jsonl"
        save_neighbor_graph(graph, path)
        # "c" has no ground truth, and its frame is still a valid neighbor
        collection = _frames_only({"a": [0], "b": [20], "c": [0]})
        assert load_neighbor_graph(path, collection).neighbors == graph.neighbors

    @pytest.mark.parametrize("graph, message", [
        ({("a", 20): [(("b", 0), 1.0)]}, "query frame 20 of video a"),
        ({("z", 0): [(("b", 0), 1.0)]}, "query frame 0 of video z"),
        ({("a", 0): [(("b", 0), 1.0), (("b", 5), 1.0)]}, "neighbor frame 5 of video b"),
        ({("a", 0): [(("z", 0), 1.0)]}, "neighbor frame 0 of video z"),
    ], ids=["query_frame", "query_video", "neighbor_frame", "neighbor_video"])
    def test_frame_outside_collection_rejected(self, tmp_path, graph, message):
        path = tmp_path / "neighbors.jsonl"
        save_neighbor_graph(NeighborGraph(graph), path)
        with pytest.raises(ValidationError) as err:
            load_neighbor_graph(path, _frames_only({"a": [0], "b": [0, 20]}))
        assert str(err.value) == f"{path}:1: {message} is not in the collection"

    @pytest.mark.parametrize("load,kind", [(lambda path: load_tubes(path, Collection(1, 1)),
                                            "neighbors"),
                                           (lambda path: load_neighbor_graph(
                                               path, Collection(1, 1)), "tube")],
                             ids=["load_tubes-neighbors", "load_neighbor_graph-tube"])
    def test_foreign_record_type_rejected(self, tmp_path, load, kind):
        path = tmp_path / "results.jsonl"
        write_jsonl(path, [{"type": kind}])
        with pytest.raises(ValidationError,
                           match=rf"^{re.escape(str(path))}:1: unexpected record type '{kind}'"):
            load(path)

    def test_self_neighbor_rejected_on_load(self, tmp_path):
        graph = NeighborGraph({("a", 0): [(("a", 20), 1.0)]})
        path = tmp_path / "neighbors.jsonl"
        save_neighbor_graph(graph, path)
        with pytest.raises(ValidationError, match=rf"^{re.escape(str(path))}:1: .*same-video"):
            load_neighbor_graph(path, _frames_only({"a": [0, 20]}))

    def test_save_results_deterministic(self, tmp_path, noise_free_bundle):
        collection, planted, _ = noise_free_bundle
        tubes = {vid: [Tube(vid, dict(planted.tubes[vid]), 0.5)] for vid in collection.videos}
        graph = NeighborGraph({("class0_v00", 0): [(("class1_v00", 0), 1.0)]})
        a, b = tmp_path / "a", tmp_path / "b"
        save_results(tubes, graph, collection, a)
        save_results(tubes, graph, collection, b)
        for name in ("tubes.jsonl", "neighbors.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestAtomicWrites:
    def test_failed_jsonl_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl(path, [{"type": "a", "n": 1}])
        before = path.read_bytes()

        def records():
            yield {"type": "a", "n": 2}
            raise RuntimeError("producer failed")

        with pytest.raises(RuntimeError):
            write_jsonl(path, records())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        def records():
            raise RuntimeError("producer failed")
            yield

        with pytest.raises(RuntimeError):
            write_jsonl(tmp_path / "out" / "records.jsonl", records())
        assert list((tmp_path / "out").iterdir()) == []

    def test_failed_text_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "report.txt"
        write_text(path, "first\n")
        with pytest.raises(UnicodeEncodeError):
            write_text(path, "partial \ud800 text\n")  # a lone surrogate cannot be encoded
        assert path.read_text() == "first\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt"]

    def test_failed_manifest_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "run_manifest.json"
        fields = dict(version="1", input_hash="sha256:0", started_utc="t0", finished_utc="t1")
        save_run_manifest(path, config_dict={"alpha": 0.5}, **fields)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_run_manifest(path, config_dict={"alpha": object()}, **fields)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run_manifest.json"]


# Any value JSON can carry, as Python's json module reads it: NaN and
# Infinity, integers beyond 64 bits and beyond a double, nesting.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([2**63, -2**63 - 1, 10**400, -0.0, 1e308]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def record_files(tmp_path_factory):
    """A small collection whose files hold every loaded record kind, plus
    tubes and neighbors files: frames, proposals, tracks, a ground truth,
    tubes and neighbor lists."""
    out = tmp_path_factory.mktemp("records")
    spec = SynthSpec(num_classes=1, videos_per_class=2, frames_per_video=3,
                     keyframe_stride=2, num_distractors=1)
    collection, planted, _truths = generate_collection(spec)
    save_collection(collection, out)
    tubes = {vid: [Tube(vid, regions, 1.5)] for vid, regions in planted.tubes.items()}
    save_tubes(tubes, collection, out / "tubes.jsonl")
    first, second = sorted(collection.videos)
    graph = NeighborGraph({(first, 0): [((second, 2), 0.5), ((second, 1), -0.25)],
                           (second, 2): [((first, 0), 1.5)]})
    save_neighbor_graph(graph, out / "neighbors.jsonl")
    kinds = {json.loads(line)["type"]
             for path in out.glob("*.jsonl") for line in path.read_text().splitlines()}
    assert {"frame", "proposal", "track", "ground_truth", "tube", "neighbors"} <= kinds
    return out


class TestAnyFieldValue:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_loads_or_raises_with_locus(self, record_files, data):
        names = sorted(p.name for p in record_files.glob("*.jsonl")
                       if p.name != "manifest.jsonl")
        name = data.draw(st.sampled_from(names), label="file")
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            shutil.copytree(record_files, root, dirs_exist_ok=True)
            path = root / name
            lines = path.read_text().splitlines()
            index = data.draw(st.integers(0, len(lines) - 1), label="line")
            record = json.loads(lines[index])
            key = data.draw(st.sampled_from(sorted(record)), label="field")
            record[key] = data.draw(JSON_VALUES, label="value")
            lines[index] = json.dumps(record)
            path.write_text("\n".join(lines) + "\n")
            try:
                if name == "tubes.jsonl":
                    load_tubes(path, load_collection(root / "manifest.jsonl"))
                    return
                if name == "neighbors.jsonl":
                    load_neighbor_graph(path, load_collection(root / "manifest.jsonl"))
                    return
                collection = load_collection(root / "manifest.jsonl",
                                             keyframe_stride=Config().keyframe_stride)
            except ValidationError as exc:
                # a record's file:line, or the file alone when it lacks a record
                assert re.fullmatch(rf"{re.escape(str(root))}/[^/]+\.jsonl(:\d+)?",
                                    str(exc.locus)), exc
                return
        # a loaded frame has a finite, positive size, and every loaded id
        # fits the int64 arrays that scoring reads
        for video in collection.videos.values():
            at = VideoTrackIndex(video, list(range(video.num_frames))).at
            assert sum(labels.size for labels, _xy in at) == sum(len(tr.points)
                                                                 for tr in video.tracks)
            for frame in video.frames.values():
                frame.bounds_box()
                assert frame.ids.size == len(frame.proposals)
