"""Line-delimited JSON artifact files with canonical float precision.

Every artifact is UTF-8 JSON Lines, one record per line, each record an
object with a ``type`` field. Floats are quantized to nine significant
digits before writing, so parsing a file and re-serializing it reproduces
the same bytes; in-memory values produced by this module are already at
the serialized precision.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, TextIO

import numpy as np

from .model import (
    Box,
    Collection,
    Frame,
    FrameRef,
    GroundTruth,
    NeighborGraph,
    Proposal,
    Track,
    Tube,
    ValidationError,
    Video,
    check_key_frames,
    unit_normalized,
)

FORMAT_VERSION = 1
FLOAT_DIGITS = 9

_SAFE_ID = re.compile(r"^[A-Za-z0-9._-]+$")

# Relative slack when checking that geometry sits inside frame bounds.
_BOUNDS_EPS = 1e-6


def canon_float(value) -> float:
    """Quantize a float to the serialized precision (nine significant digits)."""
    v = float(value)
    if not math.isfinite(v):
        raise ValidationError(f"non-finite value cannot be serialized: {v!r}")
    return float(f"{v:.{FLOAT_DIGITS}g}")


def canon_list(values) -> list[float]:
    return [canon_float(v) for v in np.asarray(values, dtype=float).ravel()]


def box_record(box: Box) -> list[float]:
    return canon_list(box.as_list())


def _box_from_record(value, locus: str) -> Box:
    if not isinstance(value, list) or len(value) != 4:
        raise ValidationError("box must be a list [x_min, y_min, width, height]", locus=locus)
    coordinates = [_converted(v, float, "box coordinate", locus) for v in value]
    try:
        return Box(*coordinates)
    except ValidationError as exc:
        raise ValidationError(str(exc), locus=locus) from None


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """Write a temp file beside ``path`` that replaces it when the block ends;
    if the block raises, the temp file goes and any earlier ``path`` stays."""
    path = Path(path)
    make_dir(path.parent)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: Path, records: Iterable[dict]) -> None:
    with _replacing(path) as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, allow_nan=False))
            fh.write("\n")


def write_text(path: Path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text)


def _open(path: Path) -> BinaryIO:
    """``path`` opened for reading bytes, or ValidationError at the path."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise ValidationError("file not found", locus=str(path)) from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL character in the name
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"cannot open file ({reason})", locus=str(path)) from None


def make_dir(path: Path) -> None:
    """Create directory ``path`` and its parents, or raise ValidationError at the path."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create directory ({exc.strerror or exc})",
                              locus=str(path)) from None


def _decoded(data: bytes, locus: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not valid UTF-8 (byte {exc.start})", locus=locus) from None


def read_json(path: Path, what: str):
    """The JSON value in the UTF-8 file ``path``; ``what`` names the file in errors."""
    with _open(path) as fh:
        text = _decoded(fh.read(), str(path))
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer beyond Python's digit limit
        raise ValidationError(f"{what} file {path} is not valid JSON: {exc}") from None


def read_jsonl(path: Path, *kinds: str) -> Iterator[tuple[str, dict]]:
    """Yield (locus, record) pairs; locus is file:line for diagnostics. Every
    record is a JSON object whose ``type`` is a string, one of ``kinds`` if given."""
    path = Path(path)
    with _open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            locus = f"{path}:{lineno}"
            line = _decoded(raw, locus).strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # also an integer beyond Python's digit limit
                message = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                raise ValidationError(f"invalid JSON ({message})", locus=locus) from None
            if not isinstance(record, dict) or not isinstance(record.get("type"), str):
                raise ValidationError("record must be an object with a string 'type' field",
                                      locus=locus)
            if kinds and record["type"] not in kinds:
                raise ValidationError(f"unexpected record type {record['type']!r}", locus=locus)
            yield locus, record


def _require(record: dict, key: str, locus: str):
    if key not in record:
        raise ValidationError(f"missing field {key!r}", locus=locus)
    return record[key]


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _int64(value) -> int:
    """``int(value)`` when it fits the int64 arrays that loaded ids go into."""
    if -2**63 <= int(value) < 2**63:
        return int(value)
    raise OverflowError(value)


_EXPECTED = {_int64: "an integer within 64 bits", float: "a number", _floats: "a list of numbers"}


def _converted(value, kind, what: str, locus: str):
    """``kind(value)`` for ``kind`` in _int64, float, _floats or str (which
    cannot fail); a value of the wrong type, shape or range raises
    ValidationError at ``locus``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} must be {_EXPECTED[kind]}, got {value!r:.40}",
                              locus=locus) from None


def _field(record: dict, key: str, locus: str, kind=_int64):
    return _converted(_require(record, key, locus), kind, key, locus)


def _list_field(record: dict, key: str, locus: str) -> list:
    value = _require(record, key, locus)
    if not isinstance(value, list):
        raise ValidationError(f"{key} must be a list", locus=locus)
    return value


# ---------------------------------------------------------------------------
# Collections


def save_collection(collection: Collection, out_dir: Path) -> Path:
    """Write manifest plus per-video sidecar files; returns the manifest path."""
    out_dir = Path(out_dir)

    manifest_records = [
        {
            "type": "collection",
            "format_version": FORMAT_VERSION,
            "descriptor_dim": collection.descriptor_dim,
            "signature_dim": collection.signature_dim,
        }
    ]
    for vid in sorted(collection.videos):
        if not _SAFE_ID.match(vid):
            raise ValidationError(f"video id {vid!r} is not filesystem-safe")
        video = collection.videos[vid]
        truth = collection.ground_truths.get(vid)
        record = {
            "type": "video",
            "video_id": vid,
            "num_frames": video.num_frames,
            "frames_file": f"{vid}.frames.jsonl",
            "tracks_file": f"{vid}.tracks.jsonl",
            "truth_file": f"{vid}.truth.jsonl" if truth is not None else None,
        }
        manifest_records.append(record)

        frame_records = []
        for t in sorted(video.frames):
            frame = video.frames[t]
            frame_records.append(
                {
                    "type": "frame",
                    "frame_index": t,
                    "width": canon_float(frame.width),
                    "height": canon_float(frame.height),
                    "signature": canon_list(frame.signature),
                }
            )
            for proposal in sorted(frame.proposals, key=lambda p: p.id):
                frame_records.append(
                    {
                        "type": "proposal",
                        "frame_index": t,
                        "id": proposal.id,
                        "box": box_record(proposal.box),
                        "descriptor": canon_list(proposal.descriptor),
                    }
                )
        write_jsonl(out_dir / record["frames_file"], frame_records)

        track_records = [
            {
                "type": "track",
                "id": track.id,
                "cluster": track.cluster_label,
                "start_frame": track.start_frame,
                "points": [[canon_float(x), canon_float(y)] for x, y in track.points],
            }
            for track in sorted(video.tracks, key=lambda tr: tr.id)
        ]
        write_jsonl(out_dir / record["tracks_file"], track_records)

        if truth is not None:
            write_jsonl(
                out_dir / record["truth_file"],
                [
                    {
                        "type": "ground_truth",
                        "frame_index": truth.frame_index,
                        "box": box_record(truth.box),
                        "class_label": truth.class_label,
                    }
                ],
            )

    manifest_path = out_dir / "manifest.jsonl"
    write_jsonl(manifest_path, manifest_records)
    return manifest_path


def _load_vector(record: dict, key: str, dim: int, locus: str) -> np.ndarray:
    arr = _field(record, key, locus, _floats)
    if arr.ndim != 1 or arr.size != dim:
        raise ValidationError(
            f"{key} has dimension {arr.size}, expected {dim}", locus=locus
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{key} has non-finite entries", locus=locus)
    return arr


def _load_frames(path: Path, video_id: str, num_frames: int, descriptor_dim: int,
                 signature_dim: int) -> dict[int, Frame]:
    frames: dict[int, Frame] = {}
    pending: list[tuple[str, dict]] = []
    for locus, record in read_jsonl(path, "frame", "proposal"):
        if record["type"] == "frame":
            t = _field(record, "frame_index", locus)
            if t < 0 or t >= num_frames:
                raise ValidationError(f"frame index {t} outside video length {num_frames}", locus=locus)
            if t in frames:
                raise ValidationError(f"duplicate frame index {t}", locus=locus)
            width = _field(record, "width", locus, float)
            height = _field(record, "height", locus, float)
            if not (width > 0 < height and 0 < width * height < math.inf):
                raise ValidationError("frame size must be positive and finite, and so must "
                                      "its area", locus=locus)
            signature = _load_vector(record, "signature", signature_dim, locus)
            frames[t] = Frame(video_id, t, width, height, [], signature)
        else:
            pending.append((locus, record))

    if len(frames) != num_frames:  # indices are in range and unique
        missing = list(itertools.islice((t for t in range(num_frames) if t not in frames), 3))
        raise ValidationError(
            f"video {video_id} is missing frame records (first missing: {missing})",
            locus=str(path),
        )

    seen: set[tuple[int, int]] = set()
    for locus, record in pending:
        t = _field(record, "frame_index", locus)
        if t not in frames:
            raise ValidationError(f"proposal references unknown frame {t}", locus=locus)
        frame = frames[t]
        pid = _field(record, "id", locus)
        if (t, pid) in seen:
            raise ValidationError(
                f"duplicate proposal id {pid} in frame {t} of video {video_id}", locus=locus
            )
        seen.add((t, pid))
        try:
            box = _box_from_record(_require(record, "box", locus), locus)
        except ValidationError as exc:
            raise ValidationError(
                f"proposal {pid} in frame {t} of video {video_id}: invalid box "
                f"({exc.args[0] if exc.args else exc})",
                locus=locus,
            ) from None
        eps = _BOUNDS_EPS * max(frame.width, frame.height)
        if (box.x_min < -eps or box.y_min < -eps
                or box.x_max > frame.width + eps or box.y_max > frame.height + eps):
            raise ValidationError(
                f"proposal {pid} box exceeds frame bounds in frame {t} of video {video_id}",
                locus=locus,
            )
        descriptor = _load_vector(record, "descriptor", descriptor_dim, locus)
        descriptor = unit_normalized(descriptor, locus=locus)
        frame.proposals.append(Proposal(pid, box, descriptor))

    for frame in frames.values():
        frame.proposals.sort(key=lambda p: p.id)
    return frames


def _load_tracks(path: Path, video_id: str, frames: dict[int, Frame],
                 num_frames: int) -> list[Track]:
    tracks: list[Track] = []
    seen: set[int] = set()
    size = np.array([(frames[t].width, frames[t].height) for t in range(num_frames)])
    eps = _BOUNDS_EPS * size.max(axis=1, keepdims=True)
    for locus, record in read_jsonl(path, "track"):
        tid = _field(record, "id", locus)
        if tid in seen:
            raise ValidationError(f"duplicate track id {tid} in video {video_id}", locus=locus)
        seen.add(tid)
        cluster = _field(record, "cluster", locus)
        if cluster < 0:
            raise ValidationError("cluster label must be >= 0", locus=locus)
        start = _field(record, "start_frame", locus)
        points = _field(record, "points", locus, _floats)
        if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] < 2:
            raise ValidationError("track needs at least two (x, y) points", locus=locus)
        if not np.all(np.isfinite(points)):
            raise ValidationError("track points must be finite", locus=locus)
        if start < 0 or start + points.shape[0] > num_frames:
            raise ValidationError("track lifetime exceeds video length", locus=locus)
        life = slice(start, start + points.shape[0])
        outside = ((points < -eps[life]) | (points > size[life] + eps[life])).any(axis=1)
        if outside.any():
            raise ValidationError(
                f"track {tid} point at frame {start + outside.argmax()} outside frame bounds",
                locus=locus,
            )
        tracks.append(Track(tid, cluster, start, points))
    tracks.sort(key=lambda tr: tr.id)
    return tracks


def _load_truth(path: Path, video_id: str, num_frames: int) -> GroundTruth:
    truth = None
    for locus, record in read_jsonl(path, "ground_truth"):
        if truth is not None:
            raise ValidationError(f"video {video_id} has more than one annotated frame", locus=locus)
        t = _field(record, "frame_index", locus)
        if t < 0 or t >= num_frames:
            raise ValidationError(f"annotated frame {t} outside video length", locus=locus)
        box = _box_from_record(_require(record, "box", locus), locus)
        label = str(_require(record, "class_label", locus))
        truth = GroundTruth(video_id, t, box, label)
    if truth is None:
        raise ValidationError("ground-truth file has no record", locus=str(path))
    return truth


def load_collection(manifest_path: Path, keyframe_stride: int | None = None) -> Collection:
    """Load and fully validate a collection; descriptors come back unit-norm.

    When ``keyframe_stride`` is given, additionally checks what a run needs of
    the key frames (``check_key_frames``).
    """
    manifest_path = Path(manifest_path)
    records = list(read_jsonl(manifest_path, "collection", "video"))
    if not records or records[0][1]["type"] != "collection":
        raise ValidationError(
            "manifest must start with a 'collection' header record", locus=str(manifest_path)
        )
    locus, header = records[0]
    descriptor_dim = _field(header, "descriptor_dim", locus)
    signature_dim = _field(header, "signature_dim", locus)
    if descriptor_dim < 1 or signature_dim < 1:
        raise ValidationError("descriptor/signature dimensions must be >= 1", locus=locus)

    base = manifest_path.parent
    collection = Collection(descriptor_dim, signature_dim)
    for locus, record in records[1:]:
        if record["type"] != "video":
            raise ValidationError("a 'collection' header record may only come first", locus=locus)
        vid = str(_require(record, "video_id", locus))
        if vid in collection.videos:
            raise ValidationError(f"duplicate video id {vid}", locus=locus)
        num_frames = _field(record, "num_frames", locus)
        if num_frames < 1:
            raise ValidationError("video must have at least one frame", locus=locus)
        frames = _load_frames(
            base / _field(record, "frames_file", locus, str), vid, num_frames,
            descriptor_dim, signature_dim,
        )
        tracks = _load_tracks(base / _field(record, "tracks_file", locus, str), vid, frames,
                              num_frames)
        video = Video(vid, num_frames, frames, tracks)
        collection.videos[vid] = video
        truth_file = record.get("truth_file")
        if truth_file:
            collection.ground_truths[vid] = _load_truth(base / str(truth_file), vid, num_frames)

    if keyframe_stride is not None:
        try:
            check_key_frames(collection, keyframe_stride)
        except ValidationError as exc:
            raise ValidationError(str(exc), locus=str(manifest_path)) from None
    return collection


# ---------------------------------------------------------------------------
# Results: tubes + neighbor graph


def save_tubes(tubes_by_video: dict[str, list[Tube]], collection: Collection, path: Path) -> None:
    records = []
    for vid in sorted(tubes_by_video):
        video = collection.videos[vid]
        for rank, tube in enumerate(tubes_by_video[vid]):
            regions = []
            for kf in tube.key_frames():
                box = video.frames[kf].proposal_by_id(tube.regions[kf]).box
                regions.append([kf, tube.regions[kf], box_record(box)])
            records.append(
                {
                    "type": "tube",
                    "video_id": vid,
                    "rank": rank,
                    "score": canon_float(tube.score),
                    "regions": regions,
                }
            )
    write_jsonl(path, records)


def _check_regions(regions: dict[int, int], vid: str, collection: Collection,
                   locus: str) -> None:
    """Every region names a frame and a proposal of ``collection``'s video ``vid``."""
    video = collection.videos.get(vid)
    if video is None:
        raise ValidationError(f"tube names unknown video {vid}", locus=locus)
    for kf, pid in regions.items():
        if kf not in video.frames:
            raise ValidationError(f"tube references missing frame {kf} of {vid}", locus=locus)
        try:
            video.frames[kf].rows([pid])
        except ValidationError as exc:
            raise ValidationError(str(exc), locus=locus) from None


def load_tubes(path: Path, collection: Collection) -> dict[str, list[Tube]]:
    """Tubes by video, in rank order; every region must name a frame and a
    proposal of ``collection``."""
    out: dict[str, list[Tube]] = {}
    for locus, record in read_jsonl(path, "tube"):
        vid = str(_require(record, "video_id", locus))
        rank = _field(record, "rank", locus)
        regions: dict[int, int] = {}
        for item in _list_field(record, "regions", locus):
            if not isinstance(item, list) or len(item) != 3:
                raise ValidationError("region entry must be [frame, proposal_id, box]", locus=locus)
            kf = _converted(item[0], _int64, "region frame", locus)
            pid = _converted(item[1], _int64, "region proposal id", locus)
            if kf in regions:
                raise ValidationError(f"duplicate key frame {kf} in tube", locus=locus)
            regions[kf] = pid
        _check_regions(regions, vid, collection, locus)
        tubes = out.setdefault(vid, [])
        if rank != len(tubes):
            raise ValidationError(f"tube ranks for video {vid} are not contiguous", locus=locus)
        tubes.append(Tube(vid, regions, _field(record, "score", locus, float)))
    return out


def save_neighbor_graph(graph: NeighborGraph, path: Path) -> None:
    records = []
    for (vid, t) in sorted(graph.neighbors):
        entries = graph.neighbors[(vid, t)]
        records.append(
            {
                "type": "neighbors",
                "video_id": vid,
                "frame_index": t,
                "neighbors": [[nvid, nt, canon_float(sim)] for (nvid, nt), sim in entries],
            }
        )
    write_jsonl(path, records)


def load_neighbor_graph(path: Path) -> NeighborGraph:
    graph = NeighborGraph()
    for locus, record in read_jsonl(path, "neighbors"):
        ref: FrameRef = (str(_require(record, "video_id", locus)),
                         _field(record, "frame_index", locus))
        if ref in graph.neighbors:
            raise ValidationError(f"duplicate neighbor record for {ref}", locus=locus)
        entries = []
        for item in _list_field(record, "neighbors", locus):
            if not isinstance(item, list) or len(item) != 3:
                raise ValidationError("neighbor entry must be [video_id, frame, similarity]", locus=locus)
            if str(item[0]) == ref[0]:
                raise ValidationError(f"neighbor list for video {ref[0]} contains a same-video frame", locus=locus)
            entries.append(((str(item[0]), _converted(item[1], _int64, "neighbor frame", locus)),
                            _converted(item[2], float, "neighbor similarity", locus)))
        graph.neighbors[ref] = entries
    return graph


def save_results(tubes_by_video: dict[str, list[Tube]], graph: NeighborGraph,
                 collection: Collection, out_dir: Path) -> None:
    """Write the canonical result pair (tubes.jsonl, neighbors.jsonl)."""
    out_dir = Path(out_dir)
    save_tubes(tubes_by_video, collection, out_dir / "tubes.jsonl")
    save_neighbor_graph(graph, out_dir / "neighbors.jsonl")


def snapshot_dir(out_dir: Path, iteration: int) -> Path:
    return Path(out_dir) / "snapshots" / f"iter_{iteration:03d}"


def snapshot_iteration(path: Path) -> int:
    """The iteration whose ``snapshot_dir`` is ``path``."""
    match = re.fullmatch(r"iter_([0-9]+)", Path(path).name)
    if match is None:
        raise ValidationError("snapshot entry is not named iter_<n>", locus=str(path))
    return int(match.group(1))


# ---------------------------------------------------------------------------
# Run manifest


def hash_collection_inputs(manifest_path: Path) -> str:
    """SHA-256 over the manifest and every referenced sidecar file."""
    manifest_path = Path(manifest_path)
    digest = hashlib.sha256()
    digest.update(manifest_path.read_bytes())
    base = manifest_path.parent
    for _locus, record in read_jsonl(manifest_path, "collection", "video"):  # header: no file
        for key in ("frames_file", "tracks_file", "truth_file"):
            name = record.get(key)
            if name:
                digest.update((base / name).read_bytes())
    return "sha256:" + digest.hexdigest()


def save_run_manifest(path: Path, *, version: str, config_dict: dict, input_hash: str,
                      started_utc: str, finished_utc: str) -> None:
    payload = {
        "tool": "tubeloc",
        "version": version,
        "config": config_dict,
        "input_hash": input_hash,
        "started_utc": started_utc,
        "finished_utc": finished_utc,
    }
    write_text(path, json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
