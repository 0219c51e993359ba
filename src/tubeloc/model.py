"""Core data model: boxes, proposals, frames, videos, tracks, tubes, configuration.

All structures are plain dataclasses and are treated as immutable once a
collection has been loaded or generated: a frame's ``proposals`` are complete
before anything reads its columns, and stay as they are after.

A ``Frame`` keeps its proposals as records (``proposals``) for loading,
generation and saving, and gives the scorers read-only columns of them, each
built on first read and kept: ``ids``, ``boxes`` as (n, 4) rows
``[x_min, y_min, width, height]``, ``descriptors``, ``locations``
(offset-space position of each box) and ``rows``, the id -> row lookup.
Scorers gather rows from these columns instead of restacking proposals.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np


class ValidationError(ValueError):
    """An input record or structure violates a model invariant."""

    def __init__(self, message: str, locus: str | None = None):
        self.locus = locus
        super().__init__(f"{locus}: {message}" if locus else message)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given as corner plus size, in pixel units.

    Coordinates are kept as reals so that linear interpolation between key
    frames is exact.
    """

    x_min: float
    y_min: float
    width: float
    height: float

    def __post_init__(self):
        vals = (self.x_min, self.y_min, self.width, self.height)
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError(f"box coordinates must be finite, got {vals}")
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(
                f"box sides must be positive, got {self.width}x{self.height}"
            )

    @property
    def x_max(self) -> float:
        return self.x_min + self.width

    @property
    def y_max(self) -> float:
        return self.y_min + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    def intersection_area(self, other: "Box") -> float:
        w = min(self.x_max, other.x_max) - max(self.x_min, other.x_min)
        h = min(self.y_max, other.y_max) - max(self.y_min, other.y_min)
        if w <= 0 or h <= 0:
            return 0.0
        return w * h

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.width, self.height]


@dataclass(eq=False)
class Proposal:
    """A candidate region: a box plus an opaque unit-norm appearance descriptor."""

    id: int
    box: Box
    descriptor: np.ndarray


def _read_only(column: np.ndarray) -> np.ndarray:
    column.setflags(write=False)  # shared by every scorer
    return column


@dataclass(eq=False)
class Frame:
    """One video frame carrying its proposal set and a frame-level signature."""

    video_id: str
    frame_index: int
    width: float
    height: float
    proposals: list[Proposal] = field(default_factory=list)
    signature: np.ndarray | None = None

    def bounds_box(self) -> Box:
        return Box(0.0, 0.0, self.width, self.height)

    @cached_property
    def ids(self) -> np.ndarray:
        return _read_only(np.array([p.id for p in self.proposals], dtype=int))

    @cached_property
    def boxes(self) -> np.ndarray:
        return _read_only(np.array([p.box.as_list() for p in self.proposals],
                                   dtype=float).reshape(-1, 4))

    @cached_property
    def descriptors(self) -> np.ndarray:
        if not self.proposals:
            return _read_only(np.empty((0, 0)))
        return _read_only(np.array([p.descriptor for p in self.proposals], dtype=float))

    @cached_property
    def locations(self) -> np.ndarray:
        """Per row: box center over frame size, and half the log area ratio."""
        x, y, w, h = self.boxes.T
        return _read_only(np.column_stack([
            (x + 0.5 * w) / self.width,
            (y + 0.5 * h) / self.height,
            0.5 * np.log(w * h / (self.width * self.height)),
        ]))

    @cached_property
    def _row_of(self) -> dict[int, int]:
        return {p.id: i for i, p in enumerate(self.proposals)}

    def rows(self, proposal_ids) -> np.ndarray:
        """The row of each proposal id in the columns; an id the frame lacks raises."""
        try:
            return np.array([self._row_of[pid] for pid in proposal_ids], dtype=np.intp)
        except KeyError as exc:
            raise ValidationError(
                f"frame {self.video_id}:{self.frame_index} has no proposal {exc.args[0]}"
            ) from None

    def proposal_by_id(self, proposal_id: int) -> Proposal:
        return self.proposals[self.rows([proposal_id])[0]]


@dataclass(eq=False)
class Track:
    """Long-term point track with a motion-cluster label.

    ``points`` holds one (x, y) row per frame over the contiguous lifetime
    starting at ``start_frame``.
    """

    id: int
    cluster_label: int
    start_frame: int
    points: np.ndarray


@dataclass(eq=False)
class Video:
    video_id: str
    num_frames: int
    frames: dict[int, Frame] = field(default_factory=dict)
    tracks: list[Track] = field(default_factory=list)


@dataclass
class Tube:
    """One region choice per key frame of one video, with its chain objective."""

    video_id: str
    regions: dict[int, int]  # key frame index -> chosen proposal id
    score: float = 0.0

    def key_frames(self) -> list[int]:
        return sorted(self.regions)


@dataclass(frozen=True)
class GroundTruth:
    """Single annotated frame of a video; class labels are evaluation-only."""

    video_id: str
    frame_index: int
    box: Box
    class_label: str


@dataclass(eq=False)
class Collection:
    """An immutable set of videos with pre-extracted features."""

    descriptor_dim: int
    signature_dim: int
    videos: dict[str, Video] = field(default_factory=dict)
    ground_truths: dict[str, GroundTruth] = field(default_factory=dict)


FrameRef = tuple[str, int]  # (video_id, frame_index)


@dataclass
class NeighborGraph:
    """Per key frame, ranked neighbor frames from other videos with similarities."""

    neighbors: dict[FrameRef, list[tuple[FrameRef, float]]] = field(default_factory=dict)


class Params:
    """Base of the parameter dataclasses: the JSON codec, whose keys are the
    field names with a trailing underscore dropped (``lambda``), and the
    field type check."""

    noun = "config"  # names the parameters in errors; a class attribute, not a field

    def to_dict(self) -> dict:
        return {name.rstrip("_"): getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, data: dict):
        """The inverse of ``to_dict``: a key that it does not write is rejected."""
        names = {name.rstrip("_"): name for name in cls.__dataclass_fields__}
        kwargs = {}
        for key, value in data.items():
            if key not in names:
                raise ValidationError(f"unknown {cls.noun} field {key!r}")
            kwargs[names[key]] = value
        return cls(**kwargs)

    def check_field_types(self) -> None:
        """Fields with an integer default must hold integers, the others finite
        reals. Messages drop a trailing underscore (``lambda_``)."""
        for name, spec in self.__dataclass_fields__.items():
            key = name.rstrip("_")
            value = getattr(self, name)
            if isinstance(spec.default, int):
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ValidationError(f"{key} must be an integer, got {value!r}")
            elif isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"{key} must be a number, got {value!r}")
            else:
                try:
                    finite = math.isfinite(value)
                except OverflowError:
                    raise ValidationError(
                        f"{key} must be finite, got an integer too large for a float") from None
                if not finite:
                    raise ValidationError(f"{key} must be finite, got {value!r}")


@dataclass
class Config(Params):
    """Run parameters. Defaults follow the reference operating point.

    ``theta`` must stay strictly below -1 so that a transition sharing no
    point track is always worse than any shared-track configuration.
    """

    alpha: float = 0.5
    lambda_: float = 2.0
    theta: float = -2.0
    k_neighbors: int = 10
    p_tubes: int = 5
    iterations: int = 5
    keyframe_stride: int = 20
    top_candidates: int = 100
    retrieval_proposals: int = 20
    affinity_gamma: float = 1.0

    def validate(self):
        self.check_field_types()
        for name in ("alpha", "lambda_", "affinity_gamma"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name.rstrip('_')} must be >= 0")
        if self.theta >= -1:
            raise ValidationError("theta must be < -1")
        for name in ("k_neighbors", "p_tubes", "iterations", "keyframe_stride",
                     "top_candidates", "retrieval_proposals"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")


def key_frames(video: Video, stride: int) -> list[int]:
    """Uniform key-frame indices: 0, stride, 2*stride, ... below the video length."""
    if stride < 1:
        raise ValidationError("stride must be >= 1")
    return list(range(0, video.num_frames, stride))


def check_key_frames(collection: Collection, stride: int) -> None:
    """What a run needs of a collection: at least one video, and at every key
    frame a frame with proposals and a signature."""
    if not collection.videos:
        raise ValidationError("collection has no videos")
    for vid, video in collection.videos.items():
        for kf in key_frames(video, stride):
            frame = video.frames.get(kf)
            if frame is None or not frame.proposals:
                raise ValidationError(f"key frame {kf} of video {vid} has no proposals")
            if frame.signature is None:
                raise ValidationError(f"key frame {kf} of video {vid} has no signature")


def _lerp_box(a: Box, b: Box, w: float) -> Box:
    return Box(
        a.x_min + w * (b.x_min - a.x_min),
        a.y_min + w * (b.y_min - a.y_min),
        a.width + w * (b.width - a.width),
        a.height + w * (b.height - a.height),
    )


def interpolate_tube(tube: Tube, video: Video) -> dict[int, Box]:
    """Densify a key-frame tube into a box for every frame of the video.

    Non-key frames between two key frames interpolate each box component
    linearly; frames after the last key frame copy the last key-frame box,
    and frames before the first copy the first.
    """
    kfs = tube.key_frames()
    if not kfs:
        raise ValidationError(f"tube for video {tube.video_id} selects no regions")
    boxes = {}
    for kf in kfs:
        if kf not in video.frames:
            raise ValidationError(f"tube references missing frame {kf} of {tube.video_id}")
        boxes[kf] = video.frames[kf].proposal_by_id(tube.regions[kf]).box

    out: dict[int, Box] = {}
    for t in range(0, kfs[0]):
        out[t] = boxes[kfs[0]]
    for a, b in zip(kfs, kfs[1:]):
        span = b - a
        for t in range(a, b):
            out[t] = _lerp_box(boxes[a], boxes[b], (t - a) / span)
    for t in range(kfs[-1], video.num_frames):
        out[t] = boxes[kfs[-1]]
    return out


def unit_normalized(vector: Iterable[float], locus: str | None = None) -> np.ndarray:
    """Return the L2-normalized copy of a finite, nonzero vector."""
    arr = np.asarray(vector, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("vector has non-finite entries", locus=locus)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValidationError("vector has zero norm", locus=locus)
    return arr / norm
