"""Motion coherence scoring of boxes from cluster-labeled point tracks."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .model import Box, Video

GRID_CELLS = 5

EDGES = ("L", "R", "T", "B")


@dataclass(eq=False)
class FrameTracks:
    """Tracks alive at one frame: ids, cluster labels, coordinates, label totals."""

    track_ids: np.ndarray
    labels: np.ndarray
    xy: np.ndarray  # (n, 2)
    label_totals: dict[int, int] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "FrameTracks":
        return cls(np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty((0, 2)))

    @property
    def count(self) -> int:
        return int(self.track_ids.size)


class VideoTrackIndex:
    """Per-frame view of a video's tracks, built once and read everywhere."""

    def __init__(self, video: Video):
        per_frame: dict[int, list[tuple[int, int, float, float]]] = {}
        for track in video.tracks:
            for offset, (x, y) in enumerate(track.points):
                per_frame.setdefault(track.start_frame + offset, []).append(
                    (track.id, track.cluster_label, float(x), float(y))
                )
        self._frames: dict[int, FrameTracks] = {}
        for t, rows in per_frame.items():
            ids = np.array([r[0] for r in rows], dtype=int)
            labels = np.array([r[1] for r in rows], dtype=int)
            xy = np.array([[r[2], r[3]] for r in rows])
            self._frames[t] = FrameTracks(ids, labels, xy, dict(Counter(labels.tolist())))

    def at(self, frame_index: int) -> FrameTracks:
        return self._frames.get(frame_index, FrameTracks.empty())


def _cell_indices(box: Box, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inclusive inside mask plus (row, col) cell of each inside point."""
    x, y = xy[:, 0], xy[:, 1]
    inside = (x >= box.x_min) & (x <= box.x_max) & (y >= box.y_min) & (y <= box.y_max)
    cols = np.clip(((x - box.x_min) / box.width * GRID_CELLS).astype(int), 0, GRID_CELLS - 1)
    rows = np.clip(((y - box.y_min) / box.height * GRID_CELLS).astype(int), 0, GRID_CELLS - 1)
    return inside, rows, cols


# Corner cells are listed on both adjacent edges; sharing is harmless under
# per-edge max pooling.
_EDGE_CELLS = {
    "T": [(0, j) for j in range(GRID_CELLS)],
    "B": [(GRID_CELLS - 1, j) for j in range(GRID_CELLS)],
    "L": [(i, 0) for i in range(GRID_CELLS)],
    "R": [(i, GRID_CELLS - 1) for i in range(GRID_CELLS)],
}

_PERIMETER = sorted({cell for cells in _EDGE_CELLS.values() for cell in cells})


@dataclass(eq=False)
class EdgeBinning:
    """Majority cluster label (or None) for each perimeter cell of a 5x5 grid."""

    cell_labels: dict[tuple[int, int], int | None]

    def edge_labels(self, edge: str) -> list[int | None]:
        return [self.cell_labels[cell] for cell in _EDGE_CELLS[edge]]


def _majority_label(labels: list[int]) -> int:
    counts: dict[int, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    best = max(counts.values())
    # ties break toward the smaller cluster label for determinism
    return min(label for label, count in counts.items() if count == best)


def edge_bin_labels(box: Box, frame_tracks: FrameTracks) -> EdgeBinning:
    """Assign each perimeter cell the majority label of the points inside it."""
    collected: dict[tuple[int, int], list[int]] = {cell: [] for cell in _PERIMETER}
    if frame_tracks.count:
        inside, rows, cols = _cell_indices(box, frame_tracks.xy)
        for keep, i, j, label in zip(inside, rows, cols, frame_tracks.labels):
            if keep and (int(i), int(j)) in collected:
                collected[(int(i), int(j))].append(int(label))
    cell_labels = {
        cell: (_majority_label(labels) if labels else None)
        for cell, labels in collected.items()
    }
    return EdgeBinning(cell_labels)


def cluster_weight(label: int, box: Box, frame_tracks: FrameTracks) -> float:
    """Fraction of the cluster's in-frame tracks whose point lies inside the box."""
    total = frame_tracks.label_totals.get(int(label), 0)
    if total == 0:
        return 0.0
    xy = frame_tracks.xy
    mask = frame_tracks.labels == label
    inside = (
        (xy[mask, 0] >= box.x_min) & (xy[mask, 0] <= box.x_max)
        & (xy[mask, 1] >= box.y_min) & (xy[mask, 1] <= box.y_max)
    )
    return float(inside.sum()) / total


def motion_coherence(box: Box, frame_tracks: FrameTracks) -> float:
    """Sum over the four edges of the best cluster weight among occupied bins.

    Always in [0, 4]; an edge with no occupied bin contributes 0.
    """
    binning = edge_bin_labels(box, frame_tracks)
    weights: dict[int, float] = {}
    total = 0.0
    for edge in EDGES:
        best = 0.0
        occupied = False
        for label in binning.edge_labels(edge):
            if label is None:
                continue
            occupied = True
            if label not in weights:
                weights[label] = cluster_weight(label, box, frame_tracks)
            best = max(best, weights[label])
        if occupied:
            total += best
    return total


def motion_coherence_many(boxes: list[Box], frame_tracks: FrameTracks) -> np.ndarray:
    return np.array([motion_coherence(box, frame_tracks) for box in boxes])
