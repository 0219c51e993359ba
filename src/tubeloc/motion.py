"""Motion coherence scoring of boxes from cluster-labeled point tracks."""

from __future__ import annotations

import numpy as np

from .model import Video

GRID_CELLS = 5


class VideoTrackIndex:
    """A video's tracks read at the given frames, in one pass.

    ``at`` holds each frame's ``(labels, xy)`` of the tracks alive there, in
    track order, and ``shared`` each consecutive pair's points of the tracks
    alive at both. Both come from one (frames, tracks) mask over the tracks'
    column table: every track's (x, y) rows concatenated in track order.
    """

    def __init__(self, video: Video, frames: list[int]):
        tracks = video.tracks
        lengths = np.array([len(tr.points) for tr in tracks], dtype=np.intp)
        start = np.array([tr.start_frame for tr in tracks], dtype=np.intp)
        offset = np.cumsum(lengths) - lengths  # each track's first point row
        label = np.array([tr.cluster_label for tr in tracks], dtype=int)
        points = np.concatenate([np.empty((0, 2))] + [tr.points for tr in tracks])
        f = np.asarray(frames, dtype=np.intp)[:, None]
        alive = (start <= f) & (f < start + lengths)
        rows = offset + (f - start)  # each track's point row at each frame
        self.at = [(label[a], points[r[a]]) for a, r in zip(alive, rows)]
        both = alive[:-1] & alive[1:]  # a track is alive at every frame between
        self.shared = [(points[ra[b]], points[rb[b]]) for b, ra, rb in zip(both, rows, rows[1:])]


def motion_coherence_many(boxes: np.ndarray, tracks: tuple[np.ndarray, np.ndarray]
                          ) -> np.ndarray:
    """Motion coherence of each (n, 4) box row against a frame's ``(labels, xy)``.

    Each box is cut into a 5x5 grid; a cell's label is the majority cluster
    of the points inside it (ties go to the smaller label). A cluster's
    weight is the share of its points in the frame that lie inside the box.
    Each edge scores the best weight among its occupied cells, and the four
    edges (L, R, T, B) are summed, so a box scores in [0, 4]. Box edges are
    inclusive.
    """
    labels, xy = tracks
    n = len(boxes)
    if labels.size == 0:
        return np.zeros(n)
    clusters, cluster_of, totals = np.unique(labels, return_inverse=True, return_counts=True)
    x_min, y_min, width, height = (column[:, None] for column in boxes.T)  # (n, 1) each
    x, y = xy[:, 0], xy[:, 1]
    inside = (x >= x_min) & (x <= x_min + width) & (y >= y_min) & (y <= y_min + height)
    box, point = np.nonzero(inside)
    cols = ((x[point] - x_min[box, 0]) / width[box, 0] * GRID_CELLS).astype(int)
    rows = ((y[point] - y_min[box, 0]) / height[box, 0] * GRID_CELLS).astype(int)
    cell = np.clip(rows, 0, GRID_CELLS - 1) * GRID_CELLS + np.clip(cols, 0, GRID_CELLS - 1)
    k = clusters.size
    counts = np.bincount((box * GRID_CELLS ** 2 + cell) * k + cluster_of[point],
                         minlength=n * GRID_CELLS ** 2 * k).reshape(n, GRID_CELLS ** 2, k)
    weight = counts.sum(axis=1) / totals  # (n, k): share of each cluster inside
    cell_weight = np.take_along_axis(weight, counts.argmax(axis=2), axis=1)
    cell_weight = np.where(counts.any(axis=2), cell_weight, 0.0).reshape(
        n, GRID_CELLS, GRID_CELLS)
    left, right = cell_weight[:, :, 0].max(axis=1), cell_weight[:, :, -1].max(axis=1)
    top, bottom = cell_weight[:, 0, :].max(axis=1), cell_weight[:, -1, :].max(axis=1)
    return left + right + top + bottom
