"""Motion coherence scoring of boxes from cluster-labeled point tracks."""

from __future__ import annotations

import numpy as np

from .model import Video, padded_rows

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


def motion_coherence_many(boxes: np.ndarray, sizes, tracks) -> np.ndarray:
    """Motion coherence of each (n, 4) box row: the rows of consecutive
    frames, ``sizes[f]`` of them for frame f, against ``tracks[f]``, that
    frame's ``(labels, xy)``.

    Each box is cut into a 5x5 grid; a cell's label is the majority cluster
    of the points inside it (ties go to the smaller label). A cluster's
    weight is the share of its points in the frame that lie inside the box.
    Each edge scores the best weight among its occupied cells, and the four
    edges (L, R, T, B) are summed, so a box scores in [0, 4]. Box edges are
    inclusive. One pass scores all frames, each box against only its own
    frame's points and clusters, so each scores as in its frame's own pass.
    """
    found = np.array([labels.size for labels, _ in tracks], dtype=np.intp)  # points per frame
    n = len(boxes)
    if not found.any():
        return np.zeros(n)
    frame_of = np.repeat(np.arange(found.size), found)
    clusters, label_of = np.unique(np.concatenate([labels for labels, _ in tracks]),
                                   return_inverse=True)
    present = np.zeros((found.size, clusters.size), dtype=np.intp)
    present[frame_of, label_of] = 1
    number = present.cumsum(axis=1) - 1  # a frame's clusters numbered in label order
    cluster_of = number[frame_of, label_of]
    k = int(number[:, -1].max()) + 1  # the most clusters of a frame
    totals = np.maximum(np.bincount(frame_of * k + cluster_of, minlength=found.size * k), 1)
    near = np.repeat(padded_rows(found), sizes, axis=0)  # (n, P): its frame's points, padded
    xy = np.concatenate([xy for _, xy in tracks]).reshape(-1, 2)
    x_min, y_min, width, height = (column[:, None] for column in boxes.T)  # (n, 1) each
    x, y = xy[near, 0], xy[near, 1]
    inside = ((x >= x_min) & (x <= x_min + width) & (y >= y_min) & (y <= y_min + height)
              & (np.arange(near.shape[1]) < np.repeat(found, sizes)[:, None]))  # not padding
    box, point = np.nonzero(inside)
    cols = ((x[box, point] - x_min[box, 0]) / width[box, 0] * GRID_CELLS).astype(int)
    rows = ((y[box, point] - y_min[box, 0]) / height[box, 0] * GRID_CELLS).astype(int)
    cell = np.clip(rows, 0, GRID_CELLS - 1) * GRID_CELLS + np.clip(cols, 0, GRID_CELLS - 1)
    counts = np.bincount((box * GRID_CELLS ** 2 + cell) * k + cluster_of[near[box, point]],
                         minlength=n * GRID_CELLS ** 2 * k).reshape(n, GRID_CELLS ** 2, k)
    weight = counts.sum(axis=1) / np.repeat(totals.reshape(-1, k), sizes, axis=0)  # (n, k): shares
    cell_weight = np.take_along_axis(weight, counts.argmax(axis=2), axis=1)
    cell_weight = np.where(counts.any(axis=2), cell_weight, 0.0).reshape(
        n, GRID_CELLS, GRID_CELLS)
    left, right = cell_weight[:, :, 0].max(axis=1), cell_weight[:, :, -1].max(axis=1)
    top, bottom = cell_weight[:, 0, :].max(axis=1), cell_weight[:, -1, :].max(axis=1)
    return left + right + top + bottom
