"""Temporal consistency between candidate regions of consecutive key frames."""

from __future__ import annotations

import numpy as np

from .matching import rescale_unit, squared_distances

# Chunk size for the track axis when broadcasting pairwise distances.
_TRACK_CHUNK = 256


def appearance_consistency_matrix(descs_a: np.ndarray, descs_b: np.ndarray) -> np.ndarray:
    """Negative descriptor distance, min-max rescaled to [0, 1] over all pairs.

    A constant matrix (all candidate pairs equally similar) collapses to 0.
    """
    return rescale_unit(-np.sqrt(squared_distances(descs_a, descs_b)))


def _inside_and_unit(points: np.ndarray, boxes: np.ndarray):
    """Inclusive inside masks and unit-square coordinates, tracks x box rows."""
    x = points[:, 0][:, None]
    y = points[:, 1][:, None]
    x_min, y_min, width, height = (column[None, :] for column in boxes.T)
    inside = (x >= x_min) & (x <= x_min + width) & (y >= y_min) & (y <= y_min + height)
    return inside, (x - x_min) / width, (y - y_min) / height


def motion_consistency_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray, points_a: np.ndarray,
                              points_b: np.ndarray, theta: float) -> np.ndarray:
    """Pairwise motion consistency for all candidate box pairs of one transition.

    ``boxes_a`` and ``boxes_b`` hold (n, 4) rows [x_min, y_min, width, height].
    """
    n, m = len(boxes_a), len(boxes_b)
    points_a = np.asarray(points_a, dtype=float).reshape(-1, 2)
    points_b = np.asarray(points_b, dtype=float).reshape(-1, 2)
    if points_a.shape != points_b.shape:
        raise ValueError("point arrays must pair up row by row")
    k = points_a.shape[0]
    if k == 0:
        return np.full((n, m), float(theta))

    in_a, ua, va = _inside_and_unit(points_a, boxes_a)
    in_b, ub, vb = _inside_and_unit(points_b, boxes_b)
    counts = in_a.astype(float).T @ in_b.astype(float)
    drift = np.zeros((n, m))
    for lo in range(0, k, _TRACK_CHUNK):
        hi = min(lo + _TRACK_CHUNK, k)
        mask = in_a[lo:hi, :, None] & in_b[lo:hi, None, :]
        du = np.abs(ua[lo:hi, :, None] - ub[lo:hi, None, :])
        dv = np.abs(va[lo:hi, :, None] - vb[lo:hi, None, :])
        drift += ((du + dv) * mask).sum(axis=0)
    safe = np.where(counts > 0, counts, 1.0)
    return np.where(counts > 0, -drift / (2.0 * safe), float(theta))


def consistency_matrix(descs_a: np.ndarray, descs_b: np.ndarray, boxes_a: np.ndarray,
                       boxes_b: np.ndarray, points_a: np.ndarray, points_b: np.ndarray,
                       theta: float) -> tuple[np.ndarray, np.ndarray]:
    """One key-frame transition's negative descriptor distances, which
    ``appearance_consistency_matrix`` rescales, and motion consistencies: each
    entry is its pair's alone, so ``kept_consistency`` gathers any kept set's."""
    return (-np.sqrt(squared_distances(descs_a, descs_b)),
            motion_consistency_matrix(boxes_a, boxes_b, points_a, points_b, theta))


def kept_consistency(parts: tuple[np.ndarray, np.ndarray], rows_a: np.ndarray,
                     rows_b: np.ndarray) -> np.ndarray:
    """Appearance + motion consistency of candidates ``rows_a`` x ``rows_b`` from a
    transition's ``consistency_matrix`` parts; appearance is rescaled over these pairs."""
    appearance, motion = (part[np.ix_(rows_a, rows_b)] for part in parts)
    return rescale_unit(appearance) + motion
