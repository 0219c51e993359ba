"""Per-video trellis construction and dynamic-programming tube extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import Tube, ValidationError


@dataclass(eq=False)
class Trellis:
    """Candidate regions per key frame plus pairwise transition scores.

    ``pairwise[t]`` has shape (len(candidate_ids[t]), len(candidate_ids[t+1])).
    The invariants are checked once, on construction.
    """

    video_id: str
    frame_indices: list[int]
    candidate_ids: list[np.ndarray]
    unary: list[np.ndarray]
    pairwise: list[np.ndarray]

    def __post_init__(self):
        T = len(self.frame_indices)
        where = f"trellis of video {self.video_id}"
        if T == 0:
            raise ValidationError(f"{where} has no frames")
        if any(b <= a for a, b in zip(self.frame_indices, self.frame_indices[1:])):
            raise ValidationError(f"{where}: frame indices must be strictly increasing")
        if len(self.candidate_ids) != T or len(self.unary) != T:
            raise ValidationError(f"{where}: per-frame arrays do not match the frame count")
        if len(self.pairwise) != T - 1:
            raise ValidationError(f"{where}: expected one pairwise matrix per transition")
        for kf, ids, unary in zip(self.frame_indices, self.candidate_ids, self.unary):
            if ids.size == 0:
                raise ValidationError(f"{where}: frame {kf} retains no candidates")
            if ids.size != np.unique(ids).size:
                raise ValidationError(f"{where}: duplicate candidate ids at frame {kf}")
            if unary.shape != (ids.size,):
                raise ValidationError(f"{where}: unary shape mismatch at frame {kf}")
        for t, mat in enumerate(self.pairwise):
            expected = (self.candidate_ids[t].size, self.candidate_ids[t + 1].size)
            if mat.shape != expected:
                raise ValidationError(f"{where}: pairwise shape mismatch at transition {t}")

    @property
    def num_frames(self) -> int:
        return len(self.frame_indices)

    def candidate_count(self, t: int) -> int:
        return int(self.candidate_ids[t].size)


@dataclass
class TubeSolution:
    tube: Tube

    @property
    def objective(self) -> float:
        """The tube's chain objective, which is its score."""
        return self.tube.score


def build_trellis(video_id: str, frame_indices: Sequence[int],
                  ids_per_frame: Sequence[Sequence[int]],
                  scores_per_frame: Sequence[Sequence[float]],
                  top_candidates: int,
                  pairwise_fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray]) -> Trellis:
    """Rank candidates per frame (score desc, id asc), truncate, wire transitions.

    ``pairwise_fn(t, positions_t, positions_t1)`` gets the kept candidates'
    positions in ``ids_per_frame[t]`` and ``ids_per_frame[t + 1]``.
    """
    positions: list[np.ndarray] = []
    candidate_ids: list[np.ndarray] = []
    unary: list[np.ndarray] = []
    for ids, scores in zip(ids_per_frame, scores_per_frame):
        ids = np.asarray(ids, dtype=int)
        scores = np.asarray(scores, dtype=float)
        order = np.lexsort((ids, -scores))[:top_candidates]
        positions.append(order)
        candidate_ids.append(ids[order])
        unary.append(scores[order])

    pairwise = [
        np.asarray(pairwise_fn(t, positions[t], positions[t + 1]), dtype=float)
        for t in range(len(positions) - 1)
    ]
    return Trellis(video_id, list(frame_indices), candidate_ids, unary, pairwise)


def _min_id_position(positions: np.ndarray, ids: np.ndarray) -> int:
    return int(positions[np.argmin(ids[positions])])


def _best_indices(trellis: Trellis, unary: list[np.ndarray], lam: float) -> list[int]:
    """Backward pass plus forward reconstruction with exact-tie id ordering,
    over ``unary`` in place of the trellis' own (-inf marks a taken candidate).

    Ties (exact float equality of partial objectives) resolve to the
    lexicographically smallest proposal-id sequence.
    """
    T = trellis.num_frames
    suffix: list[np.ndarray] = [np.empty(0)] * T
    cont: list[np.ndarray] = [np.empty(0)] * max(T - 1, 0)
    suffix[T - 1] = unary[T - 1]
    for t in range(T - 2, -1, -1):
        scored = lam * trellis.pairwise[t] + suffix[t + 1][None, :]
        cont[t] = scored.max(axis=1)
        suffix[t] = unary[t] + cont[t]

    best = suffix[0].max()
    indices = [_min_id_position(np.flatnonzero(suffix[0] == best), trellis.candidate_ids[0])]
    for t in range(T - 1):
        i = indices[-1]
        # identical elementwise arithmetic to the backward pass, so the exact
        # equality test against cont[t][i] is guaranteed to match
        row = lam * trellis.pairwise[t][i, :] + suffix[t + 1]
        ties = np.flatnonzero(row == cont[t][i])
        indices.append(_min_id_position(ties, trellis.candidate_ids[t + 1]))
    return indices


def sequence_objective(trellis: Trellis, indices: Sequence[int], lam: float) -> float:
    """Exact recomputation of the chain objective for a candidate sequence."""
    un = [float(trellis.unary[t][i]) for t, i in enumerate(indices)]
    pw = [
        float(trellis.pairwise[t][indices[t], indices[t + 1]])
        for t in range(trellis.num_frames - 1)
    ]
    return math.fsum(un) + lam * math.fsum(pw)


def tube_solution(trellis: Trellis, indices: Sequence[int], lam: float) -> TubeSolution:
    """The tube through candidate positions ``indices``, scored by its exact
    chain objective."""
    regions = {
        trellis.frame_indices[t]: int(trellis.candidate_ids[t][i])
        for t, i in enumerate(indices)
    }
    return TubeSolution(Tube(trellis.video_id, regions, sequence_objective(trellis, indices, lam)))


def solve_p_best(trellis: Trellis, p: int, lam: float) -> list[TubeSolution]:
    """Extract up to p region-disjoint tubes by repeated solve-and-mask.

    After each tube its candidate at every key frame is masked out, so there
    are as many tubes as the smallest frame has candidates, at most p.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    unary = [u.astype(float, copy=True) for u in trellis.unary]
    capacity = min(trellis.candidate_count(t) for t in range(trellis.num_frames))
    solutions: list[TubeSolution] = []
    for _ in range(min(p, capacity)):
        indices = _best_indices(trellis, unary, lam)
        solutions.append(tube_solution(trellis, indices, lam))
        for u, i in zip(unary, indices):
            u[i] = -np.inf
    return solutions
