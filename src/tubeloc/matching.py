"""Cross-frame region matching: affinity, offset voting, saliency, standout.

All functions are pure; frame pairs can be matched fully in parallel.
Proposals are passed as row indices into each frame's columns, and
descriptors and box locations are gathered from those rows.
``match_confidences(rows_t, rows_u, ...)`` returns the (u, v, s) vote array on
the one fixed offset grid, whose bin centers and bandwidths are module
constants built once at import, and the (len(rows_t), len(rows_u)) score
matrix.

Probabilistic Hough matching of a frame pair runs over proposal pairs
m = (i, j). Each pair has an appearance affinity a(m) and an offset between
the two box locations, which votes into a grid of (u, v, s) bins with the
separable Gaussian likelihood g_u(m, u) g_v(m, v) g_s(m, s). With g_us the
row-wise outer product of the u- and s-kernels, an (M, u*s) matrix, both
contractions are matrix products:

    votes[(u, s), v] = ((g_us * a)^T @ g_v)[(u, s), v]
    support[m]       = rowsum((g_v @ votes^T) * g_us)[m]
    score[m]         = a(m) * support[m]

Each frame pair takes one pass over its table: g_us is built once and both
products run once over all M pairs. The test suite checks that votes and
scores are byte-identical under one and two BLAS threads.
``synth.brute_force_matching`` evaluates the full 3-D likelihood pair by
pair; it is the oracle for both the votes and the scores (within 1e-12
relative).
"""

from __future__ import annotations

import math

import numpy as np

from .model import Config, Frame

TRANSLATION_RANGE = (-1.0, 1.0)
LOG_SCALE_RANGE = (-math.log(4.0), math.log(4.0))

# Strict geometric containment with slack for jittery proposal boxes: the
# container must cover at least this share of the inner box and be at least
# this factor larger in area. A box never contains itself.
CONTAIN_AREA_RATIO = 0.99
CONTAIN_GROWTH = 1.01


def _bin_centers(lo: float, hi: float, count: int) -> np.ndarray:
    width = (hi - lo) / count
    return lo + (np.arange(count) + 0.5) * width


# The offset grid the votes go into: 16 translation bins per axis and 7
# log-scale bins, each bin's kernel as wide as the bin. Built once, read-only.
TRANSLATION_BINS = 16
LOG_SCALE_BINS = 7
TRANSLATION_CENTERS = _bin_centers(*TRANSLATION_RANGE, TRANSLATION_BINS)
LOG_SCALE_CENTERS = _bin_centers(*LOG_SCALE_RANGE, LOG_SCALE_BINS)
TRANSLATION_CENTERS.setflags(write=False)
LOG_SCALE_CENTERS.setflags(write=False)
_TRANSLATION_WIDTH = (TRANSLATION_RANGE[1] - TRANSLATION_RANGE[0]) / TRANSLATION_BINS
BANDWIDTHS = (_TRANSLATION_WIDTH, _TRANSLATION_WIDTH,
              (LOG_SCALE_RANGE[1] - LOG_SCALE_RANGE[0]) / LOG_SCALE_BINS)


def squared_distances(descs_a, descs_b) -> np.ndarray:
    """(len(descs_a), len(descs_b)) squared Euclidean distances between rows."""
    descs_a = np.asarray(descs_a, dtype=float)
    descs_b = np.asarray(descs_b, dtype=float)
    if descs_a.shape[1] != descs_b.shape[1]:
        raise ValueError("descriptor dimensions differ")
    return ((descs_a[:, None, :] - descs_b[None, :, :]) ** 2).sum(axis=2)


def affinity_matrix(descs_a: np.ndarray, descs_b: np.ndarray, gamma: float) -> np.ndarray:
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    return np.exp(-gamma * squared_distances(descs_a, descs_b))


def _axis_kernel(values: np.ndarray, centers: np.ndarray, bandwidth: float) -> np.ndarray:
    z = (values[:, None] - centers[None, :]) / bandwidth
    return np.exp(-0.5 * z * z)


def match_confidences(rows_t, rows_u, frame_t: Frame, frame_u: Frame, config: Config
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Offset votes (u, v, s) of a frame pair, and every proposal pair's score:
    its appearance affinity times its vote support.

    Pairs m = (i, j) run over ``rows_t`` x ``rows_u`` in row-major order; the
    two products are described in the module docstring.
    """
    if len(rows_t) == 0 or len(rows_u) == 0:
        raise ValueError("proposal sets must be non-empty")
    aff = affinity_matrix(frame_t.descriptors[rows_t], frame_u.descriptors[rows_u],
                          config.affinity_gamma)
    offsets = (frame_t.locations[rows_t][:, None, :]
               - frame_u.locations[rows_u][None, :, :]).reshape(-1, 3)
    gu = _axis_kernel(offsets[:, 0], TRANSLATION_CENTERS, BANDWIDTHS[0])
    gv = _axis_kernel(offsets[:, 1], TRANSLATION_CENTERS, BANDWIDTHS[1])
    gs = _axis_kernel(offsets[:, 2], LOG_SCALE_CENTERS, BANDWIDTHS[2])
    weights = aff.ravel()
    nu, nv, ns = TRANSLATION_BINS, TRANSLATION_BINS, LOG_SCALE_BINS
    gus = (gu[:, :, None] * gs[:, None, :]).reshape(weights.size, nu * ns)
    votes = (gus * weights[:, None]).T @ gv
    support = gv @ votes.T
    support *= gus  # in place: the peak holds two (M, u*s) arrays, not three
    return (votes.reshape(nu, ns, nv).transpose(0, 2, 1),
            aff * support.sum(axis=1).reshape(aff.shape))


def frame_saliencies(frame: Frame, neighbor_pools, config: Config) -> np.ndarray:
    """Per proposal, the sum over neighbor frames of its best match confidence.

    ``neighbor_pools`` is a list of (neighbor frame, allowed proposals), each
    pool given as rows of the neighbor frame or as its ``Proposal`` records;
    every pool must be non-empty and the list itself must not be empty.
    """
    if len(neighbor_pools) == 0:
        raise ValueError("neighbor pool list is empty")
    rows = np.arange(len(frame.proposals))
    saliency = np.zeros(rows.size)
    for neighbor_frame, pool in neighbor_pools:
        if len(pool) == 0:
            raise ValueError("neighbor proposal pool is empty")
        if not isinstance(pool, np.ndarray):
            pool = neighbor_frame.rows([p.id for p in pool])
        _, scores = match_confidences(rows, pool, frame, neighbor_frame, config)
        saliency += scores.max(axis=1)
    return saliency


def strict_containers(boxes: np.ndarray) -> np.ndarray:
    """contains[i, j]: box j strictly contains box i, for (n, 4) box rows.

    The container must cover at least ``CONTAIN_AREA_RATIO`` of box i and
    exceed its area by more than ``CONTAIN_GROWTH``, so no box contains itself.
    """
    x0, y0, w, h = np.asarray(boxes, dtype=float).reshape(-1, 4).T
    x1, y1 = x0 + w, y0 + h
    area = w * h
    iw = np.minimum.outer(x1, x1) - np.maximum.outer(x0, x0)
    ih = np.minimum.outer(y1, y1) - np.maximum.outer(y0, y0)
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    return ((inter >= CONTAIN_AREA_RATIO * area[:, None])
            & (area[None, :] > area[:, None] * CONTAIN_GROWTH))


def standout_scores(boxes: np.ndarray, saliencies: np.ndarray) -> np.ndarray:
    """Saliency minus the best saliency among strict containers (0 when none)."""
    contains = strict_containers(boxes)
    background = np.where(contains, saliencies[None, :], -np.inf).max(axis=1, initial=-np.inf)
    return saliencies - np.where(contains.any(axis=1), background, 0.0)


def rescale_unit(values: np.ndarray) -> np.ndarray:
    """Min-max rescale to [0, 1]; a constant input collapses to all zeros."""
    values = np.asarray(values, dtype=float)
    lo = values.min()
    span = values.max() - lo
    if span <= 0:
        return np.zeros_like(values)
    return (values - lo) / span


def appearance_confidence(frame: Frame, neighbor_pools, config: Config
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Rescaled standout scores in [0, 1] plus raw saliencies, per proposal.

    An empty pool list yields all-zero confidences: a frame with no usable
    neighbors carries no appearance evidence.
    """
    if neighbor_pools:
        saliency = frame_saliencies(frame, neighbor_pools, config)
    else:
        saliency = np.zeros(len(frame.proposals))
    raw = standout_scores(frame.boxes, saliency)
    return rescale_unit(raw), saliency
