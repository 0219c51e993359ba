"""Cross-frame region matching: affinity, offset voting, saliency, standout.

All functions are pure, so frame pairs can be matched fully in parallel.
Proposals are passed as row indices into each frame's columns, and
descriptors and box locations are gathered from those rows.
``match_confidences(rows_t, rows_u, ...)`` returns the (u, v, s) vote array on
the one fixed offset grid, whose bin centers and bandwidths are module
constants built once at import, and the (len(rows_t), len(rows_u)) score
matrix. Given (T, n_t) and (T, n_u) rows into a ``Columns`` stack of many
frames, it matches T tables of one shape in one pass, and each array gains a
leading table axis.

Probabilistic Hough matching of a frame pair runs over proposal pairs
m = (i, j). Each pair has an appearance affinity a(m) and an offset between
the two box locations, which votes into a grid of (u, v, s) bins with the
separable Gaussian likelihood g_u(u, m) g_v(v, m) g_s(s, m). The kernels are
built bin-major, each bin a row over all M pairs, so every elementwise pass
runs over M. With g_su the outer product of the s- and u-kernels, an
(s*u, M) matrix, both contractions are matrix products:

    votes[(s, u), v] = (g_su @ (g_v * a)^T)[(s, u), v]
    support[m]       = rowsum((g_su^T @ votes) * g_v^T)[m]
    score[m]         = a(m) * support[m]

Each table takes one pass: g_su is built once and both products run once
over all M pairs, so g_su is the one (s*u, M) array of a table. A stacked
pass does the same for each of its tables at once: every elementwise step is
the same per element, the descriptor sum reduces the same contiguous axis,
and each product is one GEMM per table with that table's shapes, so every
table's votes and scores are bit for bit those of its own pass. Votes and
scores are byte-identical under one and two BLAS threads. Each best-match
key has one vector on every path, read from its ``answering_table``.
``synth.brute_force_matching`` evaluates the full 3-D likelihood pair by
pair; it is the oracle for both the votes and the scores (within 1e-12
relative).
"""

from __future__ import annotations

import math

import numpy as np

from .model import Columns, Config, Frame

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
# Every u, v and s bin in one row: the offset axis it reads, center, bandwidth.
_BIN_AXIS = np.repeat([0, 1, 2], [TRANSLATION_BINS, TRANSLATION_BINS, LOG_SCALE_BINS])
_BIN_CENTERS = np.concatenate([TRANSLATION_CENTERS, TRANSLATION_CENTERS, LOG_SCALE_CENTERS])
_BIN_WIDTHS = np.array(BANDWIDTHS)[_BIN_AXIS]


def squared_distances(descs_a, descs_b) -> np.ndarray:
    """(..., len(a), len(b)) squared Euclidean distances between the rows of
    (..., len(a), D) and (..., len(b), D) descriptors."""
    descs_a = np.asarray(descs_a, dtype=float)
    descs_b = np.asarray(descs_b, dtype=float)
    if descs_a.shape[-1] != descs_b.shape[-1]:
        raise ValueError("descriptor dimensions differ")
    return ((descs_a[..., :, None, :] - descs_b[..., None, :, :]) ** 2).sum(axis=-1)


def affinity_matrix(descs_a: np.ndarray, descs_b: np.ndarray, gamma: float) -> np.ndarray:
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    with np.errstate(over="ignore"):  # -gamma * d overflows to -inf, whose exp is the limit 0
        return np.exp(-gamma * squared_distances(descs_a, descs_b))


def match_confidences(rows_t, rows_u, frame_t: Frame | Columns, frame_u: Frame | Columns,
                      config: Config, out: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Offset votes (u, v, s) of a frame pair, and every proposal pair's score:
    its appearance affinity times its vote support.

    Pairs m = (i, j) run over ``rows_t`` x ``rows_u`` in row-major order; the
    two products are described in the module docstring. ``frame_t`` and
    ``frame_u`` are what the rows index: a ``Frame``, or the ``Columns``
    stack of many frames. Rows of shape (T, n_t) and (T, n_u) match T tables
    of the same shape at once, and every output gains a leading table axis;
    each table's votes and scores are bit for bit those of its own 1-D rows.
    ``out``, a float array of at least M * s * u elements for the M pairs of
    all the tables, receives g_su in place of a new array, so that a caller
    matching many chunks can reuse one.
    """
    rows_t, rows_u = np.asarray(rows_t), np.asarray(rows_u)
    if rows_t.shape[-1] == 0 or rows_u.shape[-1] == 0:
        raise ValueError("proposal sets must be non-empty")
    tables = rows_t.shape[:-1]
    aff = affinity_matrix(frame_t.descriptors[rows_t], frame_u.descriptors[rows_u],
                          config.affinity_gamma)
    loc_t = np.swapaxes(frame_t.locations[rows_t], -1, -2)  # (3, n_t) a table
    loc_u = np.swapaxes(frame_u.locations[rows_u], -1, -2)
    offsets = (loc_t[..., :, None] - loc_u[..., None, :]).reshape(*tables, 3, -1)  # (3, M)
    z = offsets[..., _BIN_AXIS, :] - _BIN_CENTERS[:, None]  # bin-major: (39, M)
    z /= _BIN_WIDTHS[:, None]
    z *= -0.5 * z
    kernels = np.exp(z, out=z)  # all three axes' at once, in place: no z is left for g_su
    nu, nv, ns = TRANSLATION_BINS, TRANSLATION_BINS, LOG_SCALE_BINS
    gu, gv, gs = kernels[..., :nu, :], kernels[..., nu:nu + nv, :], kernels[..., nu + nv:, :]
    weights = aff.reshape(*tables, 1, -1)
    products = (*tables, ns, nu, weights.shape[-1])
    gsu = np.multiply(gs[..., :, None, :], gu[..., None, :, :],
                      out=None if out is None else out[:math.prod(products)].reshape(products))
    gsu = gsu.reshape(*tables, ns * nu, -1)
    votes = gsu @ np.swapaxes(gv * weights, -1, -2)  # one GEMM per table
    support = np.swapaxes(gsu, -1, -2) @ votes
    support *= np.swapaxes(gv, -1, -2)  # in place on (M, v): g_su stays a table's one array
    return (votes.reshape(*tables, ns, nu, nv).transpose(*range(len(tables)), -2, -1, -3),
            aff * support.sum(axis=-1).reshape(aff.shape))


def match_side(frame: Frame, rows) -> tuple:
    """One side of a best-match vector's key: frame (video id, index), row bytes."""
    return frame.video_id, frame.frame_index, np.asarray(rows, dtype=np.intp).tobytes()


def answering_table(key: tuple) -> tuple:
    """The table that answers a best-match key (``match_side`` of t, of u), the
    smaller of it and its reverse: read by its row maxima when it is the key,
    by its column maxima otherwise, with or without the run's cache."""
    return min(key, key[::-1])


def saliency_keys(frame: Frame, pools) -> list[tuple]:
    """The key of each table a saliency of ``frame`` adds: every row of the
    frame against each (neighbor frame, pool rows) of ``pools``, in order."""
    side = match_side(frame, np.arange(len(frame.proposals)))
    return [(side, match_side(neighbor_frame, rows)) for neighbor_frame, rows in pools]


def frame_saliencies(frame: Frame, neighbor_pools, config: Config,
                     vectors=None) -> np.ndarray:
    """Per proposal, the sum over neighbor frames of its best match confidence.

    ``neighbor_pools`` is a list of (neighbor frame, non-empty pool), each
    pool given as rows of the neighbor frame or as its ``Proposal`` records.
    ``vectors`` maps each ``saliency_keys`` key to that table's best-match
    vector, as the run's ``MatchCache.tables`` does: a table it holds is not
    matched, and one it lacks is matched as its ``answering_table`` and not
    kept. The vectors are added in neighbor order from zeros, so a copied
    vector leaves the sum bit for bit the same, and an empty list sums to
    zeros: a frame with no usable neighbors carries no appearance evidence.
    """
    vectors = {} if vectors is None else vectors
    pools = [(neighbor_frame, pool if isinstance(pool, np.ndarray)
              else neighbor_frame.rows([p.id for p in pool]))
             for neighbor_frame, pool in neighbor_pools]
    rows = np.arange(len(frame.proposals))
    saliency = np.zeros(rows.size)
    for (neighbor_frame, pool), key in zip(pools, saliency_keys(frame, pools)):
        if (best := vectors.get(key)) is None:
            if answering_table(key) == key:
                best = match_confidences(rows, pool, frame, neighbor_frame, config)[1].max(axis=1)
            else:
                best = match_confidences(pool, rows, neighbor_frame, frame, config)[1].max(axis=0)
        saliency += best
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


def standout_scores(contains: np.ndarray, saliencies: np.ndarray) -> np.ndarray:
    """Saliency minus the best saliency among strict containers (0 when none),
    which ``contains``, the boxes' ``strict_containers``, marks."""
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


def appearance_confidence(frame: Frame, contains: np.ndarray, neighbor_pools, config: Config,
                          vectors=None) -> tuple[np.ndarray, np.ndarray]:
    """Rescaled standout scores in [0, 1] plus raw saliencies, per proposal;
    ``contains`` is the frame's ``strict_containers``, which do not change
    during a run, and ``vectors`` is handed to ``frame_saliencies``. No pools
    give all zeros."""
    saliency = frame_saliencies(frame, neighbor_pools, config, vectors)
    raw = standout_scores(contains, saliency)
    return rescale_unit(raw), saliency
