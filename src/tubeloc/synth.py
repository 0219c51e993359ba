"""Seeded synthetic collections with planted tubes, plus brute-force oracles.

The generator plants one object per video: a box moving on a linear path,
carrying a class-prototype descriptor, nested part proposals, a matching
motion cluster, and static background clusters plus distractor proposals.
Geometry, descriptors, and track points are quantized to the serialized
float precision at creation time, so boxes, frame sizes, signatures and
track points round-trip bit-exactly through the artifact files. Descriptors
do not: the loader re-normalizes the written values to unit length, which
changes the last bits of most entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .formats import box_record, canon_float, canon_list, read_jsonl, write_jsonl
from .matching import BANDWIDTHS, LOG_SCALE_CENTERS, TRANSLATION_CENTERS
from .model import (
    Box,
    Collection,
    Config,
    Frame,
    GroundTruth,
    Params,
    Proposal,
    Track,
    ValidationError,
    Video,
    unit_normalized,
)
from .solver import Trellis, TubeSolution, tube_solution

# Relative sub-rectangles (x, y, w, h) of the planted box used as nested
# part proposals; they exercise the standout subtraction.
_PART_RECTS = [
    (0.05, 0.05, 0.45, 0.45),
    (0.50, 0.45, 0.45, 0.50),
]

# The planted object carries a grid of this many tracks a side, at margins
# inside its box: endpoints stay slightly off the border so that quantization
# never pushes a point outside. The background has this many static clusters
# of this many tracks each.
_OBJECT_TRACK_GRID = 4
_REL_MARGIN = 0.02
_BACKGROUND_CLUSTERS = 2
_TRACKS_PER_BACKGROUND_CLUSTER = 12

# Every frame is this size, and the planted object's sides are at most this
# share of the frame's. Each class has its own signature axis, and its own
# descriptor axis beside one per part and one common axis: the signature
# dimension bounds the number of classes at 16, and the descriptor's at 29.
_FRAME_WIDTH = 320.0
_FRAME_HEIGHT = 240.0
_OBJECT_SCALE = 0.3
_DESCRIPTOR_DIM = 32
_SIGNATURE_DIM = 16

_PART_MIX = 0.35  # weight of the part direction mixed into the class prototype

# A noise level scales standard normal draws, which numpy's sampler keeps
# below 15 in magnitude: up to this level every noisy entry stays finite.
_MAX_NOISE = 1e300

BRUTE_FORCE_MAX_FRAMES = 8
BRUTE_FORCE_MAX_CANDIDATES = 10
BRUTE_FORCE_MAX_PAIRS = 10_000


@dataclass
class SynthSpec(Params):
    """Parameters of the synthetic collection generator."""

    noun = "generator"

    seed: int = 7
    num_classes: int = 2
    videos_per_class: int = 4
    frames_per_video: int = 100
    keyframe_stride: int = 20
    prototype_separation_deg: float = 90.0
    descriptor_noise: float = 0.0
    signature_noise: float = 0.0
    num_distractors: int = 5

    def validate(self):
        self.check_field_types()
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        for name in ("num_classes", "videos_per_class", "frames_per_video", "keyframe_stride"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.num_classes > _SIGNATURE_DIM:
            raise ValidationError(f"num_classes must be <= {_SIGNATURE_DIM}")
        for name in ("descriptor_noise", "signature_noise"):
            if not 0 <= getattr(self, name) <= _MAX_NOISE:
                raise ValidationError(f"{name} must be >= 0 and <= 1e300")
        if self.num_distractors < 0:
            raise ValidationError("num_distractors must be >= 0")
        if not 0.0 < self.prototype_separation_deg <= 90.0:
            raise ValidationError("prototype separation must be in (0, 90] degrees")


@dataclass
class PlantedTruth:
    """Per video: the planted tube, the planted box at every frame, the class."""

    class_labels: dict[str, str] = field(default_factory=dict)
    tubes: dict[str, dict[int, int]] = field(default_factory=dict)
    boxes: dict[str, dict[int, Box]] = field(default_factory=dict)


def _unit(rng: np.random.Generator, base: np.ndarray, noise: float) -> np.ndarray:
    if noise > 0:
        base = base + noise * rng.standard_normal(base.size)
    return np.array(canon_list(unit_normalized(base)))


def _prototypes(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Class prototypes with the requested pairwise angle, plus part prototypes."""
    basis = np.eye(_DESCRIPTOR_DIM)
    sep = math.radians(spec.prototype_separation_deg)
    mix = math.acos(math.sqrt(math.cos(sep)))  # pairwise angle equals sep
    common = basis[spec.num_classes + len(_PART_RECTS)]
    protos = np.stack([
        math.cos(mix) * common + math.sin(mix) * basis[c]
        for c in range(spec.num_classes)
    ])
    parts = np.stack([
        np.stack([
            unit_normalized(protos[c] + _PART_MIX * basis[spec.num_classes + k])
            for k in range(len(_PART_RECTS))
        ])
        for c in range(spec.num_classes)
    ])
    return protos, parts


def generate_collection(spec: SynthSpec) -> tuple[Collection, PlantedTruth, list[GroundTruth]]:
    """Build a deterministic collection with one planted object per video."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    protos, part_protos = _prototypes(spec)
    sig_protos = np.eye(_SIGNATURE_DIM)[: spec.num_classes]

    width, height = _FRAME_WIDTH, _FRAME_HEIGHT
    T = spec.frames_per_video
    kfs = set(range(0, T, spec.keyframe_stride))
    rel = np.linspace(_REL_MARGIN, 1.0 - _REL_MARGIN, _OBJECT_TRACK_GRID)
    n_props = 1 + len(_PART_RECTS) + 1 + spec.num_distractors

    collection = Collection(_DESCRIPTOR_DIM, _SIGNATURE_DIM)
    planted = PlantedTruth()
    truths: list[GroundTruth] = []

    for c in range(spec.num_classes):
        label = f"class{c}"
        for j in range(spec.videos_per_class):
            vid = f"{label}_v{j:02d}"
            obj_w = _OBJECT_SCALE * width * rng.uniform(0.85, 1.0)
            obj_h = _OBJECT_SCALE * height * rng.uniform(0.85, 1.0)
            x0, x1 = rng.uniform(0.0, width - obj_w, size=2)
            y0, y1 = rng.uniform(0.0, height - obj_h, size=2)

            def object_box(t: int) -> Box:
                f = t / (T - 1) if T > 1 else 0.0
                return Box(*canon_list([x0 + f * (x1 - x0), y0 + f * (y1 - y0), obj_w, obj_h]))

            distractor_boxes = []
            distractor_descs = []
            for _ in range(spec.num_distractors):
                dw = rng.uniform(0.15, 0.45) * width
                dh = rng.uniform(0.15, 0.45) * height
                dx = rng.uniform(0.0, width - dw)
                dy = rng.uniform(0.0, height - dh)
                distractor_boxes.append(Box(*canon_list([dx, dy, dw, dh])))
                distractor_descs.append(_unit(rng, rng.standard_normal(_DESCRIPTOR_DIM), 0.0))

            tracks: list[Track] = []
            tid = 0
            boxes_per_frame = {t: object_box(t) for t in range(T)}
            # a track needs at least two points, so 1-frame videos carry none
            track_rel = rel if T >= 2 else np.empty(0)
            for ry in track_rel:
                for rx in track_rel:
                    points = np.array([
                        [
                            canon_float(boxes_per_frame[t].x_min + rx * boxes_per_frame[t].width),
                            canon_float(boxes_per_frame[t].y_min + ry * boxes_per_frame[t].height),
                        ]
                        for t in range(T)
                    ])
                    tracks.append(Track(tid, 0, 0, points))
                    tid += 1
            for b in range(_BACKGROUND_CLUSTERS if T >= 2 else 0):
                center = rng.uniform([0.1 * width, 0.1 * height],
                                     [0.9 * width, 0.9 * height])
                for _ in range(_TRACKS_PER_BACKGROUND_CLUSTER):
                    pt = center + rng.normal(0.0, 0.08, size=2) * np.array([width, height])
                    pt = np.clip(pt, [0.005 * width, 0.005 * height],
                                 [0.995 * width, 0.995 * height])
                    points = np.array([[canon_float(pt[0]), canon_float(pt[1])]] * T)
                    tracks.append(Track(tid, b + 1, 0, points))
                    tid += 1

            frames: dict[int, Frame] = {}
            tube: dict[int, int] = {}
            for t in range(T):
                proposals: list[Proposal] = []
                if t in kfs:
                    obox = boxes_per_frame[t]
                    entries: list[tuple[Box, np.ndarray]] = [
                        (obox, _unit(rng, protos[c].copy(), spec.descriptor_noise))
                    ]
                    for (px, py, pw, ph), part in zip(_PART_RECTS, part_protos[c]):
                        part_box = Box(*canon_list([
                            obox.x_min + px * obox.width, obox.y_min + py * obox.height,
                            pw * obox.width, ph * obox.height,
                        ]))
                        entries.append(
                            (part_box, _unit(rng, part.copy(), spec.descriptor_noise))
                        )
                    entries.append(
                        (Box(0.0, 0.0, width, height),
                         _unit(rng, rng.standard_normal(_DESCRIPTOR_DIM), 0.0))
                    )
                    for box, desc in zip(distractor_boxes, distractor_descs):
                        entries.append((box, desc))
                    ids = rng.permutation(n_props)
                    proposals = sorted(
                        (Proposal(int(pid), box, desc)
                         for pid, (box, desc) in zip(ids, entries)),
                        key=lambda p: p.id,
                    )
                    tube[t] = int(ids[0])
                signature = _unit(rng, sig_protos[c].copy(), spec.signature_noise)
                frames[t] = Frame(vid, t, width, height, proposals, signature)

            collection.videos[vid] = Video(vid, T, frames, tracks)
            planted.class_labels[vid] = label
            planted.tubes[vid] = tube
            planted.boxes[vid] = boxes_per_frame
            annotated = T // 2
            truth = GroundTruth(vid, annotated, boxes_per_frame[annotated], label)
            collection.ground_truths[vid] = truth
            truths.append(truth)

    return collection, planted, truths


# ---------------------------------------------------------------------------
# Brute-force oracles


def _guard_trellis(trellis: Trellis):
    sizes = [trellis.candidate_count(t) for t in range(trellis.num_frames)]
    if trellis.num_frames > BRUTE_FORCE_MAX_FRAMES or max(sizes) > BRUTE_FORCE_MAX_CANDIDATES:
        raise ValueError(
            "instance exceeds the brute-force guard "
            f"(<= {BRUTE_FORCE_MAX_FRAMES} frames, <= {BRUTE_FORCE_MAX_CANDIDATES} candidates)"
        )


def _enumerate_best(trellis: Trellis, lam: float) -> tuple[list[int], int]:
    """Exhaustively score every candidate sequence; no recurrence is shared
    with the production solver.

    Returns the positions of the maximizing sequence (ties resolved to the
    lexicographically smallest id sequence) and the number of maximizers.
    """
    _guard_trellis(trellis)
    T = trellis.num_frames
    ids = trellis.candidate_ids

    def id_tuple(first: int, rest: tuple[int, ...]) -> tuple[int, ...]:
        return (int(ids[0][first]),) + tuple(
            int(ids[t + 1][rest[t]]) for t in range(len(rest))
        )

    best_score = -math.inf
    best_ids: tuple[int, ...] | None = None
    best_pos: list[int] | None = None
    ties = 0

    if T == 1:
        scores = trellis.unary[0]
        top = scores.max()
        positions = np.flatnonzero(scores == top)
        ties = int(positions.size)
        pick = min(positions, key=lambda i: int(ids[0][i]))
        return [int(pick)], ties

    for first in range(trellis.candidate_count(0)):
        table = (trellis.unary[0][first]
                 + lam * trellis.pairwise[0][first, :] + trellis.unary[1])
        for t in range(1, T - 1):
            table = table[..., None] + lam * trellis.pairwise[t] + trellis.unary[t + 1]
        top = float(table.max())
        if top < best_score:
            continue
        positions = np.argwhere(table == top)
        count = positions.shape[0]
        chunk_best = min(
            (id_tuple(first, tuple(int(v) for v in row)) for row in positions),
        )
        if top > best_score:
            best_score, ties = top, count
            best_ids = chunk_best
            best_pos = None
        else:
            ties += count
            if chunk_best >= best_ids:  # type: ignore[operator]
                continue
            best_ids = chunk_best
            best_pos = None
        if best_pos is None:
            lookup = [
                {int(pid): i for i, pid in enumerate(ids[t])} for t in range(T)
            ]
            best_pos = [lookup[t][best_ids[t]] for t in range(T)]

    assert best_pos is not None
    return best_pos, ties


def brute_force_tube(trellis: Trellis, lam: float) -> TubeSolution:
    """Exact maximizer by exhaustive enumeration (guarded to small instances)."""
    positions, _ties = _enumerate_best(trellis, lam)
    return tube_solution(trellis, positions, lam)


def brute_force_matching(props_t, props_u, frame_t: Frame, frame_u: Frame,
                    config: Config) -> tuple[np.ndarray, np.ndarray]:
    """Naive per-pair dense-grid voting and confidence evaluation.

    Evaluates the full 3-D geometry likelihood per proposal pair instead of
    the production separable-kernel accumulation; reference for both the
    vote grid and the match score table.
    """
    if not props_t or not props_u:
        raise ValueError("proposal sets must be non-empty")
    if len(props_t) * len(props_u) > BRUTE_FORCE_MAX_PAIRS:
        raise ValueError("instance exceeds the brute-force pair guard")
    cu = TRANSLATION_CENTERS[:, None, None]
    cv = TRANSLATION_CENTERS[None, :, None]
    cs = LOG_SCALE_CENTERS[None, None, :]
    bwu, bwv, bws = BANDWIDTHS
    gamma = config.affinity_gamma

    def location(p, frame):
        cx = p.box.x_min + 0.5 * p.box.width
        cy = p.box.y_min + 0.5 * p.box.height
        area_ratio = (p.box.width * p.box.height) / (frame.width * frame.height)
        return (cx / frame.width, cy / frame.height, 0.5 * math.log(area_ratio))

    def likelihood(loc_a, loc_b):
        du, dv, ds = (loc_a[0] - loc_b[0], loc_a[1] - loc_b[1], loc_a[2] - loc_b[2])
        return (np.exp(-0.5 * ((du - cu) / bwu) ** 2)
                * np.exp(-0.5 * ((dv - cv) / bwv) ** 2)
                * np.exp(-0.5 * ((ds - cs) / bws) ** 2))

    locs_t = [location(p, frame_t) for p in props_t]
    locs_u = [location(p, frame_u) for p in props_u]
    affinities = np.array([
        [math.exp(-gamma * float(np.sum((pt.descriptor - pu.descriptor) ** 2)))
         for pu in props_u]
        for pt in props_t
    ])

    votes = np.zeros((cu.size, cv.size, cs.size))
    for i in range(len(props_t)):
        for j in range(len(props_u)):
            votes = votes + affinities[i, j] * likelihood(locs_t[i], locs_u[j])

    scores = np.zeros((len(props_t), len(props_u)))
    for i in range(len(props_t)):
        for j in range(len(props_u)):
            support = float(np.sum(likelihood(locs_t[i], locs_u[j]) * votes))
            scores[i, j] = affinities[i, j] * support
    return votes, scores


# ---------------------------------------------------------------------------
# Planted-truth artifact files


def save_planted(planted: PlantedTruth, path) -> None:
    records = []
    for vid in sorted(planted.class_labels):
        records.append(
            {
                "type": "planted",
                "video_id": vid,
                "class_label": planted.class_labels[vid],
                "tube": [[kf, pid] for kf, pid in sorted(planted.tubes[vid].items())],
                "boxes": [[t, box_record(box)] for t, box in sorted(planted.boxes[vid].items())],
            }
        )
    write_jsonl(path, records)


def load_planted(path) -> PlantedTruth:
    planted = PlantedTruth()
    for _locus, record in read_jsonl(path, "planted"):
        vid = str(record["video_id"])
        planted.class_labels[vid] = str(record["class_label"])
        planted.tubes[vid] = {int(kf): int(pid) for kf, pid in record["tube"]}
        planted.boxes[vid] = {int(t): Box(*map(float, b)) for t, b in record["boxes"]}
    return planted
