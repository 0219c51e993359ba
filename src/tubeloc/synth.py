"""Seeded synthetic collections with planted tubes, plus brute-force oracles.

The generator plants one object per video: a box moving on a linear path,
carrying a class-prototype descriptor, nested part proposals, a matching
motion cluster, and static background clusters plus distractor proposals.
Geometry, descriptors, and track points are quantized to the serialized
float precision at creation time, so in-memory collections round-trip
bit-exactly through the artifact files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discovery import build_video_trellis
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
    Tube,
    ValidationError,
    Video,
    key_frames,
    unit_normalized,
)
from .solver import Trellis, TubeSolution

# Relative sub-rectangles (x, y, w, h) of the planted box used as nested
# part proposals; they exercise the standout subtraction.
_PART_RECTS = [
    (0.05, 0.05, 0.45, 0.45),
    (0.50, 0.45, 0.45, 0.50),
    (0.10, 0.50, 0.35, 0.45),
    (0.55, 0.05, 0.40, 0.35),
]

# Object-track grid margins inside the planted box: endpoints stay slightly
# off the border so that quantization never pushes a point outside.
_REL_MARGIN = 0.02

_PART_MIX = 0.35  # weight of the part direction mixed into the class prototype

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
    descriptor_dim: int = 32
    signature_dim: int = 16
    prototype_separation_deg: float = 90.0
    descriptor_noise: float = 0.0
    signature_noise: float = 0.0
    num_distractors: int = 5
    num_parts: int = 2
    object_track_grid: int = 4
    background_clusters: int = 2
    tracks_per_background_cluster: int = 12
    frame_width: float = 320.0
    frame_height: float = 240.0
    object_scale: float = 0.3

    def validate(self):
        self.check_field_types()
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        for name in ("num_classes", "videos_per_class", "frames_per_video",
                     "keyframe_stride", "descriptor_dim", "signature_dim"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.descriptor_noise < 0 or self.signature_noise < 0:
            raise ValidationError("noise levels must be >= 0")
        if self.num_distractors < 0 or self.num_parts < 0:
            raise ValidationError("distractor and part counts must be >= 0")
        if self.num_parts > len(_PART_RECTS):
            raise ValidationError(f"at most {len(_PART_RECTS)} parts are supported")
        if self.object_track_grid < 2:
            raise ValidationError("object_track_grid must be >= 2")
        if self.background_clusters < 0 or self.tracks_per_background_cluster < 1:
            raise ValidationError("invalid background cluster layout")
        if not 0.0 < self.prototype_separation_deg <= 90.0:
            raise ValidationError("prototype separation must be in (0, 90] degrees")
        if not (self.frame_width > 0 < self.frame_height
                and 0 < float(self.frame_width) * float(self.frame_height) < math.inf):
            raise ValidationError("frame size must be positive and finite, and so must its area")
        if not 0.0 < self.object_scale < 0.95:
            raise ValidationError("object larger than frame: object_scale must be < 0.95")
        if self.descriptor_dim < self.num_classes + self.num_parts + 1:
            raise ValidationError(
                "descriptor_dim too small for the class and part prototypes"
            )
        if self.signature_dim < self.num_classes:
            raise ValidationError("signature_dim must be >= num_classes")


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
    d = spec.descriptor_dim
    basis = np.eye(d)
    sep = math.radians(spec.prototype_separation_deg)
    mix = math.acos(math.sqrt(math.cos(sep)))  # pairwise angle equals sep
    common = basis[spec.num_classes + spec.num_parts]
    protos = np.stack([
        math.cos(mix) * common + math.sin(mix) * basis[c]
        for c in range(spec.num_classes)
    ])
    parts = np.stack([
        np.stack([
            unit_normalized(protos[c] + _PART_MIX * basis[spec.num_classes + k])
            for k in range(spec.num_parts)
        ]) if spec.num_parts else np.empty((0, d))
        for c in range(spec.num_classes)
    ])
    return protos, parts


def generate_collection(spec: SynthSpec) -> tuple[Collection, PlantedTruth, list[GroundTruth]]:
    """Build a deterministic collection with one planted object per video."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    protos, part_protos = _prototypes(spec)
    sig_protos = np.eye(spec.signature_dim)[: spec.num_classes]

    width = canon_float(spec.frame_width)
    height = canon_float(spec.frame_height)
    T = spec.frames_per_video
    kfs = set(range(0, T, spec.keyframe_stride))
    rel = np.linspace(_REL_MARGIN, 1.0 - _REL_MARGIN, spec.object_track_grid)
    n_props = 1 + spec.num_parts + 1 + spec.num_distractors

    collection = Collection(spec.descriptor_dim, spec.signature_dim)
    planted = PlantedTruth()
    truths: list[GroundTruth] = []

    for c in range(spec.num_classes):
        label = f"class{c}"
        for j in range(spec.videos_per_class):
            vid = f"{label}_v{j:02d}"
            obj_w = spec.object_scale * width * rng.uniform(0.85, 1.0)
            obj_h = spec.object_scale * height * rng.uniform(0.85, 1.0)
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
                distractor_descs.append(_unit(rng, rng.standard_normal(spec.descriptor_dim), 0.0))

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
            for b in range(spec.background_clusters if T >= 2 else 0):
                center = rng.uniform([0.1 * width, 0.1 * height],
                                     [0.9 * width, 0.9 * height])
                for _ in range(spec.tracks_per_background_cluster):
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
                    for k in range(spec.num_parts):
                        px, py, pw, ph = _PART_RECTS[k]
                        part_box = Box(*canon_list([
                            obox.x_min + px * obox.width, obox.y_min + py * obox.height,
                            pw * obox.width, ph * obox.height,
                        ]))
                        entries.append(
                            (part_box, _unit(rng, part_protos[c][k].copy(), spec.descriptor_noise))
                        )
                    entries.append(
                        (Box(0.0, 0.0, width, height),
                         _unit(rng, rng.standard_normal(spec.descriptor_dim), 0.0))
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
    trellis.validate()
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


def _solution(trellis: Trellis, positions: list[int], lam: float) -> TubeSolution:
    unaries = [float(trellis.unary[t][i]) for t, i in enumerate(positions)]
    pair = [
        float(trellis.pairwise[t][positions[t], positions[t + 1]])
        for t in range(trellis.num_frames - 1)
    ]
    objective = math.fsum(unaries) + lam * math.fsum(pair)
    regions = {
        trellis.frame_indices[t]: int(trellis.candidate_ids[t][i])
        for t, i in enumerate(positions)
    }
    return TubeSolution(Tube(trellis.video_id, regions, objective), objective)


def brute_force_tube(trellis: Trellis, lam: float) -> TubeSolution:
    """Exact maximizer by exhaustive enumeration (guarded to small instances)."""
    positions, _ties = _enumerate_best(trellis, lam)
    return _solution(trellis, positions, lam)


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


def verify_planted_optimal(collection: Collection, planted: PlantedTruth,
                           config: Config) -> bool:
    """Check that under ideal same-class neighbors every planted tube is the
    unique objective maximizer, by exhaustive enumeration.

    Neighbor lists take the first ``k_neighbors`` same-class key frames in
    (video id, frame index) order, which is exactly what bootstrap retrieval
    selects on a noise-free collection.
    """
    for vid, video in collection.videos.items():
        label = planted.class_labels[vid]
        same_class = sorted(
            w for w in collection.videos
            if w != vid and planted.class_labels[w] == label
        )
        refs = [
            (w, u)
            for w in same_class
            for u in key_frames(collection.videos[w], config.keyframe_stride)
        ][: config.k_neighbors]
        pools = [
            (collection.videos[w].frames[u], list(collection.videos[w].frames[u].proposals))
            for w, u in refs
        ]
        pools_by_kf = {kf: pools for kf in key_frames(video, config.keyframe_stride)}
        trellis, _ = build_video_trellis(video, pools_by_kf, config)
        positions, ties = _enumerate_best(trellis, config.lambda_)
        found = _solution(trellis, positions, config.lambda_).tube.regions
        if ties != 1 or found != planted.tubes[vid]:
            return False
    return True


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
