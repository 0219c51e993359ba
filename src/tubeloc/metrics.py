"""Localization and retrieval quality metrics, macro-averaged over classes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Box, Collection, NeighborGraph, Tube, ValidationError, interpolate_tube

IOU_THRESHOLD = 0.5


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    inter = a.intersection_area(b)
    return inter / (a.area + b.area - inter)


def _macro(per_class: dict[str, float]) -> float:
    return float(np.mean(list(per_class.values()))) if per_class else 0.0


def corloc(tubes: dict[str, Tube], collection: Collection) -> tuple[dict[str, float], float]:
    """Share of annotated videos localized with IoU strictly above IOU_THRESHOLD.

    Annotated frames between key frames are judged on the interpolated box.
    """
    correct: dict[str, list[bool]] = {}
    for vid, truth in collection.ground_truths.items():
        if vid not in tubes:
            raise ValidationError(f"no predicted tube for annotated video {vid}")
        boxes = interpolate_tube(tubes[vid], collection.videos[vid])
        hit = iou(boxes[truth.frame_index], truth.box) > IOU_THRESHOLD
        correct.setdefault(truth.class_label, []).append(hit)
    per_class = {
        label: 100.0 * sum(hits) / len(hits) for label, hits in sorted(correct.items())
    }
    return per_class, _macro(per_class)


def video_labels(collection: Collection) -> dict[str, str]:
    return {vid: truth.class_label for vid, truth in collection.ground_truths.items()}


def _frame_fractions(graph: NeighborGraph, labels: dict[str, str]):
    """Per query frame with a labeled video: distribution of neighbor classes.

    Neighbors from unlabeled videos are skipped, so videos without
    annotations never influence retrieval metrics.
    """
    for (vid, t), entries in graph.neighbors.items():
        if vid not in labels:
            continue
        counted = [(labels[nvid], sim) for (nvid, _nt), sim in entries if nvid in labels]
        if not counted:
            continue
        yield vid, labels[vid], counted


def corret(graph: NeighborGraph, labels: dict[str, str]) -> tuple[dict[str, float], float]:
    """Mean percentage of retrieved neighbor frames sharing the query's class.

    Per-frame fractions average over each class's frames, then over classes.
    """
    fractions: dict[str, list[float]] = {}
    for _vid, qlabel, counted in _frame_fractions(graph, labels):
        same = sum(1 for nlabel, _sim in counted if nlabel == qlabel)
        fractions.setdefault(qlabel, []).append(100.0 * same / len(counted))
    per_class = {label: float(np.mean(vals)) for label, vals in sorted(fractions.items())}
    return per_class, _macro(per_class)


def topk_error(graph: NeighborGraph, labels: dict[str, str], k_labels: int
               ) -> tuple[dict[str, float], float]:
    """Share of videos whose true class misses the k most frequent neighbor labels.

    Label ranking ties break by total neighbor similarity, then label order.
    """
    counts: dict[str, dict[str, int]] = {}
    sims: dict[str, dict[str, float]] = {}
    for vid, _qlabel, counted in _frame_fractions(graph, labels):
        vc = counts.setdefault(vid, {})
        vs = sims.setdefault(vid, {})
        for nlabel, sim in counted:
            vc[nlabel] = vc.get(nlabel, 0) + 1
            vs[nlabel] = vs.get(nlabel, 0.0) + sim

    errors: dict[str, list[bool]] = {}
    for vid, qlabel in labels.items():
        if vid not in counts:
            continue
        ranked = sorted(counts[vid], key=lambda lab: (-counts[vid][lab], -sims[vid][lab], lab))
        errors.setdefault(qlabel, []).append(qlabel not in ranked[:k_labels])
    per_class = {
        label: 100.0 * sum(errs) / len(errs) for label, errs in sorted(errors.items())
    }
    return per_class, _macro(per_class)


def retrieval_confusion(graph: NeighborGraph, labels: dict[str, str]
                        ) -> tuple[list[str], np.ndarray]:
    """Row-normalized query-class by retrieved-class percentages.

    Rows average per-frame neighbor distributions, so the diagonal equals
    the per-class retrieval correctness.
    """
    classes = sorted(set(labels.values()))
    index = {label: i for i, label in enumerate(classes)}
    sums = np.zeros((len(classes), len(classes)))
    frames = np.zeros(len(classes))
    for _vid, qlabel, counted in _frame_fractions(graph, labels):
        row = np.zeros(len(classes))
        for nlabel, _sim in counted:
            row[index[nlabel]] += 1.0
        sums[index[qlabel]] += row / len(counted)
        frames[index[qlabel]] += 1
    matrix = np.zeros_like(sums)
    nonzero = frames > 0
    matrix[nonzero] = 100.0 * sums[nonzero] / frames[nonzero, None]
    return classes, matrix


@dataclass
class EvalReport:
    """Per-class metric rows ``(name, label, per_class, average)``, in report
    order, plus the retrieval confusion matrix when retrieval was scored."""

    classes: list[str]
    rows: list[tuple[str, str, dict[str, float], float]]
    confusion: np.ndarray | None = None

    def to_records(self) -> list[dict]:
        records: list[dict] = [
            {
                "type": "metric",
                "name": name,
                "per_class": {k: round(v, 6) for k, v in per_class.items()},
                "average": round(average, 6),
            }
            for name, _label, per_class, average in self.rows
        ]
        if self.confusion is not None:
            records.append(
                {
                    "type": "confusion",
                    "classes": self.classes,
                    "rows": [[round(v, 6) for v in row] for row in self.confusion],
                }
            )
        return records

    def table(self) -> str:
        """Aligned per-class table plus the confusion matrix."""
        width = max([len(c) for c in self.classes] + [9])
        header = ["metric".ljust(12)] + [c.rjust(width) for c in self.classes]
        header.append("avg".rjust(width))
        lines = ["  ".join(header)]
        for _name, label, per_class, average in self.rows:
            cells = [label.ljust(12)]
            cells += [f"{per_class.get(c, float('nan')):.1f}".rjust(width) for c in self.classes]
            cells.append(f"{average:.1f}".rjust(width))
            lines.append("  ".join(cells))
        if self.confusion is not None:
            lines.append("")
            lines.append("retrieval confusion (rows: query class, % per retrieved class)")
            for label, values in zip(self.classes, self.confusion):
                cells = [label.ljust(12)] + [f"{v:.1f}".rjust(width) for v in values]
                lines.append("  ".join(cells))
        return "\n".join(lines)


def evaluate(collection: Collection, tubes: dict[str, Tube], graph: NeighborGraph) -> EvalReport:
    """Score localization when a video is annotated, and retrieval when a
    query key frame of a labeled video has a labeled neighbor: with none, a
    score is undefined."""
    labels = video_labels(collection)
    report = EvalReport(sorted(set(labels.values())),
                        [("corloc", "CorLoc", *corloc(tubes, collection))] if labels else [])
    if next(_frame_fractions(graph, labels), None):
        report.rows += [
            ("corret", "CorRet", *corret(graph, labels)),
            ("top1_error", "Top-1 err", *topk_error(graph, labels, 1)),
            ("top2_error", "Top-2 err", *topk_error(graph, labels, 2)),
        ]
        _classes, report.confusion = retrieval_confusion(graph, labels)
    return report
