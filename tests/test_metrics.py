import numpy as np
import pytest

from tubeloc.metrics import (
    corloc,
    corret,
    evaluate,
    iou,
    retrieval_confusion,
    topk_error,
    video_labels,
)
from tubeloc.model import (
    Box,
    Collection,
    Frame,
    GroundTruth,
    NeighborGraph,
    Proposal,
    Tube,
    ValidationError,
    Video,
)


class TestIou:
    def test_identical(self):
        assert iou(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 10, 10), Box(50, 50, 10, 10)) == 0.0

    def test_hand_case_one_third(self):
        assert iou(Box(0, 0, 10, 10), Box(5, 0, 10, 10)) == pytest.approx(1 / 3)

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = Box(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(1, 40), rng.uniform(1, 40))
            b = Box(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(1, 40), rng.uniform(1, 40))
            assert iou(a, b) == iou(b, a)
            s = rng.uniform(0.5, 4.0)
            sa = Box(s * a.x_min, s * a.y_min, s * a.width, s * a.height)
            sb = Box(s * b.x_min, s * b.y_min, s * b.width, s * b.height)
            assert iou(sa, sb) == pytest.approx(iou(a, b), abs=1e-12)


def _single_frame_collection(predictions: dict[str, Box], truths: dict[str, tuple[Box, str]]):
    collection = Collection(1, 1)
    tubes = {}
    for vid, pred_box in predictions.items():
        frame = Frame(vid, 0, 1000.0, 1000.0,
                      [Proposal(0, pred_box, np.array([1.0]))], np.zeros(1))
        collection.videos[vid] = Video(vid, 1, {0: frame})
        tubes[vid] = Tube(vid, {0: 0})
    for vid, (box, label) in truths.items():
        collection.ground_truths[vid] = GroundTruth(vid, 0, box, label)
    return collection, tubes


class TestCorLoc:
    def test_exact_prediction_correct(self):
        box = Box(10, 10, 50, 50)
        collection, tubes = _single_frame_collection({"v": box}, {"v": (box, "cat")})
        per_class, avg = corloc(tubes, collection)
        assert per_class == {"cat": 100.0}
        assert avg == 100.0

    def test_exactly_half_iou_is_incorrect(self):
        pred = Box(0, 0, 10, 10)
        truth = Box(0, 0, 10, 5)  # IoU exactly 0.5; the criterion is strict
        assert iou(pred, truth) == 0.5
        collection, tubes = _single_frame_collection({"v": pred}, {"v": (truth, "cat")})
        _, avg = corloc(tubes, collection)
        assert avg == 0.0

    def test_macro_average_over_classes(self):
        box = Box(0, 0, 10, 10)
        off = Box(500, 500, 10, 10)
        collection, tubes = _single_frame_collection(
            {"v1": box, "v2": off},
            {"v1": (box, "cat"), "v2": (box, "dog")},
        )
        per_class, avg = corloc(tubes, collection)
        assert per_class == {"cat": 100.0, "dog": 0.0}
        assert avg == 50.0

    def test_missing_prediction_rejected(self):
        box = Box(0, 0, 10, 10)
        collection, tubes = _single_frame_collection({"v": box}, {"v": (box, "cat")})
        del tubes["v"]
        with pytest.raises(ValidationError, match="no predicted tube"):
            corloc(tubes, collection)

    def test_interpolated_frame_judged(self, noise_free_bundle, noise_free_run):
        collection, _planted, _ = noise_free_bundle
        result, _ = noise_free_run
        tubes = {vid: sol.tube for vid, sol in result.tubes.items()}
        _, avg = corloc(tubes, collection)
        assert avg == 100.0


def _graph(entries: dict[tuple[str, int], list[tuple[str, int, float]]]) -> NeighborGraph:
    return NeighborGraph({
        ref: [((nvid, nt), sim) for nvid, nt, sim in neighbors]
        for ref, neighbors in entries.items()
    })


LABELS = {"a1": "cat", "a2": "cat", "b1": "dog", "b2": "dog"}


class TestCorRet:
    def test_unanimous(self):
        graph = _graph({("a1", 0): [("a2", 0, 1.0), ("a2", 20, 0.9)]})
        per_class, avg = corret(graph, LABELS)
        assert per_class == {"cat": 100.0}
        assert avg == 100.0

    def test_fraction(self):
        neighbors = [("a2", 0, 1.0)] * 4 + [("b1", 0, 1.0)] * 6
        graph = _graph({("a1", 0): neighbors})
        per_class, _ = corret(graph, LABELS)
        assert per_class == {"cat": 40.0}

    def test_frame_then_class_averaging(self):
        graph = _graph({
            ("a1", 0): [("a2", 0, 1.0), ("b1", 0, 1.0)],   # 50%
            ("a2", 0): [("a1", 0, 1.0)],                   # 100%
        })
        per_class, _ = corret(graph, LABELS)
        assert per_class == {"cat": 75.0}


class TestTopkError:
    def test_unanimous_top1(self):
        graph = _graph({
            ("a1", 0): [("a2", 0, 1.0)],
            ("a1", 20): [("a2", 20, 1.0)],
        })
        per_class, avg = topk_error(graph, {"a1": "cat", "a2": "cat"}, 1)
        assert per_class == {"cat": 0.0}
        assert avg == 0.0

    def test_true_label_ranked_second(self):
        neighbors = [("b1", 0, 1.0)] * 3 + [("a2", 0, 1.0)] * 2
        graph = _graph({("a1", 0): neighbors})
        top1, _ = topk_error(graph, LABELS, 1)
        top2, _ = topk_error(graph, LABELS, 2)
        assert top1["cat"] == 100.0
        assert top2["cat"] == 0.0

    def test_count_tie_breaks_by_similarity(self):
        neighbors = [("b1", 0, 0.1), ("b1", 20, 0.1), ("a2", 0, 5.0), ("a2", 20, 5.0)]
        graph = _graph({("a1", 0): neighbors})
        top1, _ = topk_error(graph, LABELS, 1)
        assert top1["cat"] == 0.0  # cat wins the 2-2 tie on summed similarity

    def test_top2_never_exceeds_top1(self):
        rng = np.random.default_rng(1)
        vids = [f"v{i}" for i in range(8)]
        labels = {vid: f"class{i % 3}" for i, vid in enumerate(vids)}
        for _ in range(10):
            entries = {}
            for vid in vids:
                neighbors = [
                    (other, 0, float(rng.uniform(0, 1)))
                    for other in rng.choice([w for w in vids if w != vid], size=5)
                ]
                entries[(vid, 0)] = neighbors
            graph = _graph(entries)
            _, avg1 = topk_error(graph, labels, 1)
            _, avg2 = topk_error(graph, labels, 2)
            assert avg2 <= avg1 + 1e-9


class TestConfusion:
    def test_diagonal_equals_corret(self):
        rng = np.random.default_rng(2)
        vids = [f"v{i}" for i in range(6)]
        labels = {vid: f"class{i % 2}" for i, vid in enumerate(vids)}
        entries = {}
        for vid in vids:
            others = [w for w in vids if w != vid]
            entries[(vid, 0)] = [
                (other, 0, float(rng.uniform(0, 1)))
                for other in rng.choice(others, size=4)
            ]
        graph = _graph(entries)
        classes, matrix = retrieval_confusion(graph, labels)
        per_class, _ = corret(graph, labels)
        for i, label in enumerate(classes):
            assert matrix[i, i] == pytest.approx(per_class[label], abs=1e-9)

    def test_rows_sum_to_hundred(self, noise_free_run, noise_free_bundle):
        collection, _, _ = noise_free_bundle
        result, _ = noise_free_run
        classes, matrix = retrieval_confusion(result.graph, video_labels(collection))
        for row in matrix:
            assert abs(row.sum() - 100.0) < 0.1

    def test_unlabeled_video_ignored(self):
        graph = _graph({
            ("a1", 0): [("a2", 0, 1.0), ("zz", 0, 9.0)],
            ("zz", 0): [("a1", 0, 1.0)],
        })
        labels = {"a1": "cat", "a2": "cat"}
        per_class, avg = corret(graph, labels)
        assert per_class == {"cat": 100.0}  # the unlabeled neighbor is skipped
        top1, _ = topk_error(graph, labels, 1)
        assert top1 == {"cat": 0.0}


class TestEvaluate:
    def test_full_report(self, noise_free_bundle, noise_free_run):
        collection, _, _ = noise_free_bundle
        result, _ = noise_free_run
        tubes = {vid: sol.tube for vid, sol in result.tubes.items()}
        report = evaluate(collection, tubes=tubes, graph=result.graph)
        assert [(name, average) for name, _label, _per_class, average in report.rows] == [
            ("corloc", 100.0), ("corret", 100.0), ("top1_error", 0.0), ("top2_error", 0.0)]
        text = report.table()
        assert "CorLoc" in text and "class0" in text
        assert len(report.to_records()) == 5

    @pytest.mark.parametrize("neighbors", [
        {("a1", 0): []},  # a one-video collection retrieves nothing
        {("a1", 0): [("zz", 0, 1.0)], ("zz", 0): [("a1", 0, 1.0)]},  # only unlabeled neighbors
    ])
    def test_no_labeled_neighbor_scores_no_retrieval(self, neighbors):
        # with no query key frame to score, a retrieval score is undefined,
        # not 0 % correct and 0 % error
        box = Box(10, 10, 100, 100)
        collection, tubes = _single_frame_collection(
            {vid: box for vid, _kf in neighbors}, {"a1": (box, "cat")})
        report = evaluate(collection, tubes=tubes, graph=_graph(neighbors))
        assert [(name, average) for name, _label, _per_class, average in report.rows] == [
            ("corloc", 100.0)]
        assert report.confusion is None
        assert [record["type"] for record in report.to_records()] == ["metric"]
        assert "confusion" not in report.table()

    def test_no_annotated_video_scores_no_localization(self):
        # with no annotation, CorLoc is undefined, not 0 %; nor is retrieval
        # scored, as no video has a label
        box = Box(10, 10, 100, 100)
        collection, tubes = _single_frame_collection({"a1": box, "b1": box}, {})
        graph = _graph({("a1", 0): [("b1", 0, 1.0)], ("b1", 0): [("a1", 0, 1.0)]})
        report = evaluate(collection, tubes=tubes, graph=graph)
        assert report.rows == [] and report.confusion is None
        assert report.to_records() == []
        assert "CorLoc" not in report.table()
