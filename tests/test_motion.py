import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import motion_coherence, shared_track_points
from tubeloc.model import Box, Track, Video
from tubeloc.motion import VideoTrackIndex, motion_coherence_many

NO_TRACKS = (np.empty(0, dtype=int), np.empty((0, 2)))


def frame_tracks(points_with_labels):
    """The (labels, xy) of one frame from (x, y, label) triples."""
    if not points_with_labels:
        return NO_TRACKS
    xy = np.array([[x, y] for x, y, _ in points_with_labels], dtype=float)
    labels = np.array([lab for _, _, lab in points_with_labels], dtype=int)
    return labels, xy


def phi(box: Box, points_with_labels) -> float:
    """Motion coherence of one box."""
    return float(motion_coherence_many(np.array([box.as_list()]),
                                       frame_tracks(points_with_labels))[0])


def grid_cluster(box: Box, label: int, side: int = 4):
    """Points of one cluster tiling the box, touching all four edges."""
    rel = np.linspace(0.0, 1.0, side)
    return [
        (box.x_min + rx * box.width, box.y_min + ry * box.height, label)
        for ry in rel
        for rx in rel
    ]


class TestEdgeBinLabels:
    """Which label each perimeter cell of the 5x5 grid takes, seen through
    the score of the edges that hold it."""

    def test_no_tracks_all_bins_empty(self):
        box = Box(0, 0, 50, 50)
        assert phi(box, []) == 0.0
        assert phi(box, [(25, 25, 0), (200, 200, 0)]) == 0.0  # interior or outside only

    def test_unanimous_cluster(self):
        box = Box(0, 0, 50, 50)
        assert phi(box, grid_cluster(box, label=2)) == 4.0

    def test_majority_vote(self):
        # the top-left cell holds labels {1, 1, 3}; three more 3s lie outside,
        # so label 1 weighs 1 and label 3 only 1/4 on the L and T edges
        pts = [(1, 1, 1), (2, 2, 1), (3, 3, 3)] + [(300, 300, 3)] * 3
        assert phi(Box(0, 0, 50, 50), pts) == 2.0

    def test_tie_breaks_to_smaller_label(self):
        # {5, 2} tie in the top-left cell: label 2 weighs 1/2, label 5 weighs 1
        pts = [(1, 1, 5), (2, 2, 2), (300, 300, 2)]
        assert phi(Box(0, 0, 50, 50), pts) == 1.0

    def test_corner_cells_shared_between_edges(self):
        box = Box(0, 0, 50, 50)
        assert phi(box, [(0, 0, 4)]) == 2.0  # top-left: L and T
        assert phi(box, [(50, 50, 4)]) == 2.0  # bottom-right, on the box edge: R and B
        assert phi(box, [(25, 0, 4)]) == 1.0  # middle of the top edge: T only


class TestClusterWeight:
    """The share of a cluster's frame points inside the box, seen through the
    score of the edges whose cells the cluster wins."""

    def test_full_inclusion(self):
        # a row of points through the top cells, reaching the L and R edges
        pts = [(10 * i, 10, 3) for i in range(1, 11)]
        assert phi(Box(0, 0, 100, 100), pts) == 3.0

    def test_half_inclusion(self):
        pts = [(1, 1, 3)] * 5 + [(500, 500, 3)] * 5
        assert phi(Box(0, 0, 10, 10), pts) == 1.0  # 1/2 on L and on T

    def test_zero_inclusion(self):
        outside = [(500, 500, 3)] * 10
        assert phi(Box(0, 0, 10, 10), outside) == 0.0
        assert phi(Box(0, 0, 10, 10), outside + [(1, 1, 1)]) == 2.0

    def test_absent_cluster_weight_zero(self):
        # clusters with no point in the box neither win cells nor dilute others
        box = Box(0, 0, 10, 10)
        alone = phi(box, [(1, 1, 1)])
        assert alone == 2.0
        assert phi(box, [(1, 1, 1), (500, 500, 9), (600, 600, 0)]) == alone


class TestMotionCoherence:
    def test_tight_box_around_full_cluster_scores_four(self):
        box = Box(10, 20, 60, 40)
        assert phi(box, grid_cluster(box, label=0)) == 4.0

    def test_no_tracks_scores_zero(self):
        boxes = np.array([[0.0, 0.0, 10.0, 10.0], [5.0, 5.0, 1.0, 2.0]])
        np.testing.assert_array_equal(motion_coherence_many(boxes, NO_TRACKS), [0.0, 0.0])
        assert motion_coherence_many(np.empty((0, 4)), frame_tracks([(1, 1, 0)])).shape == (0,)

    def test_half_cluster_on_all_edges_scores_two(self):
        box = Box(0, 0, 10, 10)
        inside = [(0, 0, 0), (10, 0, 0), (0, 10, 0), (10, 10, 0), (5, 5, 0)]
        outside = [(400 + i, 400, 0) for i in range(5)]
        assert phi(box, inside + outside) == pytest.approx(2.0)

    def test_range_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            pts = [
                (rng.uniform(0, 200), rng.uniform(0, 200), int(rng.integers(0, 4)))
                for _ in range(int(rng.integers(0, 40)))
            ]
            box = Box(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(5, 80),
                      rng.uniform(5, 80))
            assert 0.0 <= phi(box, pts) <= 4.0

    def test_weight_monotone_under_box_growth(self):
        # one cluster dense enough to occupy every perimeter cell of both
        # boxes, so each box scores four times its cluster weight
        pts = [(x, y, 0) for x in range(0, 101, 5) for y in range(0, 101, 5)]
        small = phi(Box(20, 20, 30, 30), pts)
        large = phi(Box(10, 10, 60, 60), pts)
        assert small == pytest.approx(4 * 49 / 441)
        assert large == pytest.approx(4 * 169 / 441)
        assert large >= small

    def test_scale_invariance(self):
        box = Box(10, 20, 60, 40)
        pts = grid_cluster(box, 0) + [(5, 5, 1), (90, 90, 1)]
        scaled = [(3.5 * x, 3.5 * y, lab) for x, y, lab in pts]
        big_box = Box(3.5 * 10, 3.5 * 20, 3.5 * 60, 3.5 * 40)
        assert phi(box, pts) == pytest.approx(phi(big_box, scaled), abs=1e-12)

    def test_translated_out_cluster_contributes_nothing(self):
        box = Box(0, 0, 10, 10)
        near = grid_cluster(box, 0)
        moved = [(x + 1000, y + 1000, 0) for x, y, _ in near]
        assert phi(box, moved) == 0.0

    def test_many_matches_singles(self):
        rng = np.random.default_rng(6)
        pts = [(rng.uniform(0, 100), rng.uniform(0, 100), int(rng.integers(0, 3)))
               for _ in range(30)]
        boxes = [Box(10, 10, 40, 40), Box(0, 0, 99, 99)]
        np.testing.assert_array_equal(
            motion_coherence_many(np.array([b.as_list() for b in boxes]), frame_tracks(pts)),
            [phi(b, pts) for b in boxes],
        )


# Coordinates on an eighth-pixel grid put points exactly on cell and box
# edges, where the inclusive tests and the cell rounding decide.
_eighths = st.integers(0, 8 * 40).map(lambda v: v / 8)
_sides = st.integers(1, 8 * 40).map(lambda v: v / 8)


@st.composite
def _frames(draw):
    boxes = draw(st.lists(st.tuples(_eighths, _eighths, _sides, _sides), max_size=6))
    points = draw(st.lists(st.tuples(_eighths, _eighths, st.integers(0, 3)), max_size=40))
    return [Box(*b) for b in boxes], points


@settings(max_examples=200, deadline=None)
@given(_frames())
@example(([Box(0, 0, 10, 10)], [(2, 0, 1), (2, 0, 0), (10, 10, 2), (8, 6, 2), (0, 4, 3)]))
def test_motion_coherence_many_equals_scalar_reference(frame):
    boxes, points = frame
    labels, xy = frame_tracks(points)
    rows = np.array([b.as_list() for b in boxes], dtype=float).reshape(-1, 4)
    expected = [motion_coherence(b, labels, xy) for b in boxes]
    assert motion_coherence_many(rows, (labels, xy)).tolist() == expected


def test_motion_coherence_many_equals_scalar_reference_on_real_coordinates():
    rng = np.random.default_rng(12)
    for _ in range(100):
        labels = rng.integers(0, 5, size=int(rng.integers(0, 60)))
        xy = rng.uniform(0, 320, size=(labels.size, 2))
        boxes = [Box(*rng.uniform(0, 200, 2), *rng.uniform(1, 150, 2))
                 for _ in range(int(rng.integers(1, 10)))]
        rows = np.array([b.as_list() for b in boxes])
        assert motion_coherence_many(rows, (labels, xy)).tolist() == \
            [motion_coherence(b, labels, xy) for b in boxes]


class TestVideoTrackIndex:
    def test_per_frame_views(self):
        tracks = [
            Track(0, 0, 0, np.array([[1.0, 1.0], [2.0, 2.0]])),
            Track(1, 1, 1, np.array([[5.0, 5.0], [6.0, 6.0]])),
        ]
        at = VideoTrackIndex(Video("v", 3, {}, tracks), [0, 1, 2, 99]).at
        assert [labels.size for labels, _xy in at] == [1, 2, 1, 0]
        labels, xy = at[1]
        assert labels.tolist() == [0, 1]
        assert xy.tolist() == [[2.0, 2.0], [5.0, 5.0]]
        assert at[3][1].shape == (0, 2)

    def test_no_tracks(self):
        index = VideoTrackIndex(Video("v", 3, {}, []), [0, 2])
        [(labels, xy), _], [shared] = index.at, index.shared
        assert labels.size == 0 and xy.shape == (0, 2)
        assert [p.shape for p in shared] == [(0, 2), (0, 2)]

    def test_matches_per_track_loops(self):
        rng = np.random.default_rng(8)
        num_frames = 30
        tracks = []
        for tid in range(25):
            start = int(rng.integers(0, num_frames))
            length = int(rng.integers(1, num_frames - start + 1))
            tracks.append(Track(tid, int(rng.integers(0, 4)), start,
                                rng.uniform(0, 100, size=(length, 2))))
        video = Video("v", num_frames, {}, tracks)
        frames = list(range(-1, num_frames + 1))
        at = VideoTrackIndex(video, frames).at
        for a, (labels, xy) in zip(frames, at):
            alive = [tr for tr in tracks if tr.start_frame <= a < tr.start_frame + len(tr.points)]
            assert labels.tolist() == [tr.cluster_label for tr in alive]
            np.testing.assert_array_equal(xy, shared_track_points(video, a, a)[0])
            for b in frames:
                [shared] = VideoTrackIndex(video, [a, b]).shared
                for got, want in zip(shared, shared_track_points(video, a, b)):
                    np.testing.assert_array_equal(got, want)
