import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import motion_consistency, rand_unit
from tubeloc.consistency import (
    appearance_consistency_matrix,
    consistency_matrix,
    kept_consistency,
    motion_consistency_matrix,
)
from tubeloc.model import Box

THETA = -2.0


def _rows(boxes) -> np.ndarray:
    return np.array([b.as_list() for b in boxes])


class TestAppearanceConsistency:
    def test_identical_pair_is_best(self):
        f = rand_unit(np.random.default_rng(0), 8)
        g = rand_unit(np.random.default_rng(1), 8)
        matrix = appearance_consistency_matrix(np.stack([f, g]), np.stack([f]))
        assert matrix[0, 0] == 1.0
        assert matrix[1, 0] == 0.0

    def test_degenerate_all_equal(self):
        f = rand_unit(np.random.default_rng(2), 5)
        matrix = appearance_consistency_matrix(np.stack([f, f]), np.stack([f, f]))
        np.testing.assert_array_equal(matrix, np.zeros((2, 2)))

    def test_affine_rescale_of_three_raw_values(self):
        # distances 2, 1, 0 -> raw {-2, -1, 0} -> rescaled {0, 0.5, 1}
        a = np.array([[1.0, 0.0]])
        b = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        matrix = appearance_consistency_matrix(a, b)
        np.testing.assert_allclose(matrix[0], [0.0, 0.5, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            appearance_consistency_matrix(np.zeros((1, 3)), np.zeros((1, 4)))


class TestMotionConsistency:
    def test_identical_boxes_static_tracks(self):
        box = Box(0, 0, 10, 10)
        pts = np.array([[2.0, 2.0], [7.0, 7.0]])
        assert motion_consistency(box, box, pts, pts, THETA) == 0.0

    def test_no_shared_tracks_yields_theta(self):
        a, b = Box(0, 0, 10, 10), Box(100, 100, 10, 10)
        pts = np.array([[2.0, 2.0]])
        assert motion_consistency(a, b, pts, pts, THETA) == THETA
        assert motion_consistency(a, b, np.empty((0, 2)), np.empty((0, 2)), THETA) == THETA

    def test_opposite_corners_give_minus_one(self):
        a, b = Box(0, 0, 10, 10), Box(0, 0, 10, 10)
        pts_a = np.array([[0.0, 0.0]])
        pts_b = np.array([[10.0, 10.0]])
        assert motion_consistency(a, b, pts_a, pts_b, THETA) == -1.0

    def test_range_when_shared(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = Box(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(5, 60), rng.uniform(5, 60))
            b = Box(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(5, 60), rng.uniform(5, 60))
            n = int(rng.integers(1, 10))
            pts_a = np.column_stack([
                rng.uniform(a.x_min, a.x_max, n), rng.uniform(a.y_min, a.y_max, n)])
            pts_b = np.column_stack([
                rng.uniform(b.x_min, b.x_max, n), rng.uniform(b.y_min, b.y_max, n)])
            value = motion_consistency(a, b, pts_a, pts_b, THETA)
            assert -1.0 <= value <= 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = Box(0, 0, 20, 30)
        b = Box(5, 5, 25, 15)
        pts_a = np.column_stack([rng.uniform(0, 20, 6), rng.uniform(0, 30, 6)])
        pts_b = np.column_stack([rng.uniform(5, 30, 6), rng.uniform(5, 20, 6)])
        assert motion_consistency(a, b, pts_a, pts_b, THETA) == pytest.approx(
            motion_consistency(b, a, pts_b, pts_a, THETA), abs=1e-12
        )

    def test_invariant_under_joint_axis_scaling(self):
        rng = np.random.default_rng(5)
        a = Box(2, 3, 10, 12)
        b = Box(4, 1, 8, 14)
        pts_a = np.column_stack([rng.uniform(2, 12, 5), rng.uniform(3, 15, 5)])
        pts_b = np.column_stack([rng.uniform(4, 12, 5), rng.uniform(1, 15, 5)])
        base = motion_consistency(a, b, pts_a, pts_b, THETA)
        for _ in range(5):
            sx, sy = rng.uniform(0.2, 5.0, size=2)
            tx, ty = rng.uniform(-50, 50, size=2)

            def warp_box(box):
                return Box(sx * box.x_min + tx, sy * box.y_min + ty,
                           sx * box.width, sy * box.height)

            def warp_pts(pts):
                return np.column_stack([sx * pts[:, 0] + tx, sy * pts[:, 1] + ty])

            warped = motion_consistency(warp_box(a), warp_box(b),
                                        warp_pts(pts_a), warp_pts(pts_b), THETA)
            assert warped == pytest.approx(base, abs=1e-9)


class TestMotionConsistencyMatrix:
    def test_matches_single_pair_implementation(self):
        rng = np.random.default_rng(6)
        boxes_a = [Box(rng.uniform(0, 40), rng.uniform(0, 40), rng.uniform(10, 50),
                       rng.uniform(10, 50)) for _ in range(4)]
        boxes_b = [Box(rng.uniform(0, 40), rng.uniform(0, 40), rng.uniform(10, 50),
                       rng.uniform(10, 50)) for _ in range(5)]
        pts_a = np.column_stack([rng.uniform(0, 90, 30), rng.uniform(0, 90, 30)])
        pts_b = pts_a + rng.normal(0, 3, size=pts_a.shape)
        matrix = motion_consistency_matrix(_rows(boxes_a), _rows(boxes_b), pts_a, pts_b, THETA)
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert matrix[i, j] == pytest.approx(
                    motion_consistency(a, b, pts_a, pts_b, THETA), abs=1e-12
                )

    def test_no_tracks_full_theta(self):
        matrix = motion_consistency_matrix(
            _rows([Box(0, 0, 1, 1)]), _rows([Box(0, 0, 1, 1), Box(2, 2, 1, 1)]),
            np.empty((0, 2)), np.empty((0, 2)), THETA)
        np.testing.assert_array_equal(matrix, np.full((1, 2), THETA))


class TestCombined:
    def test_sum_of_terms(self):
        rng = np.random.default_rng(7)
        boxes_a = _rows([Box(0, 0, 10, 10), Box(5, 5, 10, 10)])
        boxes_b = _rows([Box(0, 0, 10, 10)])
        descs_a = np.stack([rand_unit(rng, 6) for _ in range(2)])
        descs_b = np.stack([rand_unit(rng, 6)])
        pts = np.array([[2.0, 2.0], [8.0, 8.0]])
        parts = consistency_matrix(descs_a, descs_b, boxes_a, boxes_b, pts, pts, THETA)
        total = kept_consistency(parts, np.arange(2), np.arange(1))
        expected = appearance_consistency_matrix(descs_a, descs_b) + \
            motion_consistency_matrix(boxes_a, boxes_b, pts, pts, THETA)
        np.testing.assert_array_equal(total, expected)

    @settings(max_examples=40, deadline=None)
    @given(n_a=st.integers(1, 12), n_b=st.integers(1, 12), tracks=st.integers(0, 300),
           seed=st.integers(0, 2 ** 16))
    def test_kept_rows_gather_bit_for_bit(self, n_a, n_b, tracks, seed):
        # any kept subset, in any order, equals both matrices of those rows
        # computed afresh; over 256 tracks the drift sum runs in chunks. A
        # lone pair is the exception: computed alone, numpy sums its tracks
        # pairwise instead of in track order, which can move the last bits
        rng = np.random.default_rng(seed)
        boxes_a = np.column_stack([rng.uniform(0, 40, (n_a, 2)), rng.uniform(10, 50, (n_a, 2))])
        boxes_b = np.column_stack([rng.uniform(0, 40, (n_b, 2)), rng.uniform(10, 50, (n_b, 2))])
        descs_a, descs_b = rng.normal(size=(n_a, 6)), rng.normal(size=(n_b, 6))
        pts_a = rng.uniform(0, 90, (tracks, 2))
        pts_b = pts_a + rng.normal(0, 3, size=pts_a.shape)
        parts = consistency_matrix(descs_a, descs_b, boxes_a, boxes_b, pts_a, pts_b, THETA)
        rows_a = rng.permutation(n_a)[:rng.integers(1, n_a + 1)]
        rows_b = rng.permutation(n_b)[:rng.integers(1, n_b + 1)]
        expected = (appearance_consistency_matrix(descs_a[rows_a], descs_b[rows_b])
                    + motion_consistency_matrix(boxes_a[rows_a], boxes_b[rows_b],
                                                pts_a, pts_b, THETA))
        kept = kept_consistency(parts, rows_a, rows_b)
        if kept.size > 1:
            assert kept.tobytes() == expected.tobytes()
        np.testing.assert_allclose(kept, expected, rtol=1e-12, atol=0)
