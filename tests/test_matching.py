import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_rows,
    appearance_affinity,
    basis_vec,
    box_location,
    frame_appearance,
    geometry_likelihood,
    make_frame,
    rand_frame,
    rand_unit,
)
from tubeloc.matching import (
    BANDWIDTHS,
    LOG_SCALE_CENTERS,
    TRANSLATION_CENTERS,
    affinity_matrix,
    frame_saliencies,
    match_confidences,
    rescale_unit,
    standout_scores,
    strict_containers,
)
from tubeloc.model import Box, Config, Proposal, build_columns
from tubeloc.synth import brute_force_matching

CFG = Config()


def _proposal(pid, box, desc):
    return Proposal(pid, box, np.asarray(desc, dtype=float))


class TestAffinity:
    def test_identity(self):
        f = rand_unit(np.random.default_rng(0), 8)
        assert appearance_affinity(f, f, 1.0) == 1.0

    def test_orthogonal_unit_vectors(self):
        a, b = basis_vec(4, 0), basis_vec(4, 1)
        assert appearance_affinity(a, b, 1.0) == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_gamma_zero(self):
        rng = np.random.default_rng(1)
        assert appearance_affinity(rand_unit(rng, 6), rand_unit(rng, 6), 0.0) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            appearance_affinity(np.zeros(3), np.zeros(4), 1.0)

    def test_overflowing_exponent_vanishes(self):
        # at gamma 1e308 every squared distance above about 1.8 overflows
        # -gamma * d to -inf, whose exp is the limit 0; the finite products
        # keep their exp bit for bit
        descs = np.array([[0.0, 0.0], [1e-154, 0.0], [1.0, 0.0], [0.0, 1.0]])
        got = affinity_matrix(descs, descs, 1e308)
        d = ((descs[:, None, :] - descs[None, :, :]) ** 2).sum(axis=2).tolist()
        assert got.tolist() == [[math.exp(-1e308 * x) for x in row] for row in d]
        assert got[0, 1] == math.exp(-1e308 * 1e-308) and got[2, 3] == 0.0


class TestGeometryLikelihood:
    def test_peak_at_center(self):
        center = (TRANSLATION_CENTERS[3], TRANSLATION_CENTERS[5], LOG_SCALE_CENTERS[2])
        assert geometry_likelihood(center, center, BANDWIDTHS) == 1.0

    def test_one_bandwidth_away(self):
        center = np.array([0.0625, 0.0625, 0.0])
        offset = center + np.array([BANDWIDTHS[0], 0.0, 0.0])
        value = geometry_likelihood(offset, center, BANDWIDTHS)
        assert value == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_far_offset_negligible(self):
        value = geometry_likelihood((3.0, 0.0, 0.0), (0.0625, 0.0, 0.0), BANDWIDTHS)
        assert value < 1e-8


class TestBoxLocation:
    def test_whole_frame_box(self):
        loc = box_location(Box(0, 0, 320, 240), 320.0, 240.0)
        np.testing.assert_allclose(loc, [0.5, 0.5, 0.0], atol=1e-12)

    def test_quarter_area_scale(self):
        loc = box_location(Box(0, 0, 160, 120), 320.0, 240.0)
        assert loc[2] == pytest.approx(0.5 * math.log(0.25), abs=1e-12)


class TestHoughVotes:
    def test_identical_frames_peak_near_zero_offset(self):
        frame = make_frame(proposals=[_proposal(0, Box(50, 60, 80, 40), basis_vec(4, 0))])
        votes, _ = match_confidences(all_rows(frame), all_rows(frame), frame, frame, CFG)
        iu, iv, isc = np.unravel_index(np.argmax(votes), votes.shape)
        # zero lies on a shared bin edge of the even translation axes, so the
        # peak must sit in a bin whose center is nearest to zero
        assert abs(TRANSLATION_CENTERS[iu]) == np.min(np.abs(TRANSLATION_CENTERS))
        assert abs(TRANSLATION_CENTERS[iv]) == np.min(np.abs(TRANSLATION_CENTERS))
        assert abs(LOG_SCALE_CENTERS[isc]) == np.min(np.abs(LOG_SCALE_CENTERS))

    def test_grid_is_fixed_and_read_only(self):
        frame = make_frame(proposals=[_proposal(0, Box(50, 60, 80, 40), basis_vec(4, 0))])
        votes, _ = match_confidences(all_rows(frame), all_rows(frame), frame, frame, CFG)
        assert votes.shape == (16, 16, 7)
        for centers in (TRANSLATION_CENTERS, LOG_SCALE_CENTERS):
            with pytest.raises(ValueError):
                centers[0] = 0.0

    def test_vanishing_affinity_empties_grid(self):
        a = make_frame(proposals=[_proposal(0, Box(10, 10, 30, 30), basis_vec(4, 0))])
        b = make_frame(proposals=[_proposal(0, Box(10, 10, 30, 30), basis_vec(4, 1))])
        cfg = Config(affinity_gamma=500.0)
        votes, _ = match_confidences(all_rows(a), all_rows(b), a, b, cfg)
        assert votes.max() < 1e-200

    def test_empty_set_rejected(self):
        frame = make_frame(proposals=[_proposal(0, Box(0, 0, 10, 10), basis_vec(4, 0))])
        with pytest.raises(ValueError):
            match_confidences([], all_rows(frame), frame, frame, CFG)
        with pytest.raises(ValueError):
            match_confidences(all_rows(frame), [], frame, frame, CFG)

    def test_votes_nonnegative(self):
        rng = np.random.default_rng(7)
        a, b = rand_frame(rng, "a", 5), rand_frame(rng, "b", 4)
        votes, _ = match_confidences(all_rows(a), all_rows(b), a, b, CFG)
        assert np.all(votes >= 0)


class TestMatchConfidences:
    def test_single_pair_closed_form(self):
        rng = np.random.default_rng(2)
        a = make_frame("a", proposals=[_proposal(0, Box(20, 30, 60, 50), rand_unit(rng, 8))])
        b = make_frame("b", proposals=[_proposal(0, Box(90, 40, 70, 45), rand_unit(rng, 8))])
        _, scores = match_confidences(all_rows(a), all_rows(b), a, b, CFG)

        # independent evaluation: c = affinity^2 * sum_x likelihood(x)^2
        affinity = appearance_affinity(a.proposals[0].descriptor, b.proposals[0].descriptor, 1.0)
        offset = box_location(a.proposals[0].box, a.width, a.height) - box_location(
            b.proposals[0].box, b.width, b.height)
        total = 0.0
        for cu in TRANSLATION_CENTERS:
            for cv in TRANSLATION_CENTERS:
                for cs in LOG_SCALE_CENTERS:
                    total += geometry_likelihood(offset, (cu, cv, cs), BANDWIDTHS) ** 2
        expected = affinity**2 * total
        assert scores[0, 0] == pytest.approx(expected, rel=1e-10)

    def test_identical_frames_self_match_maximizes_row(self):
        rng = np.random.default_rng(3)
        frame = rand_frame(rng, "a", 6)
        _, scores = match_confidences(all_rows(frame), all_rows(frame), frame, frame, CFG)
        assert np.array_equal(np.argmax(scores, axis=1), np.arange(6))

    def test_zero_affinity_zero_confidence(self):
        a = make_frame("a", proposals=[
            _proposal(0, Box(10, 10, 30, 30), basis_vec(4, 0)),
            _proposal(1, Box(60, 60, 30, 30), basis_vec(4, 0)),
        ])
        b = make_frame("b", proposals=[
            _proposal(0, Box(10, 10, 30, 30), basis_vec(4, 0)),
            _proposal(1, Box(60, 60, 30, 30), basis_vec(4, 1)),
        ])
        cfg = Config(affinity_gamma=400.0)
        _, scores = match_confidences(all_rows(a), all_rows(b), a, b, cfg)
        # the orthogonal descriptor pair carries an exp(-800) affinity factor
        assert scores[1, 1] < 1e-300
        assert scores[0, 0] > 0

    def test_swap_symmetry(self):
        rng = np.random.default_rng(4)
        a, b = rand_frame(rng, "a", 5), rand_frame(rng, "b", 7)
        _, s_ab = match_confidences(all_rows(a), all_rows(b), a, b, CFG)
        _, s_ba = match_confidences(all_rows(b), all_rows(a), b, a, CFG)
        np.testing.assert_allclose(s_ab, s_ba.T, rtol=1e-12, atol=1e-280)


class TestSaliency:
    def test_single_neighbor_single_proposal(self):
        rng = np.random.default_rng(5)
        frame = rand_frame(rng, "a", 3)
        neighbor = rand_frame(rng, "b", 4)
        _, scores = match_confidences(all_rows(frame), [2], frame, neighbor, CFG)
        g = frame_saliencies(frame, [(neighbor, np.array([2]))], CFG)
        np.testing.assert_allclose(g, scores[:, 0], rtol=1e-15)

    def test_proposal_pool_equals_its_rows(self):
        rng = np.random.default_rng(9)
        frame = rand_frame(rng, "a", 5)
        neighbor = rand_frame(rng, "b", 6)
        rows = np.array([4, 1, 3])
        pool = [neighbor.proposals[r] for r in rows]
        np.testing.assert_array_equal(frame_saliencies(frame, [(neighbor, pool)], CFG),
                                      frame_saliencies(frame, [(neighbor, rows)], CFG))

    def test_duplicated_neighbor_doubles(self):
        rng = np.random.default_rng(6)
        frame = rand_frame(rng, "a", 4)
        neighbor = rand_frame(rng, "b", 4)
        once = frame_saliencies(frame, [(neighbor, neighbor.proposals)], CFG)
        twice = frame_saliencies(
            frame, [(neighbor, neighbor.proposals)] * 2, CFG)
        np.testing.assert_allclose(twice, 2 * once, rtol=1e-12)

    def test_three_neighbors_match_bruteforce_max_sum(self):
        rng = np.random.default_rng(7)
        frame = rand_frame(rng, "a", 4)
        pools = [(rand_frame(rng, f"b{i}", 3 + i), None) for i in range(3)]
        pools = [(fr, fr.proposals) for fr, _ in pools]
        expected = np.zeros(4)
        for neighbor, pool in pools:
            _, scores = match_confidences(all_rows(frame), all_rows(neighbor), frame, neighbor,
                                          CFG)
            for i in range(4):
                expected[i] += max(scores[i, j] for j in range(len(pool)))
        np.testing.assert_allclose(frame_saliencies(frame, pools, CFG), expected, rtol=1e-12)

    def test_monotone_in_neighbors(self):
        rng = np.random.default_rng(8)
        frame = rand_frame(rng, "a", 5)
        pools = [(rand_frame(rng, f"b{i}", 4), None) for i in range(3)]
        pools = [(fr, fr.proposals) for fr, _ in pools]
        g2 = frame_saliencies(frame, pools[:2], CFG)
        g3 = frame_saliencies(frame, pools, CFG)
        assert np.all(g3 >= g2)

    def test_empty_neighbor_list_sums_to_zeros(self):
        # the bits appearance_confidence's own empty-list branch once returned
        rng = np.random.default_rng(10)
        frame = rand_frame(rng, "a", 2)
        saliency = frame_saliencies(frame, [], CFG)
        assert saliency.dtype == np.float64
        assert saliency.tobytes() == np.zeros(len(frame.proposals)).tobytes()


def _rows(boxes) -> np.ndarray:
    return np.array([b.as_list() for b in boxes])


class TestContainment:
    """Each case is an input to the n x n ``strict_containers`` matrix."""

    def test_strict_containment_excludes_self(self):
        box = Box(0, 0, 10, 10)
        assert not strict_containers(_rows([box, box])).any()

    def test_nested_box_contained(self):
        contains = strict_containers(_rows([Box(10, 10, 20, 20), Box(0, 0, 100, 100)]))
        np.testing.assert_array_equal(contains, [[False, True], [False, False]])

    def test_tolerant_boundary(self):
        inner = Box(0, 0, 100, 100)
        almost = Box(0.5, 0.5, 100, 100)  # covers 99.0025% of inner but barely larger
        bigger = Box(-2, -2, 104, 104)
        contains = strict_containers(_rows([inner, almost, bigger]))
        assert not contains[0, 1]  # fails the 1% growth test
        assert contains[0, 2]

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(14)
        frame = rand_frame(rng, "a", 30)
        boxes = [p.box for p in frame.proposals]
        # nested copies make containment common
        boxes += [Box(b.x_min + 1, b.y_min + 1, 0.5 * b.width, 0.5 * b.height) for b in boxes]
        contains = strict_containers(_rows(boxes))
        for i, inner in enumerate(boxes):
            for j, outer in enumerate(boxes):
                expected = (j != i
                            and inner.intersection_area(outer) >= 0.99 * inner.area
                            and outer.area > inner.area * 1.01)
                assert contains[i, j] == expected
        saliency = rng.uniform(0.0, 5.0, len(boxes))
        raw = standout_scores(contains, saliency)
        for i in range(len(boxes)):
            background = max((saliency[j] for j in np.flatnonzero(contains[i])), default=0.0)
            assert raw[i] == saliency[i] - background

    def test_containers_matrix(self):
        boxes = [Box(0, 0, 100, 100), Box(10, 10, 20, 20), Box(12, 12, 10, 10)]
        contains = strict_containers(_rows(boxes))
        assert np.flatnonzero(contains[0]).tolist() == []
        assert np.flatnonzero(contains[1]).tolist() == [0]
        assert np.flatnonzero(contains[2]).tolist() == [0, 1]


class TestStandout:
    def test_no_container_keeps_saliency(self):
        boxes = _rows([Box(0, 0, 10, 10), Box(50, 50, 10, 10)])
        raw = standout_scores(strict_containers(boxes), np.array([3.0, 1.5]))
        np.testing.assert_allclose(raw, [3.0, 1.5])

    def test_container_can_push_negative(self):
        boxes = _rows([Box(0, 0, 100, 100), Box(10, 10, 20, 20)])
        raw = standout_scores(strict_containers(boxes), np.array([5.0, 2.0]))
        assert raw[1] == -3.0
        assert raw[0] == 5.0

    def test_rescale_cases(self):
        np.testing.assert_allclose(rescale_unit(np.array([-2.0, -1.0, 0.0])), [0.0, 0.5, 1.0])
        np.testing.assert_allclose(rescale_unit(np.array([4.0, 4.0, 4.0])), [0.0, 0.0, 0.0])

    def test_confidence_covers_unit_interval(self):
        rng = np.random.default_rng(11)
        frame = rand_frame(rng, "a", 6)
        neighbor = rand_frame(rng, "b", 6)
        phi_a, saliency = frame_appearance(frame, [(neighbor, neighbor.proposals)], CFG)
        assert phi_a.min() == 0.0
        assert phi_a.max() == 1.0
        assert np.all(saliency >= 0)

    def test_no_neighbors_all_zero(self):
        rng = np.random.default_rng(12)
        frame = rand_frame(rng, "a", 3)
        phi_a, saliency = frame_appearance(frame, [], CFG)
        assert np.all(phi_a == 0) and np.all(saliency == 0)


class TestOracleEquivalenceToy:
    def test_two_by_two_matches_naive_double_loop(self):
        rng = np.random.default_rng(13)
        a, b = rand_frame(rng, "a", 2), rand_frame(rng, "b", 2)
        expected_votes, expected_scores = brute_force_matching(a.proposals, b.proposals, a, b,
                                                               CFG)
        votes, scores = match_confidences(all_rows(a), all_rows(b), a, b, CFG)
        np.testing.assert_allclose(votes, expected_votes, rtol=1e-12, atol=1e-280)
        np.testing.assert_allclose(scores, expected_scores, rtol=1e-12, atol=1e-280)


def _assert_matches_oracle(a, b, cfg=CFG):
    expected_votes, expected_scores = brute_force_matching(a.proposals, b.proposals, a, b, cfg)
    votes, scores = match_confidences(all_rows(a), all_rows(b), a, b, cfg)
    np.testing.assert_allclose(votes, expected_votes, rtol=1e-12, atol=1e-280)
    np.testing.assert_allclose(scores, expected_scores, rtol=1e-12, atol=1e-280)


class TestBlockedKernel:
    """Each frame pair is matched in one pass over its whole table; checked
    against the oracle at fixed shapes from 1 to 2,400 pairs. 28 x 28 is the
    784-pair table of a ``wide`` saliency matching; 40 x 60 lies above the
    ~512-pair size where single-threaded OpenBLAS switches the vote
    product's kernel."""

    def test_one_by_one(self):
        rng = np.random.default_rng(20)
        _assert_matches_oracle(rand_frame(rng, "a", 1), rand_frame(rng, "b", 1))

    @pytest.mark.parametrize("shape", [(1, 127), (8, 16), (129, 1)])
    def test_pair_counts_around_one_block(self, shape):
        rng = np.random.default_rng(21)
        _assert_matches_oracle(rand_frame(rng, "a", shape[0]), rand_frame(rng, "b", shape[1]))

    def test_pair_spanning_several_blocks(self):
        rng = np.random.default_rng(22)
        _assert_matches_oracle(rand_frame(rng, "a", 23), rand_frame(rng, "b", 19))

    def test_wide_table(self):
        rng = np.random.default_rng(24)
        _assert_matches_oracle(rand_frame(rng, "a", 28), rand_frame(rng, "b", 28))

    def test_table_above_blas_block(self):
        rng = np.random.default_rng(25)
        _assert_matches_oracle(rand_frame(rng, "a", 40), rand_frame(rng, "b", 60))

    def test_paper_scale_table_peak_memory(self):
        # 104 proposals a side, the paper's count: the traced peak stays below
        # two (s*u, M) float64 arrays, so g_su is the only one a table holds
        rng = np.random.default_rng(26)
        a, b = rand_frame(rng, "a", 104), rand_frame(rng, "b", 104)
        rows_a, rows_b = all_rows(a), all_rows(b)
        match_confidences(rows_a, rows_b, a, b, CFG)  # builds the frames' columns
        tracemalloc.start()
        try:
            match_confidences(rows_a, rows_b, a, b, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outer_product = 104 * 104 * len(LOG_SCALE_CENTERS) * len(TRANSLATION_CENTERS) * 8
        assert peak < 2 * outer_product


class TestStackedKernel:
    """(T, n_t) and (T, n_u) rows into a ``Columns`` stack match T tables in
    one pass, and each table's votes and scores are bit for bit those of its
    own 1-D rows, with or without a buffer for the outer product."""

    @settings(max_examples=60, deadline=None)
    @given(tables=st.integers(1, 6), n_t=st.integers(1, 12), n_u=st.integers(1, 12),
           gamma=st.sampled_from([0.0, 1.0, 1e308]), seed=st.integers(0, 2 ** 16))
    def test_each_table_is_its_own_match(self, tables, n_t, n_u, gamma, seed):
        rng = np.random.default_rng(seed)
        frames = [rand_frame(rng, f"v{i}", 12, dim=8) for i in range(4)]
        columns = build_columns(frames)
        config = Config(affinity_gamma=gamma)
        picks = [(rng.integers(4), rng.choice(12, n_t, replace=False),
                  rng.integers(4), rng.choice(12, n_u, replace=False)) for _ in range(tables)]
        rows_t = np.array([columns.starts[f] + rows for f, rows, _, _ in picks])
        rows_u = np.array([columns.starts[f] + rows for _, _, f, rows in picks])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowing exponent warns nothing
            votes, scores = match_confidences(rows_t, rows_u, columns, columns, config)
            # a reused buffer for the outer product, larger than needed and dirty
            out = np.full(tables * n_t * n_u * len(LOG_SCALE_CENTERS)
                          * len(TRANSLATION_CENTERS) + 7, np.nan)
            in_out = match_confidences(rows_t, rows_u, columns, columns, config, out)
            singles = [match_confidences(t, u, frames[f_t], frames[f_u], config)
                       for f_t, t, f_u, u in picks]
        assert votes.shape == (tables, len(TRANSLATION_CENTERS), len(TRANSLATION_CENTERS),
                               len(LOG_SCALE_CENTERS))
        assert scores.shape == (tables, n_t, n_u)
        assert in_out[0].tobytes() == votes.tobytes() and in_out[1].tobytes() == scores.tobytes()
        for i, (one_votes, one_scores) in enumerate(singles):
            assert votes[i].tobytes() == one_votes.tobytes()
            assert scores[i].tobytes() == one_scores.tobytes()


_THREADED_MATCH = """
import hashlib
import numpy as np
from helpers import all_rows, rand_frame
from tubeloc.matching import match_confidences
from tubeloc.model import Config

rng = np.random.default_rng(23)
a, b = rand_frame(rng, "a", 40, dim=32), rand_frame(rng, "b", 60, dim=32)
votes, scores = match_confidences(all_rows(a), all_rows(b), a, b, Config())
print(hashlib.sha256(scores.tobytes() + votes.tobytes()).hexdigest())
"""


def test_identical_bytes_across_blas_thread_counts():
    tests_dir = Path(__file__).resolve().parent
    path = [str(tests_dir), str(tests_dir.parent / "src")] + sys.path
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(path))
        run = subprocess.run([sys.executable, "-c", _THREADED_MATCH], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout.strip())
    assert digests[0] == digests[1]
