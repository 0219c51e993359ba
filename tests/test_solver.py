import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_trellis, remove_choice
from tubeloc.model import ValidationError
from tubeloc.solver import (
    Trellis,
    build_trellis,
    sequence_objective,
    solve_p_best,
)
from tubeloc.synth import brute_force_tube


def _no_pairwise(step, ids_a, ids_b):
    return np.zeros((ids_a.size, ids_b.size))


@st.composite
def _tied_trellises(draw):
    """Trellises whose unary and pairwise scores are small integers, so exact
    ties between candidates and between whole tubes are common."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    small = st.integers(-2, 2)

    def scores(*shape):
        count = int(np.prod(shape))
        return np.array(draw(st.lists(small, min_size=count, max_size=count)),
                        dtype=float).reshape(shape)

    ids = [np.array(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True)))
           for n in sizes]
    unary = [scores(n) for n in sizes]
    pairwise = [scores(a, b) for a, b in zip(sizes, sizes[1:])]
    lam = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    return Trellis("ties", list(range(len(sizes))), ids, unary, pairwise), lam


class TestBuildTrellis:
    def test_truncation_keeps_top_scores(self):
        rng = np.random.default_rng(0)
        scores = list(rng.uniform(0, 1, size=15))
        trellis = build_trellis("v", [0], [list(range(15))], [scores], 10, _no_pairwise)
        kept = set(trellis.candidate_ids[0].tolist())
        dropped_scores = [scores[i] for i in range(15) if i not in kept]
        assert trellis.candidate_count(0) == 10
        assert all(s <= trellis.unary[0].min() for s in dropped_scores)

    def test_tie_break_by_id(self):
        trellis = build_trellis("v", [0], [[5, 1, 9]], [[0.2, 0.9, 0.9]], 10, _no_pairwise)
        assert trellis.candidate_ids[0].tolist() == [1, 9, 5]
        np.testing.assert_allclose(trellis.unary[0], [0.9, 0.9, 0.2])

    def test_pairwise_gets_positions_and_ties_rank_by_id(self):
        seen = []

        def record(step, positions_a, positions_b):
            seen.append((step, positions_a.tolist(), positions_b.tolist()))
            return np.zeros((positions_a.size, positions_b.size))

        ids = [[40, 10, 30, 20, 50], [7, 3, 5, 9]]
        scores = [[0.5, 0.5, 0.9, 0.5, 0.1], [0.0, -0.0, 0.0, 0.2]]
        trellis = build_trellis("v", [0, 20], ids, scores, 3, record)
        assert trellis.candidate_ids[0].tolist() == [30, 10, 20]
        assert trellis.candidate_ids[1].tolist() == [9, 3, 5]
        assert seen == [(0, [2, 1, 3], [3, 1, 2])]

    def test_empty_frame_rejected(self):
        with pytest.raises(ValidationError, match="no candidates"):
            build_trellis("v", [0, 20], [[1], []], [[0.5], []], 10, _no_pairwise)

    def test_pairwise_shapes_checked(self):
        def bad(step, ids_a, ids_b):
            return np.zeros((1, 1))

        with pytest.raises(ValidationError, match="pairwise"):
            build_trellis("v", [0, 20], [[1, 2], [3]], [[0.5, 0.1], [0.2]], 10, bad)


# A valid two-frame trellis; each case below breaks one invariant of it.
_VALID_TRELLIS = dict(frame_indices=[0, 20], candidate_ids=[np.array([1, 2]), np.array([3])],
                      unary=[np.zeros(2), np.zeros(1)], pairwise=[np.zeros((2, 1))])


class TestTrellisInvariants:
    def test_valid_trellis_constructs(self):
        assert Trellis("v", **_VALID_TRELLIS).num_frames == 2

    @pytest.mark.parametrize("change, message", [
        (dict(frame_indices=[], candidate_ids=[], unary=[], pairwise=[]), " has no frames"),
        (dict(frame_indices=[20, 20]), ": frame indices must be strictly increasing"),
        (dict(unary=[np.zeros(2)]), ": per-frame arrays do not match the frame count"),
        (dict(pairwise=[]), ": expected one pairwise matrix per transition"),
        (dict(candidate_ids=[np.array([], dtype=int), np.array([3])],
              unary=[np.zeros(0), np.zeros(1)], pairwise=[np.zeros((0, 1))]),
         ": frame 0 retains no candidates"),
        (dict(candidate_ids=[np.array([1, 1]), np.array([3])]),
         ": duplicate candidate ids at frame 0"),
        (dict(unary=[np.zeros(2), np.zeros(2)]), ": unary shape mismatch at frame 20"),
        (dict(pairwise=[np.zeros((1, 2))]), ": pairwise shape mismatch at transition 0"),
    ], ids=["no_frames", "frame_order", "frame_count", "pairwise_count", "empty_frame",
            "duplicate_ids", "unary_shape", "pairwise_shape"])
    def test_malformed_trellis_rejected_on_construction(self, change, message):
        with pytest.raises(ValidationError) as err:
            Trellis("v", **dict(_VALID_TRELLIS, **change))
        assert str(err.value) == f"trellis of video v{message}"


class TestSolveBestTube:
    def test_single_frame_picks_max(self):
        trellis = build_trellis("v", [0], [[4, 7, 2]], [[0.1, 0.8, 0.3]], 10, _no_pairwise)
        sol = solve_p_best(trellis, 1, 2.0)[0]
        assert sol.tube.regions == {0: 7}
        assert sol.objective == pytest.approx(0.8)

    def test_lambda_zero_decouples_frames(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            trellis = random_trellis(rng)
            sol = solve_p_best(trellis, 1, 0.0)[0]
            for t, kf in enumerate(trellis.frame_indices):
                best = trellis.unary[t].max()
                winners = trellis.candidate_ids[t][trellis.unary[t] == best]
                assert sol.tube.regions[kf] == winners.min()

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(2)
        for trial in range(40):
            trellis = random_trellis(rng)
            lam = (0.0, 0.5, 2.0)[trial % 3]
            dp = solve_p_best(trellis, 1, lam)[0]
            bf = brute_force_tube(trellis, lam)
            assert dp.tube.regions == bf.tube.regions
            assert dp.objective == pytest.approx(bf.objective, abs=1e-9)

    def test_objective_matches_independent_recomputation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            trellis = random_trellis(rng)
            sol = solve_p_best(trellis, 1, 2.0)[0]
            positions = [
                int(np.flatnonzero(trellis.candidate_ids[t] == sol.tube.regions[kf])[0])
                for t, kf in enumerate(trellis.frame_indices)
            ]
            plain = sum(trellis.unary[t][i] for t, i in enumerate(positions)) + 2.0 * sum(
                trellis.pairwise[t][positions[t], positions[t + 1]]
                for t in range(trellis.num_frames - 1)
            )
            assert abs(sol.objective - plain) <= 1e-9
            assert sol.objective == sequence_objective(trellis, positions, 2.0)
            assert sol.tube.score == sol.objective

    def test_constant_shift_in_one_frame(self):
        rng = np.random.default_rng(4)
        trellis = random_trellis(rng, max_frames=5)
        base = solve_p_best(trellis, 1, 1.5)[0]
        shifted = Trellis(
            trellis.video_id,
            trellis.frame_indices,
            trellis.candidate_ids,
            [u + (7.25 if t == 0 else 0.0) for t, u in enumerate(trellis.unary)],
            trellis.pairwise,
        )
        moved = solve_p_best(shifted, 1, 1.5)[0]
        assert moved.tube.regions == base.tube.regions
        assert moved.objective == pytest.approx(base.objective + 7.25, abs=1e-9)

    def test_invariant_to_candidate_order(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            trellis = random_trellis(rng, max_frames=4)
            perm_ids, perm_unary, perms = [], [], []
            for t in range(trellis.num_frames):
                perm = rng.permutation(trellis.candidate_count(t))
                perms.append(perm)
                perm_ids.append(trellis.candidate_ids[t][perm])
                perm_unary.append(trellis.unary[t][perm])
            perm_pairwise = [
                trellis.pairwise[t][np.ix_(perms[t], perms[t + 1])]
                for t in range(trellis.num_frames - 1)
            ]
            shuffled = Trellis(trellis.video_id, trellis.frame_indices, perm_ids,
                               perm_unary, perm_pairwise)
            assert solve_p_best(shuffled, 1, 2.0)[0].tube.regions == \
                solve_p_best(trellis, 1, 2.0)[0].tube.regions

    def test_exact_tie_prefers_smallest_id_sequence(self):
        ids = [[3, 1], [9, 4]]
        unary = [[0.5, 0.5], [0.25, 0.25]]
        trellis = build_trellis("v", [0, 20], ids, unary, 10, _no_pairwise)
        sol = solve_p_best(trellis, 1, 0.0)[0]
        assert sol.tube.regions == {0: 1, 20: 4}


class TestSolvePBest:
    def test_p_one_equals_best(self):
        rng = np.random.default_rng(6)
        trellis = random_trellis(rng)
        best = brute_force_tube(trellis, 2.0).tube.regions
        assert solve_p_best(trellis, 1, 2.0)[0].tube.regions == best
        assert solve_p_best(trellis, 3, 2.0)[0].tube.regions == best

    def test_exhaustion_stops_early(self):
        trellis = build_trellis("v", [0, 20], [[1], [2]], [[0.5], [0.5]], 10, _no_pairwise)
        solutions = solve_p_best(trellis, 2, 2.0)
        assert len(solutions) == 1

    @settings(max_examples=200, deadline=None)
    @given(case=_tied_trellises(), data=st.data())
    def test_second_tube_is_residual_optimum(self, case, data):
        # every tube, not only the second, is the exact optimum of the
        # trellis left after removing the earlier tubes' candidates
        trellis, lam = case
        capacity = min(trellis.candidate_count(t) for t in range(trellis.num_frames))
        p = data.draw(st.integers(1, capacity + 1), label="p")
        solutions = solve_p_best(trellis, p, lam)
        assert len(solutions) == min(p, capacity)
        residual = trellis
        for solution in solutions:
            expected = brute_force_tube(residual, lam)
            assert solution.tube.regions == expected.tube.regions
            assert solution.objective == expected.objective
            residual = remove_choice(residual, solution.tube.regions)

    def test_tubes_region_disjoint(self):
        rng = np.random.default_rng(8)
        trellis = random_trellis(rng, max_frames=5, max_candidates=8)
        solutions = solve_p_best(trellis, 3, 2.0)
        for kf in trellis.frame_indices:
            chosen = [sol.tube.regions[kf] for sol in solutions]
            assert len(chosen) == len(set(chosen))

    def test_tube_count_matches_capacity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            trellis = random_trellis(rng)
            capacity = min(trellis.candidate_count(t) for t in range(trellis.num_frames))
            solutions = solve_p_best(trellis, 4, 0.5)
            assert len(solutions) == min(4, capacity)

    def test_invalid_p(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            solve_p_best(random_trellis(rng), 0, 1.0)


class TestBruteForceGuard:
    def test_too_many_frames_rejected(self):
        ids = [np.array([0])] * 9
        unary = [np.array([0.5])] * 9
        pairwise = [np.zeros((1, 1))] * 8
        trellis = Trellis("v", list(range(9)), ids, unary, pairwise)
        with pytest.raises(ValueError, match="guard"):
            brute_force_tube(trellis, 1.0)

    def test_too_many_candidates_rejected(self):
        ids = [np.arange(11)]
        trellis = Trellis("v", [0], ids, [np.zeros(11)], [])
        with pytest.raises(ValueError, match="guard"):
            brute_force_tube(trellis, 1.0)

    def test_lambda_zero_matches_independent_argmax(self):
        rng = np.random.default_rng(11)
        trellis = random_trellis(rng, max_frames=4)
        bf = brute_force_tube(trellis, 0.0)
        for t, kf in enumerate(trellis.frame_indices):
            best = trellis.unary[t].max()
            winners = trellis.candidate_ids[t][trellis.unary[t] == best]
            assert bf.tube.regions[kf] == winners.min()
        expected = math.fsum(trellis.unary[t].max() for t in range(trellis.num_frames))
        assert bf.objective == pytest.approx(expected, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(_tied_trellises())
def test_dp_tie_breaking_matches_brute_force(case):
    trellis, lam = case
    dp = solve_p_best(trellis, 1, lam)[0]
    bf = brute_force_tube(trellis, lam)
    assert dp.tube.regions == bf.tube.regions
    assert dp.objective == bf.objective


def _assert_first_tube_is_the_best_tube(trellis, p: int, lam: float) -> None:
    first = solve_p_best(trellis, p, lam)[0]
    best = solve_p_best(trellis, 1, lam)[0]
    assert first.tube.regions == best.tube.regions
    assert first.objective.hex() == best.objective.hex()  # bit for bit, signed zeros too


# run_discovery's fixed-point stop keeps the first of p tubes as the final
# iteration's single tube, so it rests on this fact.
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.sampled_from([0.0, 0.5, 2.0]))
def test_first_of_p_tubes_is_the_best_tube(seed, p, lam):
    _assert_first_tube_is_the_best_tube(random_trellis(np.random.default_rng(seed)), p, lam)


@settings(max_examples=200, deadline=None)
@given(_tied_trellises(), st.integers(2, 6))
def test_first_of_p_tubes_is_the_best_tube_under_ties(case, p):
    trellis, lam = case
    _assert_first_tube_is_the_best_tube(trellis, p, lam)
