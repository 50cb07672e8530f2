import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    anchor_chain_rule,
    brute_force_gradients,
    brute_force_inner_gradients,
    brute_force_inner_loss,
    brute_force_loss,
    greedy_nms,
    selection_oracle,
)

from oicloc.boundary import AnchorConfig
from oicloc.cas import Cas
from oicloc.errors import InputError, TrainingError
from oicloc.evaluation import iou
from oicloc.selection import (
    NMS_MATRIX_MAX,
    Prediction,
    build_candidates,
    nms_order,
    select,
    snippet_to_time,
    training_loss,
)

ANCHORS = AnchorConfig((2, 4, 8))


def make_grid(rng, T, reg_scale=0.3, alpha=0.25):
    reg_map = reg_scale * rng.standard_normal((2 * ANCHORS.count, T))
    return reg_map, build_candidates(reg_map, ANCHORS, T, alpha)


def kept_triples(mask):
    """1-based (class, position) and anchor index of every kept hypothesis."""
    return sorted((int(k) + 1, int(t) + 1, int(m)) for k, t, m in zip(*np.nonzero(mask)))


def assert_matches_oracle(rng, anchors, t_max, videos):
    for _ in range(videos):
        T = int(rng.integers(5, t_max + 1))
        K = int(rng.integers(1, 4))
        cas = Cas(rng.uniform(0, 1, size=(K, T)))
        reg_map = 0.3 * rng.standard_normal((2 * anchors.count, T))
        grid = build_candidates(reg_map, anchors, T, 0.25)
        classes = list(range(1, K + 1))
        mask, _ = select(cas, grid, classes)
        expected = selection_oracle(
            cas.act, reg_map, anchors.scales, classes, 0.25, 0.1, -0.3, 0.4
        )
        assert kept_triples(mask) == expected


class TestSnippetToTime:
    def test_snippet_one_starts_at_zero(self):
        assert snippet_to_time(1.0, 30.0) == 0.0

    def test_fifteen_frames_per_snippet(self):
        assert snippet_to_time(3.0, 30.0) == pytest.approx(1.0)
        assert snippet_to_time(3.0, 15.0) == pytest.approx(2.0)

    def test_rejects_bad_fps(self):
        with pytest.raises(InputError):
            snippet_to_time(1.0, 0.0)


class TestBuildCandidates:
    def test_grid_shape(self, rng):
        _, grid = make_grid(rng, 12)
        for field in ("w", "x1", "x2", "X1", "X2", "min_offset", "valid"):
            assert getattr(grid, field).shape == (12, ANCHORS.count)
        assert grid.rounded.shape == (4, 12, ANCHORS.count)
        assert grid.anchors.tolist() == list(ANCHORS.scales)

    def test_identity_regression_boundaries(self):
        reg_map = np.zeros((6, 12))
        grid = build_candidates(reg_map, ANCHORS, 12, 0.25)
        # position 6, anchor length 4
        assert (grid.x1[5, 1], grid.x2[5, 1]) == (4.0, 8.0)
        assert (grid.X1[5, 1], grid.X2[5, 1]) == (3.0, 9.0)
        assert grid.rounded[:, 5, 1].tolist() == [4, 8, 3, 9]
        assert grid.w[5, 1] == 4.0

    def test_shift_scales_with_anchor_length(self):
        reg_map = np.zeros((6, 20))
        reg_map[2, 9] = 0.5  # t_x of the length-4 anchor at position 10
        grid = build_candidates(reg_map, ANCHORS, 20, 0.25)
        assert (grid.x1[9, 1], grid.x2[9, 1]) == (10.0, 14.0)

    def test_log_length(self):
        reg_map = np.zeros((6, 12))
        reg_map[3, 5] = math.log(2.0)  # t_w of the length-4 anchor at position 6
        grid = build_candidates(reg_map, ANCHORS, 12, 0.25)
        assert grid.w[5, 1] == pytest.approx(8.0)
        assert grid.x2[5, 1] - grid.x1[5, 1] == pytest.approx(8.0)

    def test_rejects_non_finite_regression(self):
        for slot, bad in ((0, float("nan")), (1, float("inf"))):  # t_x, t_w of anchor 0
            reg_map = np.zeros((6, 8))
            reg_map[slot, 3] = bad
            with pytest.raises(InputError, match="finite"):
                build_candidates(reg_map, ANCHORS, 8, 0.25)

    def test_min_offset_flag_uses_pre_round_width(self):
        reg_map = np.zeros((6, 12))
        grid = build_candidates(reg_map, ANCHORS, 12, 0.25)
        assert grid.min_offset[5, 0]  # w=2, 2*0.25 < 1
        assert not grid.min_offset[5, 1]  # w=4, 4*0.25 == 1
        assert not grid.min_offset[5, 2]  # w=8

    def test_clipping_recorded(self):
        reg_map = np.zeros((6, 8))
        grid = build_candidates(reg_map, ANCHORS, 8, 0.25)
        # anchor 8 at position 1 spills off the left edge: raw x1 = -3
        assert grid.x1[0, 2] == 0.0
        assert grid.x2[0, 2] == 5.0
        assert grid.X1[0, 2] == 0.0

    def test_overflowing_scale_raises_training_error(self):
        reg_map = np.zeros((6, 8))
        reg_map[3, 2] = 800.0  # t_w of anchor 1 at position 3
        with pytest.raises(TrainingError, match="position 3, anchor 1"):
            build_candidates(reg_map, ANCHORS, 8, 0.25)

    def test_collapsing_scale_raises_training_error(self):
        reg_map = np.zeros((6, 8))
        reg_map[5, 3] = -40.0  # t_w of anchor 2 at position 4: w_a * exp(t_w) vanishes
        with pytest.raises(TrainingError, match="position 4, anchor 2"):
            build_candidates(reg_map, ANCHORS, 8, 0.25)

    def test_rejects_wrong_reg_shape(self):
        with pytest.raises(InputError):
            build_candidates(np.zeros((5, 8)), ANCHORS, 8, 0.25)


def nms(preds, iou_thresh):
    """Greedy same-class suppression of predictions through ``nms_order``."""
    spans = np.reshape([(p.score, p.start_s, p.end_s) for p in preds], (-1, 3))
    return [preds[i] for i in nms_order(*spans.T, iou_thresh)]


class TestNms:
    def test_keeps_best_and_drops_overlaps(self):
        preds = [
            Prediction(1, 0.0, 10.0, 0.9),
            Prediction(1, 1.0, 11.0, 0.8),  # IoU 9/12 with the first
            Prediction(1, 20.0, 30.0, 0.7),
        ]
        kept = nms(preds, 0.4)
        assert [p.score for p in kept] == [0.9, 0.7]

    def test_boundary_iou_not_suppressed(self):
        preds = [Prediction(1, 0.0, 10.0, 0.9), Prediction(1, 5.0, 15.0, 0.8)]
        # IoU = 5/15 = 1/3 <= 0.4 threshold, both survive
        assert len(nms(preds, 0.4)) == 2

    def test_tie_breaks_on_earlier_start(self):
        preds = [Prediction(1, 5.0, 6.0, 0.5), Prediction(1, 1.0, 2.0, 0.5)]
        kept = nms(preds, 0.4)
        assert kept[0].start_s == 1.0

    @given(st.lists(st.tuples(st.floats(0, 50), st.floats(0.1, 20), st.floats(0, 1)), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_survivors_are_mutually_below_threshold(self, raw):
        preds = [Prediction(1, s, s + d, sc) for s, d, sc in raw]
        kept = nms(preds, 0.4)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                assert iou((a.start_s, a.end_s), (b.start_s, b.end_s)) <= 0.4


class TestNmsOracle:
    @given(n=st.sampled_from([0, 1, 2, NMS_MATRIX_MAX, NMS_MATRIX_MAX + 1])
           | st.integers(0, 2 * NMS_MATRIX_MAX),
           seed=st.integers(0, 2**32 - 1),
           iou_thresh=st.sampled_from([0.0, 1 / 3, 0.4, 0.5, 1.0]))
    @settings(max_examples=80, deadline=None)
    def test_matches_greedy_oracle(self, n, seed, iou_thresh):
        # half-snippet endpoints and three scores, so that score, lo and hi tie
        # and IoUs land exactly on the thresholds (1/3 and 0.5 are reachable)
        rng = np.random.default_rng(seed)
        score = rng.choice([0.2, 0.5, 0.9], n)
        lo = rng.integers(0, 60, n) / 2
        hi = lo + rng.integers(0, 12, n) / 2
        assert nms_order(score, lo, hi, iou_thresh) == greedy_nms(score, lo, hi, iou_thresh)

    @pytest.mark.parametrize("pairs", [NMS_MATRIX_MAX // 2, NMS_MATRIX_MAX // 2 + 1])
    @pytest.mark.parametrize("iou_thresh, kept_per_pair", [(0.5, 2), (0.4, 1)])
    def test_iou_exactly_at_the_threshold_is_kept(self, pairs, iou_thresh, kept_per_pair):
        # [0, 4] and [0, 2] overlap with IoU exactly 0.5; the pairs lie apart
        lo = np.repeat(10.0 * np.arange(pairs), 2)
        hi = lo + np.tile([4.0, 2.0], pairs)
        kept = nms_order(np.full(2 * pairs, 0.5), lo, hi, iou_thresh)
        assert len(kept) == kept_per_pair * pairs


class TestSelect:
    def test_matches_oracle_on_random_videos(self, rng):
        assert_matches_oracle(rng, ANCHORS, t_max=30, videos=60)

    def test_matches_oracle_at_desk_shapes(self, rng):
        assert_matches_oracle(rng, AnchorConfig((2, 4, 8, 16, 32)), t_max=120, videos=60)

    def test_equal_losses_prefer_smaller_anchor(self):
        # At position 10 both anchors cover every snippet and differ only by a
        # pad zero: inner [0, T] in outer [0, T+1] for m=0, inner [1, T+1] in
        # outer [0, T+1] for m=1. Their losses are equal, so m=0 must win, and
        # then position 5 (anchor 32, the same box as m=0) suppresses it: equal
        # scores and boundaries keep the earlier position.
        T = 21
        anchors = AnchorConfig((16, 32))
        reg_map = np.zeros((4, T))
        reg_map[0, 9], reg_map[1, 9] = (10.5 - 10) / 16, math.log(21 / 16)
        reg_map[2, 9], reg_map[3, 9] = (12 - 10) / 32, math.log(22 / 32)
        grid = build_candidates(reg_map, anchors, T, 0.25)
        # rows: rx1, rx2, rX1, rX2; columns: anchors 16, 32
        assert grid.rounded[:, 9].tolist() == [[0, 1], [21, 22], [0, 0], [22, 22]]
        for seed in range(200):
            cas = Cas(np.random.default_rng(seed).uniform(0.2, 1, (1, T)))
            mask, _ = select(cas, grid, [1])
            got = kept_triples(mask)
            want = selection_oracle(cas.act, reg_map, anchors.scales, [1], 0.25, 0.1, -0.3, 0.4)
            assert got == want, f"seed {seed}"
            assert (1, 5, 1) in got and all(t != 10 for _, t, _ in got), f"seed {seed}"

    def test_activation_floor_gates_positions(self):
        act = np.full((1, 10), 0.05)
        act[0, 4] = 0.9
        cas = Cas(act)
        grid = build_candidates(np.zeros((6, 10)), ANCHORS, 10, 0.25)
        mask, _ = select(cas, grid, [1], act_min=0.1)
        assert set(np.nonzero(mask)[1]) <= {4}

    def test_loss_ceiling_filters_weak_hypotheses(self):
        # flat weak signal: no hypothesis can contrast by more than 0.2
        cas = Cas(np.full((1, 10), 0.2))
        grid = build_candidates(np.zeros((6, 10)), ANCHORS, 10, 0.25)
        mask, survivors = select(cas, grid, [1])
        assert not mask.any()
        assert survivors == []

    def test_training_only_touches_label_classes(self, rng):
        cas = Cas(rng.uniform(0, 1, size=(3, 14)))
        _, grid = make_grid(rng, 14)
        mask, _ = select(cas, grid, [2])
        assert not mask[0].any() and not mask[2].any()

    def test_survivor_scores_are_one_minus_loss(self, rng):
        act = np.full((1, 20), 0.02)
        act[0, 6:12] = 0.95
        cas = Cas(act)
        grid = build_candidates(np.zeros((6, 20)), ANCHORS, 20, 0.25)
        _, survivors = select(cas, grid, [1])
        assert survivors
        for pred, (t, m) in survivors:
            assert pred.score >= 1.0 + 0.3  # loss <= -0.3
            assert pred.start_s == snippet_to_time(grid.x1[t, m], 30.0)
            assert pred.end_s == snippet_to_time(grid.x2[t, m], 30.0)


class TestTrainingLoss:
    def test_total_is_sum_of_kept_losses(self, rng):
        act = np.full((1, 20), 0.02)
        act[0, 6:12] = 0.95
        cas = Cas(act)
        reg_map, grid = make_grid(rng, 20)
        mask, survivors = select(cas, grid, [1])
        total, grad_out = training_loss(cas, grid, mask, 0.25)
        expected = sum(-(p.score - 1.0) for p, _ in survivors)
        assert total == pytest.approx(expected)
        assert grad_out.shape == reg_map.shape

    def test_gradients_land_on_kept_slots_only(self, rng):
        act = np.full((1, 20), 0.02)
        act[0, 6:12] = 0.95
        cas = Cas(act)
        _, grid = make_grid(rng, 20)
        mask, _ = select(cas, grid, [1])
        _, grad_out = training_loss(cas, grid, mask, 0.25)
        kept_columns = {int(t) for _, t, _ in zip(*np.nonzero(mask))}
        nz_columns = set(np.nonzero(grad_out.any(axis=0))[0])
        assert nz_columns <= kept_columns

    def test_empty_mask_gives_zero_loss_and_gradients(self, rng):
        cas = Cas(np.full((1, 10), 0.5))
        _, grid = make_grid(rng, 10)
        mask = np.zeros((1, 10, ANCHORS.count), dtype=bool)
        total, grad_out = training_loss(cas, grid, mask, 0.25)
        assert total == 0.0
        assert not grad_out.any()

    @pytest.mark.parametrize("loss", ["oic", "inner"])
    def test_gradients_match_scalar_chain_rule(self, rng, loss):
        anchors = AnchorConfig((1, 2, 4, 8, 16))  # w*alpha < 1 for the short ones
        seen_min_offset = seen_clipped = 0
        for _ in range(20):
            T = int(rng.integers(6, 40))
            K = int(rng.integers(1, 4))
            cas = Cas(rng.uniform(0, 1, size=(K, T)))
            reg_map = 0.5 * rng.standard_normal((2 * anchors.count, T))
            grid = build_candidates(reg_map, anchors, T, 0.25)
            mask = (rng.uniform(size=(K, T, anchors.count)) < 0.5) & grid.valid
            total, grad_out = training_loss(cas, grid, mask, 0.25, loss=loss)
            want_total, want_grad = 0.0, np.zeros_like(grad_out)
            for k, t, m in zip(*np.nonzero(mask)):
                row = cas.act[k]
                bounds = grid.x1[t, m], grid.x2[t, m], grid.X1[t, m], grid.X2[t, m]
                if loss == "oic":
                    want_total += brute_force_loss(row, *bounds)
                    g = brute_force_gradients(row, *bounds)
                else:
                    want_total += brute_force_inner_loss(row, *bounds[:2])
                    g = (*brute_force_inner_gradients(row, *bounds[:2]), 0.0, 0.0)
                min_offset = bool(grid.min_offset[t, m])
                d_tx, d_tw = anchor_chain_rule(
                    g, anchors.scales[m], reg_map[2 * m + 1, t], 0.25, min_offset
                )
                want_grad[2 * m, t] += d_tx
                want_grad[2 * m + 1, t] += d_tw
                seen_min_offset += min_offset
                seen_clipped += grid.x1[t, m] == 0.0 or grid.x2[t, m] == T + 1
            assert total == pytest.approx(want_total, rel=1e-12)
            # relative to the largest slot: where the oracle's partials cancel to
            # exactly 0 (a one-snippet inner area), prefix sums leave ~1e-17
            scale = np.abs(want_grad).max()
            np.testing.assert_allclose(grad_out, want_grad, rtol=1e-12, atol=1e-12 * scale)
        assert seen_min_offset and seen_clipped

    def test_shape_mismatch_rejected(self, rng):
        cas = Cas(np.full((1, 10), 0.5))
        _, grid = make_grid(rng, 10)
        with pytest.raises(InputError):
            training_loss(cas, grid, np.zeros((2, 10, 3), dtype=bool), 0.25)
