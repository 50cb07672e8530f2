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
    predictions_reference,
    scatter_reference,
    selection_oracle,
)

from oicloc import oic
from oicloc.boundary import AnchorConfig, transform_backward
from oicloc.cas import Cas
from oicloc.errors import InputError, TrainingError
from oicloc.selection import (
    NMS_MATRIX_MAX,
    Prediction,
    build_candidates,
    iou,
    nms_order,
    select,
    snippet_to_time,
    to_predictions,
    training_loss,
)

ANCHORS = AnchorConfig((2, 4, 8))


def make_grid(rng, T, reg_scale=0.3, alpha=0.25):
    reg_map = reg_scale * rng.standard_normal((2 * ANCHORS.count, T))
    return reg_map, build_candidates(reg_map, ANCHORS, alpha)


def kept_triples(survivors):
    """1-based (class, position) and anchor index of every survivor, sorted."""
    return sorted((int(k), int(t) + 1, int(m)) for k, t, m in zip(*survivors[:3]))


def predicted_columns(survivors):
    """The ``k, score, x1, x2`` columns of select's survivors, which
    to_predictions takes."""
    return tuple(survivors[i] for i in (0, 3, 4, 5))


def triples(mask):
    """The (1-based class, position, anchor) record of every cell of a K x T x M mask."""
    k, t, m = np.nonzero(mask)
    return k + 1, t, m


def assert_matches_oracle(rng, anchors, t_max, videos):
    for _ in range(videos):
        T = int(rng.integers(5, t_max + 1))
        K = int(rng.integers(1, 4))
        cas = Cas(rng.uniform(0, 1, size=(K, T)))
        reg_map = 0.3 * rng.standard_normal((2 * anchors.count, T))
        grid = build_candidates(reg_map, anchors, 0.25)
        classes = list(range(1, K + 1))
        survivors = select(cas, grid, classes)
        expected = selection_oracle(
            cas.act, reg_map, anchors.scales, classes, 0.25, 0.1, -0.3, 0.4
        )
        assert kept_triples(survivors) == expected


def tied_anchors_at_position_10():
    """(T, anchors, reg_map, grid) where position 10's two anchors score
    equal losses: inner [0, T] and [1, T+1], both in outer [0, T+1]."""
    T = 21
    anchors = AnchorConfig((16, 32))
    reg_map = np.zeros((4, T))
    reg_map[0, 9], reg_map[1, 9] = (10.5 - 10) / 16, math.log(21 / 16)
    reg_map[2, 9], reg_map[3, 9] = (12 - 10) / 32, math.log(22 / 32)
    grid = build_candidates(reg_map, anchors, 0.25)
    # rows: rx1, rx2, rX1, rX2; columns: anchors 16, 32
    assert grid.rounded[:, 9].tolist() == [[0, 1], [21, 22], [0, 0], [22, 22]]
    return T, anchors, reg_map, grid


class TestSnippetToTime:
    def test_snippet_one_starts_at_zero(self):
        assert snippet_to_time(1.0, 30.0) == 0.0

    def test_fifteen_frames_per_snippet(self):
        assert snippet_to_time(3.0, 30.0) == pytest.approx(1.0)
        assert snippet_to_time(3.0, 15.0) == pytest.approx(2.0)

    def test_rejects_bad_fps(self):
        with pytest.raises(InputError):
            snippet_to_time(1.0, 0.0)

    @pytest.mark.parametrize("fps", [math.nan, math.inf])
    def test_rejects_an_fps_that_is_not_finite(self, fps):
        with pytest.raises(InputError, match="fps must be positive and finite"):
            snippet_to_time(1.0, fps)


class TestBuildCandidates:
    def test_grid_shape(self, rng):
        _, grid = make_grid(rng, 12)
        for field in ("w", "x1", "x2", "X1", "X2", "min_offset", "valid"):
            assert getattr(grid, field).shape == (12, ANCHORS.count)
        assert grid.rounded.shape == (4, 12, ANCHORS.count)
        assert grid.anchors.tolist() == list(ANCHORS.scales)

    def test_identity_regression_boundaries(self):
        reg_map = np.zeros((6, 12))
        grid = build_candidates(reg_map, ANCHORS, 0.25)
        # position 6, anchor length 4
        assert (grid.x1[5, 1], grid.x2[5, 1]) == (4.0, 8.0)
        assert (grid.X1[5, 1], grid.X2[5, 1]) == (3.0, 9.0)
        assert grid.rounded[:, 5, 1].tolist() == [4, 8, 3, 9]
        assert grid.w[5, 1] == 4.0

    def test_shift_scales_with_anchor_length(self):
        reg_map = np.zeros((6, 20))
        reg_map[2, 9] = 0.5  # t_x of the length-4 anchor at position 10
        grid = build_candidates(reg_map, ANCHORS, 0.25)
        assert (grid.x1[9, 1], grid.x2[9, 1]) == (10.0, 14.0)

    def test_log_length(self):
        reg_map = np.zeros((6, 12))
        reg_map[3, 5] = math.log(2.0)  # t_w of the length-4 anchor at position 6
        grid = build_candidates(reg_map, ANCHORS, 0.25)
        assert grid.w[5, 1] == pytest.approx(8.0)
        assert grid.x2[5, 1] - grid.x1[5, 1] == pytest.approx(8.0)

    def test_rejects_non_finite_regression(self):
        for slot, bad in ((0, float("nan")), (1, float("inf"))):  # t_x, t_w of anchor 0
            reg_map = np.zeros((6, 8))
            reg_map[slot, 3] = bad
            with pytest.raises(TrainingError, match="^regression values must be finite$"):
                build_candidates(reg_map, ANCHORS, 0.25)

    def test_min_offset_flag_uses_pre_round_width(self):
        reg_map = np.zeros((6, 12))
        grid = build_candidates(reg_map, ANCHORS, 0.25)
        assert grid.min_offset[5, 0]  # w=2, 2*0.25 < 1
        assert not grid.min_offset[5, 1]  # w=4, 4*0.25 == 1
        assert not grid.min_offset[5, 2]  # w=8

    def test_clipping_recorded(self):
        reg_map = np.zeros((6, 8))
        grid = build_candidates(reg_map, ANCHORS, 0.25)
        # anchor 8 at position 1 spills off the left edge: raw x1 = -3
        assert grid.x1[0, 2] == 0.0
        assert grid.x2[0, 2] == 5.0
        assert grid.X1[0, 2] == 0.0

    def test_overflowing_scale_raises_training_error(self):
        reg_map = np.zeros((6, 8))
        reg_map[3, 2] = 800.0  # t_w of anchor 1 at position 3
        with pytest.raises(TrainingError, match="position 3, anchor 1"):
            build_candidates(reg_map, ANCHORS, 0.25)

    def test_overflowing_length_raises_training_error(self):
        """exp(709) is finite, but the length-8 anchor's 8 * exp(709) is not."""
        reg_map = np.zeros((6, 12))
        reg_map[5, 6] = 709.0  # t_w of anchor 2 at position 7
        with pytest.raises(TrainingError, match="overflows the length at position 7, anchor 2"):
            build_candidates(reg_map, ANCHORS, 0.25)

    def test_collapsing_scale_raises_training_error(self):
        reg_map = np.zeros((6, 8))
        reg_map[5, 3] = -40.0  # t_w of anchor 2 at position 4: w_a * exp(t_w) vanishes
        with pytest.raises(TrainingError, match="position 4, anchor 2"):
            build_candidates(reg_map, ANCHORS, 0.25)

    def test_rejects_wrong_reg_shape(self):
        # two rows per anchor: (t_x, t_w) for each of the three
        with pytest.raises(InputError, match=r"must be 6 x T, got \(5, 8\)"):
            build_candidates(np.zeros((5, 8)), ANCHORS, 0.25)

    # (t_x, t_w) per cell: ordinary; shifts far off the grid at any length up
    # to w = inf; shifts near the float range with lengths that dwarf them.
    # None collapses a segment or overflows exp; a length w_a * exp(t_w) may
    # overflow, which build_candidates refuses.
    cells = st.one_of(st.tuples(st.floats(-4, 4), st.floats(-4, 4)),
                      st.tuples(st.floats(-1e12, 1e12), st.floats(-4, 709)),
                      st.tuples(st.floats(-1e300, 1e300), st.floats(700, 709)))

    @given(data=st.data(), T=st.integers(1, 40), alpha=st.floats(0.125, 0.5),
           scales=st.sampled_from([(2, 4), (1, 3), (2, 4, 8), (4, 16, 32)]))
    @settings(max_examples=200, deadline=None)
    def test_outer_bounds_stay_on_the_padded_grid(self, data, T, alpha, scales):
        """inflate clips, so every rounded outer bound lies in [0, T+1] and the
        ring test alone decides validity; an infinite length is an error."""
        M = len(scales)
        pairs = data.draw(st.lists(self.cells, min_size=T * M, max_size=T * M))
        reg_map = np.reshape(pairs, (T, 2 * M)).T  # rows t_x, t_w of each anchor
        if any(w_a * math.exp(t_w) == math.inf for w_a, (_, t_w) in zip(scales * T, pairs)):
            with pytest.raises(TrainingError, match="overflows the length"):
                build_candidates(reg_map, AnchorConfig(scales), alpha)
            return
        grid = build_candidates(reg_map, AnchorConfig(scales), alpha)
        rx1, rx2, rX1, rX2 = grid.rounded
        assert ((0 <= rX1) & (rX1 <= T + 1) & (0 <= rX2) & (rX2 <= T + 1)).all()
        assert np.array_equal(grid.valid, (rX2 - rX1) - (rx2 - rx1) >= 1)


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
                assert iou(a.start_s, a.end_s, b.start_s, b.end_s) <= 0.4


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
        T, anchors, reg_map, grid = tied_anchors_at_position_10()
        for seed in range(200):
            cas = Cas(np.random.default_rng(seed).uniform(0.2, 1, (1, T)))
            got = kept_triples(select(cas, grid, [1]))
            want = selection_oracle(cas.act, reg_map, anchors.scales, [1], 0.25, 0.1, -0.3, 0.4)
            assert got == want, f"seed {seed}"
            assert (1, 5, 1) in got and all(t != 10 for _, t, _ in got), f"seed {seed}"

    def test_equal_losses_keep_the_smaller_anchor_where_nms_cannot_hide_it(self):
        # only position 10 clears the activation floor, so its choice survives
        T, _, _, grid = tied_anchors_at_position_10()
        for seed in range(50):
            act = np.random.default_rng(seed).uniform(0.2, 0.9, (1, T))
            act[0, 9] = 0.95
            _, t, m, *_ = select(Cas(act), grid, [1], act_min=0.92)
            assert (t.tolist(), m.tolist()) == ([9], [0]), f"seed {seed}"

    def test_activation_floor_gates_positions(self):
        act = np.full((1, 10), 0.05)
        act[0, 4] = 0.9
        cas = Cas(act)
        grid = build_candidates(np.zeros((6, 10)), ANCHORS, 0.25)
        _, t, *_ = select(cas, grid, [1], act_min=0.1)
        assert set(t.tolist()) <= {4}

    @staticmethod
    def plateau_at_position_6(level):
        """(cas, grid) where one length-3 anchor at position 6 has inner [5, 8]
        on a plateau of ``level`` and ring {4, 9} at 0, so its loss is
        -level; every other position's loss is above -level / 2."""
        act = np.zeros((1, 12))
        act[0, 4:8] = level
        return Cas(act), build_candidates(np.zeros((2, 12)), AnchorConfig((3,)), 0.25)

    def test_activation_exactly_at_the_floor_is_gated_in(self):
        cas, grid = self.plateau_at_position_6(0.5)
        _, t, *_ = select(cas, grid, [1], act_min=0.5)
        assert t.tolist() == [5]

    def test_loss_exactly_at_the_ceiling_is_kept(self):
        cas, grid = self.plateau_at_position_6(1.0)
        _, t, _, score, *_ = select(cas, grid, [1], loss_max=-1.0)
        assert (t.tolist(), score.tolist()) == ([5], [2.0])

    def test_loss_ceiling_filters_weak_hypotheses(self):
        # flat weak signal: no hypothesis can contrast by more than 0.2
        cas = Cas(np.full((1, 10), 0.2))
        grid = build_candidates(np.zeros((6, 10)), ANCHORS, 0.25)
        survivors = select(cas, grid, [1])
        assert all(column.size == 0 for column in survivors)
        assert to_predictions(*predicted_columns(survivors)) == []

    def test_rejects_a_grid_of_another_length_a_class_outside_1_to_k_and_an_unknown_loss(self):
        cas = Cas(np.full((2, 10), 0.5))
        grid = build_candidates(np.zeros((6, 10)), ANCHORS, 0.25)
        with pytest.raises(InputError, match="grid has 11 positions for a T=10 video"):
            select(cas, build_candidates(np.zeros((6, 11)), ANCHORS, 0.25), [1])
        for classes in ([0], [3], [1, 3]):
            with pytest.raises(InputError, match="outside 1..2"):
                select(cas, grid, classes)
        with pytest.raises(InputError, match="unknown loss variant 'outer'"):
            select(cas, grid, [1], loss="outer")

    def test_training_only_touches_label_classes(self, rng):
        cas = Cas(rng.uniform(0, 1, size=(3, 14)))
        _, grid = make_grid(rng, 14)
        k = select(cas, grid, [2])[0]
        assert set(k.tolist()) <= {2}

    def test_survivor_scores_are_one_minus_loss(self, rng):
        act = np.full((1, 20), 0.02)
        act[0, 6:12] = 0.95
        cas = Cas(act)
        grid = build_candidates(np.zeros((6, 20)), ANCHORS, 0.25)
        survivors = select(cas, grid, [1])
        k, t, m, score, x1, x2 = survivors
        assert k.size and (score >= 1.0 + 0.3).all()  # loss <= -0.3
        assert np.array_equal(x1, grid.x1[t, m]) and np.array_equal(x2, grid.x2[t, m])
        got = sorted((p.start_s, p.end_s, p.score)
                     for p in to_predictions(*predicted_columns(survivors)))
        assert got == sorted((snippet_to_time(lo, 30.0), snippet_to_time(hi, 30.0), s)
                             for lo, hi, s in zip(x1.tolist(), x2.tolist(), score.tolist()))

    def test_survivors_hold_one_anchor_per_position_by_ascending_class(self, rng):
        for _ in range(40):
            T, K = int(rng.integers(5, 40)), int(rng.integers(1, 4))
            cas = Cas(rng.uniform(0, 1, size=(K, T)))
            _, grid = make_grid(rng, T)
            k, t, *_ = select(cas, grid, range(1, K + 1))
            assert len(set(zip(k.tolist(), t.tolist()))) == k.size
            assert (np.diff(k) >= 0).all()


survivor_columns = st.integers(0, 12).flatmap(lambda n: st.tuples(*(
    st.lists(values, min_size=n, max_size=n) for values in (
        st.integers(1, 3), st.sampled_from([1.3, 1.5, 2.0]), st.sampled_from([0.0, 1.0, 2.5, 4.0]),
        st.sampled_from([0.5, 1.0, 3.0])))))


class TestToPredictions:
    """The conversion reproduces the predictions select first built itself."""

    @given(columns=survivor_columns, fps=st.sampled_from([30.0, 25.0, 7.5]))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_first_built_predictions(self, columns, fps):
        # few distinct classes, scores and starts, so that every sort key ties
        k, score, x1, length = (np.array(c) for c in columns)
        segments = k.astype(np.int64), score.astype(float), x1.astype(float), x1 + length
        got = to_predictions(*segments, fps, "v")
        want = predictions_reference(*segments, fps, "v")
        assert got == want
        assert [type(p.class_id) for p in got] == [int] * len(got)

    def test_select_survivors_on_random_videos(self, rng):
        for _ in range(30):
            T, K = int(rng.integers(5, 60)), int(rng.integers(1, 4))
            cas = Cas(rng.uniform(0, 1, size=(K, T)))
            _, grid = make_grid(rng, T)
            segments = predicted_columns(select(cas, grid, range(1, K + 1)))
            assert to_predictions(*segments, 30.0, "x") == predictions_reference(*segments, 30.0, "x")


def assert_matches_scalar_chain_rule(rng, loss, alpha):
    """training_loss on random grids inflated by ``alpha`` against the
    brute-force loss and partials chained per slot by the scalar oracle."""
    anchors = AnchorConfig((1, 2, 4, 8, 16))  # w*alpha < 1 for the short ones
    seen_min_offset = seen_clipped = 0
    for _ in range(20):
        T = int(rng.integers(6, 40))
        K = int(rng.integers(1, 4))
        cas = Cas(rng.uniform(0, 1, size=(K, T)))
        reg_map = 0.5 * rng.standard_normal((2 * anchors.count, T))
        grid = build_candidates(reg_map, anchors, alpha)
        mask = (rng.uniform(size=(K, T, anchors.count)) < 0.5) & grid.valid
        total, grad_out = training_loss(cas, grid, triples(mask), loss=loss)
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
                g, anchors.scales[m], reg_map[2 * m + 1, t], alpha, min_offset
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


class TestTrainingLoss:
    def test_total_is_sum_of_kept_losses(self, rng):
        act = np.full((1, 20), 0.02)
        act[0, 6:12] = 0.95
        cas = Cas(act)
        reg_map, grid = make_grid(rng, 20)
        survivors = select(cas, grid, [1])
        total, grad_out = training_loss(cas, grid, survivors)
        expected = sum(-(s - 1.0) for s in survivors[3].tolist())
        assert total == pytest.approx(expected)
        assert grad_out.shape == reg_map.shape

    def test_gradients_land_on_kept_slots_only(self, rng):
        act = np.full((1, 20), 0.02)
        act[0, 6:12] = 0.95
        cas = Cas(act)
        _, grid = make_grid(rng, 20)
        survivors = select(cas, grid, [1])
        _, grad_out = training_loss(cas, grid, survivors)
        kept_columns = set(survivors[1].tolist())
        nz_columns = set(np.nonzero(grad_out.any(axis=0))[0])
        assert nz_columns <= kept_columns

    def test_total_sums_the_kernel_losses_in_class_then_position_order(self):
        # three classes of plateaus: select returns each class's survivors in
        # NMS order, and np.sum (pairwise from 8 terms) rounds by order
        rng = np.random.default_rng(0)
        act = rng.uniform(0.0, 0.15, (3, 60))
        for row in act:
            for _ in range(3):
                s = int(rng.integers(0, 52))
                row[s : s + int(rng.integers(3, 8))] = rng.uniform(0.6, 1.0)
        cas = Cas(act)
        grid = build_candidates(0.3 * rng.standard_normal((6, 60)), ANCHORS, 0.25)
        survivors = select(cas, grid, [1, 2, 3])
        k, t, m = survivors[:3]
        order = np.lexsort((t, k))
        assert k.size >= 8 and set(k.tolist()) == {1, 2, 3}
        assert not np.array_equal(order, np.arange(k.size))  # NMS reordered positions
        losses = oic.oic_areas(cas.padded, k - 1, *grid.rounded[:, t, m])[0].loss
        assert losses.sum() != losses[order].sum()  # so the order shows in the bits
        total, _ = training_loss(cas, grid, survivors)
        assert total == float(losses[order].sum())

    def test_refuses_a_survivor_without_an_outer_ring(self):
        # anchor 16 at position 2 of a T=4 video: the inner box clips to the
        # whole padded grid [0, 5], so the outer box adds no snippet
        cas = Cas(np.full((1, 4), 0.5))
        grid = build_candidates(np.zeros((2, 4)), AnchorConfig((16,)), 0.25)
        assert grid.rounded[:, 1, 0].tolist() == [0, 5, 0, 5] and not grid.valid[1, 0]
        survivor = (np.array([1]), np.array([1]), np.array([0]))
        with pytest.raises(InputError, match="a survivor has an empty outer ring"):
            training_loss(cas, grid, survivor)

    def test_empty_mask_gives_zero_loss_and_gradients(self, rng):
        cas = Cas(np.full((1, 10), 0.5))
        _, grid = make_grid(rng, 10)
        mask = np.zeros((1, 10, ANCHORS.count), dtype=bool)
        total, grad_out = training_loss(cas, grid, triples(mask))
        assert total == 0.0
        assert not grad_out.any()

    @pytest.mark.parametrize("loss", ["oic", "inner"])
    def test_gradients_match_scalar_chain_rule(self, rng, loss):
        assert_matches_scalar_chain_rule(rng, loss, 0.25)

    @pytest.mark.parametrize("alpha", [0.125, 0.5])
    def test_each_grid_carries_its_own_alpha(self, rng, alpha):
        """The outer bounds' chain rule uses the ratio the grid was inflated with."""
        assert_matches_scalar_chain_rule(rng, "oic", alpha)

    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 4), T=st.integers(5, 40),
           keep=st.sampled_from([0.0, 0.2, 0.6]), every_class=st.booleans(),
           loss=st.sampled_from(["oic", "inner"]))
    @settings(max_examples=60, deadline=None)
    def test_grad_out_matches_the_add_at_oracle(self, seed, K, T, keep, every_class, loss):
        # a kept (t, m) under several classes sends several gradients to one slot
        rng = np.random.default_rng(seed)
        cas = Cas(rng.uniform(0, 1, size=(K, T)))
        _, grid = make_grid(rng, T, reg_scale=0.5)
        cells = grid.valid & (rng.uniform(size=grid.valid.shape) < keep)
        mask = np.repeat(cells[None], K, axis=0)
        if not every_class:
            mask &= rng.uniform(size=mask.shape) < 0.6
        _, grad_out = training_loss(cas, grid, triples(mask), loss=loss)
        k, t, m = np.nonzero(mask)
        padded = np.pad(cas.act, ((0, 0), (1, 1)))
        _, g = oic.oic_kernel(padded, k, *grid.rounded[:, t, m], inner_only=loss == "inner")
        d_tx, d_tw = transform_backward(g, grid.anchors[m], grid.w[t, m], 0.25,
                                        grid.min_offset[t, m])
        want = scatter_reference(ANCHORS.count, T, t, m, d_tx, d_tw)
        assert grad_out.dtype == np.float64 and grad_out.shape == want.shape
        assert grad_out.tobytes() == want.tobytes()
