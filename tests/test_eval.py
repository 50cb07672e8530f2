import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import average_precision_reference, map_report_per_threshold

from oicloc.cas import Cas, GroundTruthSegment, VideoRecord
from oicloc.errors import InputError
from oicloc.evaluation import (
    ACTIVITYNET_THRESHOLDS,
    THUMOS_THRESHOLDS,
    average_precisions,
    gt_instances,
    map_report,
)
from oicloc.selection import Prediction, iou


def P(video, k, s, e, score):
    return Prediction(class_id=k, start_s=s, end_s=e, score=score, video_id=video)


def G(video, k, s, e):
    return GroundTruthSegment(class_id=k, start_s=s, end_s=e, video_id=video)


# Three-video fixture with every AP walked by hand below.
HAND_GTS = [
    G("A", 1, 0.0, 10.0),
    G("A", 2, 20.0, 30.0),
    G("B", 1, 5.0, 15.0),
    G("C", 2, 0.0, 10.0),
]
HAND_PREDS = [
    P("A", 1, 0.0, 10.0, 0.90),  # IoU 1.0 with A/c1
    P("B", 1, 6.0, 16.0, 0.80),  # IoU 9/11 with B/c1
    P("A", 1, 0.0, 9.0, 0.70),   # IoU 0.9 but A/c1 is already matched
    P("C", 2, 0.0, 5.0, 0.95),   # IoU exactly 0.5 with C/c2
    P("A", 2, 20.0, 30.0, 0.60), # IoU 1.0 with A/c2
    P("C", 2, 2.0, 10.0, 0.55),  # IoU 0.8 with C/c2
]


class TestIou:
    def test_basic_overlap(self):
        assert iou(0.0, 10.0, 5.0, 15.0) == pytest.approx(1.0 / 3.0)

    def test_disjoint_and_touching(self):
        assert iou(0.0, 5.0, 5.0, 10.0) == 0.0
        assert iou(0.0, 5.0, 7.0, 10.0) == 0.0

    def test_identical(self):
        assert iou(2.0, 4.0, 2.0, 4.0) == 1.0

    def test_rejects_reversed(self):
        gts = [G("A", 1, 0.0, 1.0)]
        with pytest.raises(InputError):
            average_precisions([P("A", 1, 5.0, 1.0, 0.9)], gts, 1, (0.5,))[0]


class TestHandFixture:
    def test_ap_at_half(self):
        # class 1: TP, TP, FP -> recall steps 0.5, 1.0 at precision 1 -> AP = 1
        assert average_precisions(HAND_PREDS, HAND_GTS, 1, (0.5,))[0] == pytest.approx(1.0)
        # class 2: FP (IoU 0.5 is not strictly above), TP, TP
        # precision 0, 1/2, 2/3 at recall 0, 1/2, 1 -> AP = 2/3
        assert average_precisions(HAND_PREDS, HAND_GTS, 2, (0.5,))[0] == pytest.approx(2.0 / 3.0)

    def test_ap_at_point_nine(self):
        # class 1: only the exact match survives -> AP = 0.5
        assert average_precisions(HAND_PREDS, HAND_GTS, 1, (0.9,))[0] == pytest.approx(0.5)
        # class 2: FP, TP, FP -> precision 1/2 at recall 1/2 -> AP = 0.25
        assert average_precisions(HAND_PREDS, HAND_GTS, 2, (0.9,))[0] == pytest.approx(0.25)

    def test_ap_at_point_three(self):
        # class 2: the IoU-0.5 prediction now matches first and steals the gt
        assert average_precisions(HAND_PREDS, HAND_GTS, 1, (0.3,))[0] == pytest.approx(1.0)
        assert average_precisions(HAND_PREDS, HAND_GTS, 2, (0.3,))[0] == pytest.approx(1.0)

    def test_map_values(self):
        report = map_report(HAND_PREDS, HAND_GTS, (0.3, 0.5, 0.9))
        assert report.map_at(0.3) == pytest.approx(1.0)
        assert report.map_at(0.5) == pytest.approx(5.0 / 6.0)
        assert report.map_at(0.9) == pytest.approx(0.375)
        assert report.avg_map == pytest.approx((1.0 + 5.0 / 6.0 + 0.375) / 3.0)

    def test_map_non_increasing_in_threshold(self):
        grid = tuple(round(0.1 * i, 1) for i in range(1, 10))
        report = map_report(HAND_PREDS, HAND_GTS, grid)
        values = [report.map_at(t) for t in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestAveragePrecision:
    def test_none_when_class_has_no_gt(self):
        assert average_precisions(HAND_PREDS, HAND_GTS, 3, (0.5,))[0] is None

    def test_zero_when_no_predictions(self):
        assert average_precisions([], HAND_GTS, 1, (0.5,))[0] == 0.0

    def test_greedy_matching_takes_highest_iou(self):
        gts = [G("A", 1, 0.0, 10.0), G("A", 1, 8.0, 18.0)]
        preds = [P("A", 1, 7.0, 17.0, 0.9), P("A", 1, 0.0, 10.0, 0.8)]
        # the first prediction matches the second gt (IoU 9/11), leaving
        # the first gt free for the exact second prediction
        assert average_precisions(preds, gts, 1, (0.5,))[0] == pytest.approx(1.0)

    def test_equal_ious_match_the_first_listed_gt(self):
        # the first prediction overlaps both gts with IoU 1/3; taking the first
        # leaves the second prediction, which only overlaps the first, unmatched
        gts = [G("A", 1, 0.0, 4.0), G("A", 1, 4.0, 8.0)]
        preds = [P("A", 1, 2.0, 6.0, 0.9), P("A", 1, 0.0, 3.0, 0.8)]
        assert average_precisions(preds, gts, 1, (0.3,))[0] == pytest.approx(0.5)
        assert average_precisions(preds, gts, 1, (0.3,))[0] == average_precision_reference(
            preds, gts, 1, 0.3)

    def test_cross_video_isolation(self):
        gts = [G("A", 1, 0.0, 10.0)]
        preds = [P("B", 1, 0.0, 10.0, 0.9)]
        assert average_precisions(preds, gts, 1, (0.5,))[0] == 0.0


segments = st.tuples(st.sampled_from("AB"), st.integers(1, 2), st.integers(0, 8),
                     st.integers(1, 6))


class TestAveragePrecisionOracle:
    @given(gts=st.lists(segments, min_size=1, max_size=8),
           preds=st.lists(st.tuples(segments, st.sampled_from([0.3, 0.6, 0.9])), max_size=14),
           iou_thresh=st.sampled_from([0.0, 1 / 3, 0.5, 0.6, 0.9]),
           seconds=st.sampled_from([float, int]))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_scalar_first_form(self, gts, preds, iou_thresh, seconds):
        # integer endpoints and three scores: IoUs land exactly on 1/3 and 0.5,
        # and scores, starts and IoUs tie; both readers keep integer seconds as ints
        gt = [G(v, k, seconds(s), seconds(s + d)) for v, k, s, d in gts]
        pr = [P(v, k, seconds(s), seconds(s + d), score) for (v, k, s, d), score in preds]
        aps = map_report(pr, gt, (iou_thresh,)).per_threshold[iou_thresh]["ap"]
        for k in (1, 2):
            want = average_precision_reference(pr, gt, k, iou_thresh)
            assert average_precisions(pr, gt, k, (iou_thresh,))[0] == want
            assert aps.get(k) == want


class TestReportOncePerClass:
    """map_report ranks each class and computes its IoUs once for the whole
    grid; every AP float is that of one evaluation per (class, threshold)."""

    @given(gts=st.lists(segments, min_size=1, max_size=8),
           preds=st.lists(st.tuples(segments, st.sampled_from([0.3, 0.6, 0.9])), max_size=14),
           grid=st.sampled_from([THUMOS_THRESHOLDS, ACTIVITYNET_THRESHOLDS]),
           seconds=st.sampled_from([float, int]))
    @settings(max_examples=150, deadline=None)
    def test_matches_one_evaluation_per_threshold(self, gts, preds, grid, seconds):
        # three scores and integer endpoints: scores, starts and IoUs tie
        gt = [G(v, k, seconds(s), seconds(s + d)) for v, k, s, d in gts]
        pr = [P(v, k, seconds(s), seconds(s + d), score) for (v, k, s, d), score in preds]
        report = map_report(pr, gt, grid)
        assert (report.per_threshold, report.avg_map) == map_report_per_threshold(pr, gt, grid)

    @pytest.mark.parametrize("grid", [THUMOS_THRESHOLDS, ACTIVITYNET_THRESHOLDS])
    def test_matches_on_many_videos_with_tied_scores(self, rng, grid):
        gt, pr = [], []
        for v in range(30):
            for k in range(1, 5):
                for _ in range(int(rng.integers(0, 3))):
                    s = float(rng.uniform(0, 100))
                    gt.append(G(f"v{v}", k, s, s + float(rng.uniform(1, 20))))
                for _ in range(int(rng.integers(0, 8))):
                    s = float(rng.uniform(0, 100))
                    score = float(rng.choice([0.2, 0.5, 0.5, 0.8, rng.uniform(0, 1)]))
                    pr.append(P(f"v{v}", k, s, s + float(rng.uniform(1, 20)), score))
        report = map_report(pr, gt, grid)
        assert (report.per_threshold, report.avg_map) == map_report_per_threshold(pr, gt, grid)
        assert 0.0 < report.avg_map < 1.0


class TestReport:
    def test_requires_ground_truth(self):
        with pytest.raises(InputError):
            map_report(HAND_PREDS, [], (0.5,))

    def test_json_roundtrip(self):
        report = map_report(HAND_PREDS, HAND_GTS, (0.5,))
        payload = json.loads(report.to_json())
        assert payload["0.5"]["mAP"] == pytest.approx(5.0 / 6.0)
        assert payload["avg_mAP"] == pytest.approx(5.0 / 6.0)

    def test_csv_layout(self, tmp_path):
        report = map_report(HAND_PREDS, HAND_GTS, (0.5,))
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("metric,iou_0.5")
        assert lines[-1].startswith("mAP,")

    def test_gt_instances_flattens_videos(self):
        v = VideoRecord(
            "v",
            Cas(np.full((2, 4), 0.5)),
            (1,),
            30.0,
            gt=(GroundTruthSegment(1, 0.0, 1.0), GroundTruthSegment(2, 2.0, 3.0)),
        )
        out = gt_instances([v])
        assert out == [G("v", 1, 0.0, 1.0), G("v", 2, 2.0, 3.0)]
