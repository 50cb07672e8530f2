import numpy as np
import pytest

from oicloc.cas import Cas, GroundTruthSegment, VideoRecord
from oicloc.errors import InputError


class TestCas:
    def test_shape_properties(self):
        cas = Cas(np.zeros((3, 11)))
        assert cas.num_classes == 3
        assert cas.num_snippets == 11

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Cas(np.array([[0.0, 1.2]]))
        with pytest.raises(InputError):
            Cas(np.array([[-0.1, 0.5]]))

    def test_rejects_non_matrix(self):
        with pytest.raises(InputError):
            Cas(np.zeros(5))
        with pytest.raises(InputError):
            Cas(np.array([[np.nan]]))

    def test_is_read_only_and_copied(self):
        src = np.full((2, 4), 0.5)
        cas = Cas(src)
        src[0, 0] = 0.9
        assert cas.act[0, 0] == 0.5
        with pytest.raises(ValueError):
            cas.act[0, 0] = 0.1

    def test_act_is_the_interior_of_one_padded_copy(self):
        src = np.array([[0.4, 0.6], [0.1, 0.2]])
        cas = Cas(src)
        assert np.array_equal(cas.padded, [[0.0, 0.4, 0.6, 0.0], [0.0, 0.1, 0.2, 0.0]])
        assert cas.act.base is cas.padded and np.array_equal(cas.act, src)
        assert cas.padded.flags.c_contiguous
        assert not np.shares_memory(cas.padded, src)
        for value in (cas.act, cas.padded):
            with pytest.raises(ValueError):
                value[0, 0] = 0.5


class TestVideoRecord:
    def test_labels_sorted_dedup(self):
        v = VideoRecord("v", Cas(np.zeros((3, 4))), (2, 1, 2), 30.0)
        assert v.labels == (1, 2)

    def test_rejects_bad_labels(self):
        with pytest.raises(InputError):
            VideoRecord("v", Cas(np.zeros((2, 4))), (3,), 30.0)

    def test_rejects_bad_fps(self):
        with pytest.raises(InputError):
            VideoRecord("v", Cas(np.zeros((2, 4))), (1,), 0.0)

    @pytest.mark.parametrize("fps", [float("nan"), float("inf"), 2**1024, 10**400],
                             ids=["nan", "inf", "2**1024", "10**400"])
    def test_rejects_an_fps_that_is_not_finite(self, fps):
        """Unchecked, an integer too large for a float is accepted, and
        map_report raises a bare OverflowError."""
        with pytest.raises(InputError, match="fps must be positive and finite"):
            VideoRecord("v", Cas(np.zeros((2, 4))), (1,), fps)

    @pytest.mark.parametrize("video_id", ["", ".", "..", "../../escaped", "a/b", "v/", "a\0b"])
    def test_rejects_an_id_that_is_not_a_file_name(self, video_id):
        with pytest.raises(InputError, match="is not a file name"):
            VideoRecord(video_id, Cas(np.zeros((2, 4))), (1,), 30.0)

    @pytest.mark.parametrize("field, value, message", [
        ("video_id", 3, "video id must be a string, got 3"),
        ("fps", "30", "fps must be positive and finite"),
        ("fps", True, "fps must be positive and finite"),
        ("labels", (1.5,), r"labels must be integers, got \(1\.5,\)"),
        ("labels", ("x",), r"labels must be integers, got \('x',\)"),
        ("labels", (True,), r"labels must be integers, got \(True,\)"),
    ], ids=["id-int", "fps-str", "fps-bool", "label-float", "label-str", "label-bool"])
    def test_refuses_a_field_of_the_wrong_type(self, field, value, message):
        """Unchecked, fps "30" and id 3 are bare TypeErrors, label "x" a bare
        ValueError, and fps True and label 1.5 are taken as 1."""
        fields = {"video_id": "v", "cas": Cas(np.zeros((2, 4))), "labels": (1,), "fps": 30.0}
        with pytest.raises(InputError, match=f"^{message}"):
            VideoRecord(**{**fields, field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("cas", np.zeros((2, 4)), "cas must be a Cas, got ndarray"),
        ("labels", 1, "labels must be integers, got 1"),
        ("gt", 5, "gt must be ground truth segments, got 5"),
        ("gt", (3,), r"gt must be ground truth segments, got \(3,\)"),
    ], ids=["cas-array", "labels-int", "gt-int", "gt-of-ints"])
    def test_refuses_a_cas_labels_or_gt_of_the_wrong_type(self, field, value, message):
        """Unchecked, a cas array is a bare AttributeError, labels 1 and gt 5
        bare TypeErrors, and gt (3,) is accepted, to fail in evaluation."""
        fields = {"video_id": "v", "cas": Cas(np.zeros((2, 4))), "labels": (1,), "fps": 30.0}
        with pytest.raises(InputError, match=f"^{message}$"):
            VideoRecord(**{**fields, field: value})

    @pytest.mark.parametrize("video_id", ["...", "..v", "v.", "video 1", "a\\b"])
    def test_accepts_any_other_id(self, video_id):
        assert VideoRecord(video_id, Cas(np.zeros((2, 4))), (1,), 30.0).video_id == video_id


class TestGroundTruth:
    def test_rejects_reversed(self):
        with pytest.raises(InputError):
            GroundTruthSegment(1, 5.0, 4.0)
        with pytest.raises(InputError):
            GroundTruthSegment(1, -1.0, 4.0)

    @pytest.mark.parametrize("segment, message", [
        ((1.5, 0.0, 1.0), r"class_id must be an integer, got 1\.5"),
        ((True, 0.0, 1.0), "class_id must be an integer, got True"),
        ((1, "0", 2.0), "start_s and end_s must be numbers, got '0' and 2.0"),
        ((1, 0.0, None), "start_s and end_s must be numbers, got 0.0 and None"),
    ], ids=["class-float", "class-bool", "start-str", "end-none"])
    def test_refuses_a_field_of_the_wrong_type(self, segment, message):
        """Unchecked, start "0" is a bare TypeError and class 1.5 is accepted."""
        with pytest.raises(InputError, match=f"^ground truth {message}$"):
            GroundTruthSegment(*segment)

    def test_rejects_an_end_that_is_not_finite(self):
        with pytest.raises(InputError, match="start < end < inf"):
            GroundTruthSegment(1, 0.0, float("inf"))

    @pytest.mark.parametrize("huge", [2**1024, 10**400], ids=["2**1024", "10**400"])
    def test_rejects_an_end_too_large_for_a_float(self, huge):
        """Unchecked, it is accepted, and map_report raises a bare OverflowError."""
        with pytest.raises(InputError, match="start < end < inf"):
            GroundTruthSegment(1, 0.0, huge)
