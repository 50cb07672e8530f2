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

    @pytest.mark.parametrize("act", ["abc", [[0.1, 0.2], [0.3]], object(), [[10**400]]],
                             ids=["str", "ragged", "object", "huge"])
    def test_refuses_what_numpy_cannot_convert(self, act):
        """Unchecked, "abc" and the ragged rows are bare ValueErrors, an object
        a bare TypeError and 10**400 a bare OverflowError."""
        with pytest.raises(InputError, match="^expected a K x T matrix of numbers: "):
            Cas(act)

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
        with pytest.raises(InputError,
                           match="^video record: 'fps' must be a positive finite number$"):
            VideoRecord("v", Cas(np.zeros((2, 4))), (1,), fps)

    @pytest.mark.parametrize("video_id", ["", ".", "..", "../../escaped", "a/b", "v/", "a\0b"])
    def test_rejects_an_id_that_is_not_a_file_name(self, video_id):
        with pytest.raises(InputError, match="is not a file name"):
            VideoRecord(video_id, Cas(np.zeros((2, 4))), (1,), 30.0)

    @pytest.mark.parametrize("field, value, message", [
        ("video_id", 3, "'video_id' must be a string"),
        ("fps", "30", "'fps' must be a positive finite number"),
        ("fps", True, "'fps' must be a positive finite number"),
        ("labels", (1.5,), "'labels' must be a list or tuple of integers"),
        ("labels", ("x",), "'labels' must be a list or tuple of integers"),
        ("labels", (True,), "'labels' must be a list or tuple of integers"),
    ], ids=["id-int", "fps-str", "fps-bool", "label-float", "label-str", "label-bool"])
    def test_refuses_a_field_of_the_wrong_type(self, field, value, message):
        """Unchecked, fps "30" and id 3 are bare TypeErrors, label "x" a bare
        ValueError, and fps True and label 1.5 are taken as 1."""
        fields = {"video_id": "v", "cas": Cas(np.zeros((2, 4))), "labels": (1,), "fps": 30.0}
        with pytest.raises(InputError, match=f"^video record: {message}$"):
            VideoRecord(**{**fields, field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("cas", np.zeros((2, 4)), "'cas' must be a Cas"),
        ("labels", 1, "'labels' must be a list or tuple of integers"),
        ("gt", 5, "'gt' must be None or a list or tuple of GroundTruthSegments"),
        ("gt", (3,), "'gt' must be None or a list or tuple of GroundTruthSegments"),
    ], ids=["cas-array", "labels-int", "gt-int", "gt-of-ints"])
    def test_refuses_a_cas_labels_or_gt_of_the_wrong_type(self, field, value, message):
        """Unchecked, a cas array is a bare AttributeError, labels 1 and gt 5
        bare TypeErrors, and gt (3,) is accepted, to fail in evaluation."""
        fields = {"video_id": "v", "cas": Cas(np.zeros((2, 4))), "labels": (1,), "fps": 30.0}
        with pytest.raises(InputError, match=f"^video record: {message}$"):
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
        ((1.5, 0.0, 1.0), "'class_id' must be an integer"),
        ((True, 0.0, 1.0), "'class_id' must be an integer"),
        ((1, "0", 2.0), "'start_s' must be a finite number"),
        ((1, 0.0, None), "'end_s' must be a finite number"),
    ], ids=["class-float", "class-bool", "start-str", "end-none"])
    def test_refuses_a_field_of_the_wrong_type(self, segment, message):
        """Unchecked, start "0" is a bare TypeError and class 1.5 is accepted."""
        with pytest.raises(InputError, match=f"^ground truth: {message}$"):
            GroundTruthSegment(*segment)

    def test_refuses_a_video_id_that_is_not_a_string(self):
        """Unchecked, it is accepted, and gt_instances stamps over it."""
        with pytest.raises(InputError, match="^ground truth: 'video_id' must be a string$"):
            GroundTruthSegment(1, 0.0, 1.0, video_id=5)

    def test_rejects_an_end_that_is_not_finite(self):
        with pytest.raises(InputError, match="^ground truth: 'end_s' must be a finite number$"):
            GroundTruthSegment(1, 0.0, float("inf"))

    @pytest.mark.parametrize("huge", [2**1024, 10**400], ids=["2**1024", "10**400"])
    def test_rejects_an_end_too_large_for_a_float(self, huge):
        """Unchecked, it is accepted, and map_report raises a bare OverflowError."""
        with pytest.raises(InputError, match="^ground truth: 'end_s' must be a finite number$"):
            GroundTruthSegment(1, 0.0, huge)
