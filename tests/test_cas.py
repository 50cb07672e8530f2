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

    @pytest.mark.parametrize("fps", [float("nan"), float("inf")])
    def test_rejects_an_fps_that_is_not_finite(self, fps):
        with pytest.raises(InputError, match="fps must be positive and finite"):
            VideoRecord("v", Cas(np.zeros((2, 4))), (1,), fps)

    @pytest.mark.parametrize("video_id", ["", ".", "..", "../../escaped", "a/b", "v/", "a\0b"])
    def test_rejects_an_id_that_is_not_a_file_name(self, video_id):
        with pytest.raises(InputError, match="is not a file name"):
            VideoRecord(video_id, Cas(np.zeros((2, 4))), (1,), 30.0)

    @pytest.mark.parametrize("video_id", ["...", "..v", "v.", "video 1", "a\\b"])
    def test_accepts_any_other_id(self, video_id):
        assert VideoRecord(video_id, Cas(np.zeros((2, 4))), (1,), 30.0).video_id == video_id


class TestGroundTruth:
    def test_rejects_reversed(self):
        with pytest.raises(InputError):
            GroundTruthSegment(1, 5.0, 4.0)
        with pytest.raises(InputError):
            GroundTruthSegment(1, -1.0, 4.0)

    def test_rejects_an_end_that_is_not_finite(self):
        with pytest.raises(InputError, match="start < end < inf"):
            GroundTruthSegment(1, 0.0, float("inf"))
