import csv

import numpy as np
import pytest

from oicloc import io
from oicloc.cas import Cas, GroundTruthSegment, VideoRecord
from oicloc.errors import InputError
from oicloc.selection import Prediction


@pytest.fixture
def video(rng):
    cas = Cas(rng.uniform(0, 1, size=(3, 17)))
    gt = (GroundTruthSegment(2, 1.0, 4.0),)
    return VideoRecord("vid_0001", cas, (2,), 30.0, gt=gt)


class TestCasCsv:
    def test_roundtrip_is_bit_exact(self, tmp_path, video):
        path = tmp_path / "cas.csv"
        io.write_cas_csv(path, video.cas)
        back = io.read_cas_csv(path)
        assert np.array_equal(back.act, video.cas.act)

    @pytest.mark.parametrize("line_end", ["\r\n", "\n"])
    def test_written_files_parse_in_bulk_to_the_line_readers_bits(self, tmp_path, line_end):
        act = np.random.default_rng(4).uniform(0, 1, (3, 40))
        path = tmp_path / "cas.csv"
        io.write_cas_csv(path, Cas(act))
        text = path.read_bytes().decode().replace("\r\n", line_end)
        path.write_text(text, newline="")
        bulk = io._parse_cas_bulk(text)
        assert bulk is not None
        lines = io._read_cas_lines(path).act
        assert bulk.tobytes() == lines.tobytes() and bulk.strides == lines.strides

    def test_bytes_match_the_csv_writer_form(self, tmp_path):
        act = np.array([[5e-324, 0.1, 1.0, 1 / 3, -0.0], [0.0, 1 - 2**-53, 0.7, 2**-1074, 0.5]])
        path = tmp_path / "cas.csv"
        io.write_cas_csv(path, Cas(act))
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["snippet", "class_1", "class_2"])
            for t in range(1, act.shape[1] + 1):
                writer.writerow([t] + [repr(float(v)) for v in act[:, t - 1]])
        assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert b"5e-324,0.0\r\n" in path.read_bytes()

    def test_header_layout(self, tmp_path, video):
        path = tmp_path / "cas.csv"
        io.write_cas_csv(path, video.cas)
        header = path.read_text().splitlines()[0]
        assert header == "snippet,class_1,class_2,class_3"

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("snippet,klass_1\n1,0.5\n")
        with pytest.raises(InputError):
            io.read_cas_csv(path)

    def test_rejects_gap_in_snippet_indices(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("snippet,class_1\n1,0.5\n3,0.5\n")
        with pytest.raises(InputError):
            io.read_cas_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError):
            io.read_cas_csv(path)


class TestManifest:
    def test_roundtrip(self, tmp_path, video):
        path = tmp_path / "manifest.json"
        io.write_manifest(path, [video], cas_dir="cas")
        back = io.read_manifest(path)
        assert len(back) == 1
        v = back[0]
        assert v.video_id == video.video_id
        assert v.labels == video.labels
        assert v.fps == video.fps
        assert v.gt == video.gt
        assert np.array_equal(v.cas.act, video.cas.act)

    def test_unknown_keys_rejected(self, tmp_path, video):
        path = tmp_path / "manifest.json"
        io.write_manifest(path, [video])
        text = path.read_text().replace('"fps"', '"features": "x", "fps"', 1)
        path.write_text(text)
        with pytest.raises(InputError):
            io.read_manifest(path)

    def test_not_an_array_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"video_id": "v"}')
        with pytest.raises(InputError):
            io.read_manifest(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[")
        with pytest.raises(InputError):
            io.read_manifest(path)


class TestPredictions:
    def test_roundtrip_sorted_by_score(self, tmp_path):
        preds = [
            Prediction(1, 0.0, 2.0, 0.4, video_id="a"),
            Prediction(2, 1.0, 3.0, 0.9, video_id="b"),
        ]
        path = tmp_path / "preds.jsonl"
        io.write_predictions_jsonl(path, preds)
        back = io.read_predictions_jsonl(path)
        assert [p.score for p in back] == [0.9, 0.4]
        assert back[0].video_id == "b"
        assert back[1].class_id == 1

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"video_id": "a", "class": 1, "start_s": 0.0, "end_s": 1.0, "score": 1.0}\nnot json\n')
        with pytest.raises(InputError, match=":2:"):
            io.read_predictions_jsonl(path)

    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", "prediction must be a JSON object"),
        ('{"video_id": "a", "class": 1, "start_s": 0.0, "end_s": 1.0, "score": "x"}',
         "'score' must be a number"),
        ('{"video_id": "a", "class": "1", "start_s": 0.0, "end_s": 1.0, "score": 1.0}',
         "'class' must be an integer"),
        ('{"video_id": "a", "class": true, "start_s": 0.0, "end_s": 1.0, "score": 1.0}',
         "'class' must be an integer"),
        ('{"video_id": 3, "class": 1, "start_s": 0.0, "end_s": 1.0, "score": 1.0}',
         "'video_id' must be a string"),
        ('{"video_id": "a", "class": 1, "start_s": 0.0, "score": 1.0}',
         "'end_s' must be a number"),
    ])
    def test_malformed_line_names_line_and_key(self, tmp_path, line, message):
        path = tmp_path / "preds.jsonl"
        good = '{"video_id": "a", "class": 1, "start_s": 0.0, "end_s": 1.0, "score": 1.0}'
        path.write_text(f"{good}\n{line}\n")
        with pytest.raises(InputError) as err:
            io.read_predictions_jsonl(path)
        assert str(err.value) == f"{path}:2: {message}"

    def test_non_utf8_line(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_bytes(b'\n{"video_id": "\xff"}\n')
        with pytest.raises(InputError, match=":2: .*utf-8"):
            io.read_predictions_jsonl(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text("\n")
        assert io.read_predictions_jsonl(path) == []
