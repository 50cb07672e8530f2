import csv
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from oicloc import baselines, errors, io
from oicloc.cas import Cas, GroundTruthSegment, VideoRecord
from oicloc.config import RunConfig
from oicloc.errors import InputError
from oicloc.selection import Prediction
from oicloc.synth import SynthSpec, synth_corpus
from oicloc.train import train_network


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
    def test_written_files_read_back_with_the_same_bits_and_strides(self, tmp_path, line_end):
        cas = Cas(np.random.default_rng(4).uniform(0, 1, (3, 40)))
        path = tmp_path / "cas.csv"
        io.write_cas_csv(path, cas)
        text = path.read_bytes().replace(b"\r\n", line_end.encode())
        for data in (text, text.removesuffix(line_end.encode())):  # the last line end is optional
            path.write_bytes(data)
            back = io.read_cas_csv(path)
            for got, want in ((back.act, cas.act), (back.padded, cas.padded)):
                assert got.tobytes() == want.tobytes() and got.strides == want.strides

    @pytest.mark.parametrize("text, refusal", [
        ('snippet,class_1\n1,0.5\n2,"0.5"\n', ":3: quoted cell"),
        ('snippet,"class_1"\n1,0.5\n', ":1: quoted cell"),
        ("snippet,class_1\n\n1,0.5\n", ":2: expected 2 columns"),
        ("snippet,class_1\n1,0.5\n\n", ":3: expected 2 columns"),
        ("snippet,class_1\n1,0.5,0.5\n", ":2: expected 2 columns"),
        ("snippet,class_1\r1,0.5\r", ": mixed line ends"),
        ("snippet,class_1\r\n1,0.5\n", ": mixed line ends"),
        ("snippet,class_1\n1,0.5\r\n", ": mixed line ends"),
        ("snippet,class_1\n01,0.5\n", ":2: snippet indices must run 1..T"),
        ("snippet,class_1\n1,0.5\n+2,0.5\n", ":3: snippet indices must run 1..T"),
        ("snippet,class_1\n1,0.5\n 2,0.5\n", ":3: snippet indices must run 1..T"),
        ("snippet,class_1\n1.0,0.5\n", ":2: snippet indices must run 1..T"),
    ])
    def test_refuses_other_spellings_on_their_line(self, tmp_path, text, refusal):
        path = tmp_path / "cas.csv"
        path.write_bytes(text.encode())
        with pytest.raises(InputError) as err:
            io.read_cas_csv(path)
        assert str(err.value) == f"{path}{refusal}"

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

    def test_repeated_video_id_names_both_entries(self, tmp_path, video):
        path = tmp_path / "manifest.json"
        io.write_manifest(path, [video])
        entry = json.loads(path.read_text())[0]
        path.write_text(json.dumps([entry, {**entry, "video_id": "other"}, entry]))
        with pytest.raises(InputError) as refused:
            io.read_manifest(path)
        assert str(refused.value) == (
            f"{path}: manifest entries 0 and 2 share video id 'vid_0001'")

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

    @pytest.mark.parametrize("mode", ["full", "threshold", "oic_select"])
    def test_detector_predictions_read_back_in_the_writers_order(self, tmp_path, mode):
        spec = SynthSpec(num_classes=2, t_range=(30, 40), instances_range=(1, 2),
                         base_activation=0.95, background=0.03)
        videos = synth_corpus(spec, 1, 3)
        cfg = RunConfig(anchors=(2, 4, 8), feature_dim=8, hidden=8)
        net = train_network(videos, cfg).net if mode == "full" else None
        preds = baselines.detect(mode, videos, cfg, net)
        path = tmp_path / "preds.jsonl"
        io.write_predictions_jsonl(path, preds)
        written = sorted(preds, key=lambda p: (-p.score, p.video_id, p.start_s, p.class_id))
        assert preds and io.read_predictions_jsonl(path) == written

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"video_id": "a", "class": 1, "start_s": 0.0, "end_s": 1.0, "score": 1.0}\nnot json\n')
        with pytest.raises(InputError, match=":2:"):
            io.read_predictions_jsonl(path)

    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", "prediction must be a JSON object"),
        ('{"video_id": "a", "class": 1, "start_s": 0.0, "end_s": 1.0, "score": "x"}',
         "prediction: 'score' must be a finite number"),
        ('{"video_id": "a", "class": "1", "start_s": 0.0, "end_s": 1.0, "score": 1.0}',
         "prediction: 'class' must be an integer"),
        ('{"video_id": "a", "class": true, "start_s": 0.0, "end_s": 1.0, "score": 1.0}',
         "prediction: 'class' must be an integer"),
        ('{"video_id": 3, "class": 1, "start_s": 0.0, "end_s": 1.0, "score": 1.0}',
         "prediction: 'video_id' must be a string"),
        ('{"video_id": "a", "class": 1, "start_s": 0.0, "score": 1.0}',
         "prediction: lacks keys ['end_s']"),
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


class TestOneWayIn:
    def test_json_is_parsed_only_in_io_and_refused_with_one_error_type(self):
        """``io.parse_json`` is the package's one JSON parser, and every
        refusal of outside input is an InputError."""
        for path in Path(io.__file__).parent.glob("*.py"):
            if path.name != "io.py":
                assert not re.search(r"json\.loads?\b|JSONDecoder", path.read_text()), path.name
        types = [name for name, value in vars(errors).items() if isinstance(value, type)]
        assert types == ["InputError", "UsageError", "TrainingError"]

    @pytest.mark.parametrize("data, message", [
        (b'{"a": 1, "b": {"c": 2, "c": 2}}', "repeated key 'c'"),
        (b'[{"a": 1}, {"b": 1, "a": 2, "b": 3}]', "repeated key 'b'"),
        (b"1" * 5000, "Exceeds the limit (4300 digits)"),
        (b"\xef\xbb\xbf{}", "Expecting value"),
        (b'{"a": "\xff"}', "'utf-8' codec can't decode"),
    ], ids=["nested", "in-a-list", "integer-too-long", "byte-order-mark", "not-utf-8"])
    def test_parse_json_refusals(self, data, message):
        with pytest.raises(InputError) as refused:
            io.parse_json(data)
        assert str(refused.value).startswith(message)

    def test_check_object_names_what_it_checked(self):
        rules, required = dict.fromkeys("abc", errors.POSITIVE_INTEGER), frozenset("ab")
        assert errors.check_object({"a": 1, "b": 2}, "thing", rules, required) == {"a": 1, "b": 2}
        for obj, message in [([], "thing must be a JSON object"),
                             ({"a": 1, "b": 2, "z": 0, "y": 0}, "thing: unknown keys ['y', 'z']"),
                             ({"c": 1}, "thing: lacks keys ['a', 'b']"),
                             ({"a": 1, "b": 0, "c": "x"}, "thing: 'b' must be a positive integer")]:
            with pytest.raises(InputError) as refused:
                errors.check_object(obj, "thing", rules, required)
            assert str(refused.value) == message

    def test_a_positive_integer_is_at_most_sys_maxsize(self):
        """No list or array is longer, so a count, a width or an epoch count
        above it can never be honoured; unchecked, synth_corpus(spec, 0,
        10**400) starts a corpus that no list can hold."""
        check = errors.POSITIVE_INTEGER[0]
        assert check(sys.maxsize) and not check(sys.maxsize + 1) and not check(10**400)
        with pytest.raises(InputError, match="^synth_corpus: 'count' must be a positive integer$"):
            synth_corpus(SynthSpec(2, (30, 45), (1, 2)), 0, 10**400)
