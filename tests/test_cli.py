import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from oracles import checkpoint_tensors, checkpoint_v3

from oicloc import baselines, cli, io
from oicloc.cli import main
from oicloc.config import load_config
from oicloc.gradcheck import CheckResult
from oicloc.regressor import NetworkB

SPEC = {
    "num_classes": 2,
    "t_range": [30, 45],
    "instances_range": [1, 2],
    "base_activation": 0.95,
    "noise_amp": 0.02,
    "background": 0.03,
    "gap_range": [8, 14],
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    assert main(["synth", "--spec", str(spec_path), "--out", str(root / "corpus"),
                 "--seed", "3", "--count", "6"]) == 0
    config = {
        "version": 1,
        "profile": "synthetic",
        "manifest": "corpus/manifest.json",
        "anchors": [2, 4, 8],
        "feature_dim": 8,
        "hidden": 8,
        "direct_opt_iters": 5,
    }
    (root / "run.json").write_text(json.dumps(config))
    return root


class TestSynth:
    def test_writes_manifest_and_cas(self, workspace):
        videos = io.read_manifest(workspace / "corpus" / "manifest.json")
        assert len(videos) == 6
        assert all(v.gt for v in videos)


class TestTrainPredictEval:
    def test_full_pipeline(self, workspace):
        run = workspace / "run.json"
        assert main(["train", "--config", str(run), "--out", str(workspace / "model"),
                     "--seed", "0"]) == 0
        ckpt = workspace / "model" / "checkpoint.ckpt"
        assert ckpt.exists()
        assert (workspace / "model" / "loss.csv").exists()

        preds = workspace / "preds.jsonl"
        assert main(["predict", "--config", str(run), "--checkpoint", str(ckpt),
                     "--mode", "full", "--out", str(preds)]) == 0
        assert io.read_predictions_jsonl(preds)

        report = workspace / "report.json"
        assert main(["eval", "--pred", str(preds),
                     "--manifest", str(workspace / "corpus" / "manifest.json"),
                     "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert "avg_mAP" in payload
        assert report.with_suffix(".csv").exists()

    def test_checkpoint_records_the_run(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        run = workspace / "run.json"
        assert main(["train", "--config", str(run), "--out", str(tmp_path), "--seed", "4"]) == 0
        meta = NetworkB.load(tmp_path / "checkpoint.ckpt").meta
        assert meta["config"] == json.loads(json.dumps(asdict(load_config(run))))
        assert meta["seed"] == 4
        assert meta["numpy"] == np.__version__
        assert meta["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3",
                                   "MKL_NUM_THREADS": None}
        assert {"oicloc", "blas"} <= set(meta)

    def test_eval_reads_integer_seconds(self, workspace, tmp_path):
        corpus = workspace / "corpus"
        entries = json.loads((corpus / "manifest.json").read_text())
        lines = []
        for e in entries:
            for g in e["gt"]:
                g["start_s"], g["end_s"] = int(g["start_s"]), int(g["end_s"]) + 1
                lines.append(json.dumps({"video_id": e["video_id"], "class": g["class"],
                                         "start_s": g["start_s"], "end_s": g["end_s"],
                                         "score": 1}))
        manifest = corpus / "manifest_integer_seconds.json"
        manifest.write_text(json.dumps(entries))
        pred = tmp_path / "preds.jsonl"
        pred.write_text("\n".join(lines))
        report = tmp_path / "report.json"
        assert main(["eval", "--pred", str(pred), "--manifest", str(manifest),
                     "--out", str(report)]) == 0
        assert json.loads(report.read_text())["avg_mAP"] == 1.0

    def test_eval_activitynet_profile_scores_its_ten_thresholds(self, workspace, tmp_path, capsys):
        entries = json.loads((workspace / "corpus" / "manifest.json").read_text())
        pred = tmp_path / "preds.jsonl"  # every ground truth segment, found
        pred.write_text("\n".join(
            json.dumps({"video_id": e["video_id"], "class": g["class"], "start_s": g["start_s"],
                        "end_s": g["end_s"], "score": 1.0})
            for e in entries for g in e["gt"]))
        report = tmp_path / "report.json"
        assert main(["eval", "--pred", str(pred), "--manifest",
                     str(workspace / "corpus" / "manifest.json"), "--profile", "activitynet",
                     "--out", str(report)]) == 0
        thresholds = ["0.5", "0.55", "0.6", "0.65", "0.7", "0.75", "0.8", "0.85", "0.9", "0.95"]
        payload = json.loads(report.read_text())
        assert list(payload) == thresholds + ["avg_mAP"] and payload["avg_mAP"] == 1.0
        assert capsys.readouterr().out.splitlines() == (
            [f"mAP@{thr}: 1.0000" for thr in thresholds] + ["avg mAP: 1.0000"])

    def test_threshold_mode_needs_no_checkpoint(self, workspace):
        out = workspace / "thr.jsonl"
        assert main(["predict", "--config", str(workspace / "run.json"),
                     "--mode", "threshold", "--out", str(out)]) == 0
        assert out.exists()

    def test_full_mode_without_checkpoint_fails(self, workspace):
        code = main(["predict", "--config", str(workspace / "run.json"),
                     "--mode", "full", "--out", str(workspace / "x.jsonl")])
        assert code == 2


class TestErrors:
    def test_config_without_manifest(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"version": 1}')
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "m")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "m")]) == 2


class TestBadInput:
    """Malformed corpora end in one ``error:`` line on stderr and exit code 2."""

    ENTRY = {"video_id": "v", "cas_path": "v.csv", "labels": [1], "fps": 30.0}

    def train(self, tmp_path, capsys, cas_text, entry=ENTRY):
        cas_bytes = cas_text if isinstance(cas_text, bytes) else cas_text.encode()
        (tmp_path / "v.csv").write_bytes(cas_bytes)
        (tmp_path / "manifest.json").write_text(json.dumps([entry]))
        config = {"version": 1, "profile": "synthetic", "manifest": "manifest.json",
                  "anchors": [2, 4], "feature_dim": 8, "hidden": 8}
        (tmp_path / "run.json").write_text(json.dumps(config))
        code = main(["train", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_non_numeric_cas_cell(self, tmp_path, capsys):
        err = self.train(tmp_path, capsys, "snippet,class_1\n1,0.5\n2,abc\n")
        assert "v.csv:3:" in err

    def test_cas_cell_outside_unit_interval(self, tmp_path, capsys):
        err = self.train(tmp_path, capsys, "snippet,class_1\n1,0.5\n2,1.5\n")
        assert "v.csv" in err and "[0, 1]" in err

    def test_manifest_entry_without_fps(self, tmp_path, capsys):
        entry = {k: v for k, v in self.ENTRY.items() if k != "fps"}
        err = self.train(tmp_path, capsys, "snippet,class_1\n1,0.5\n", entry)
        assert "manifest.json: manifest entry 0: lacks keys ['fps']" in err

    def test_cas_csv_with_blank_header_line(self, tmp_path, capsys):
        err = self.train(tmp_path, capsys, "\nsnippet,class_1\n1,0.5\n")
        assert "v.csv: expected header" in err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_synth_count_below_one(self, tmp_path, capsys, count):
        spec = {"num_classes": 2, "t_range": [30, 45], "instances_range": [1, 2]}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        code = main(["synth", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "corpus"), "--count", count])
        err = capsys.readouterr().err
        assert code == 2 and err == "error: synth_corpus: 'count' must be a positive integer\n"
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("command", [["synth", "--spec", "s.json", "--out", "o"],
                                         ["train", "--config", "r.json", "--out", "o"],
                                         ["predict", "--config", "r.json", "--out", "p.jsonl"],
                                         ["gradcheck"],
                                         ["ablate", "--config", "r.json", "--out", "o"]])
    def test_negative_seed_is_refused_by_the_parser(self, capsys, command):
        with pytest.raises(SystemExit) as exited:
            main([*command, "--seed", "-1"])
        err = capsys.readouterr().err
        assert exited.value.code == 2
        assert err.splitlines()[-1] == (f"oicloc {command[0]}: error: argument --seed: "
                                        "must be a non-negative integer, got -1")

    def test_path_like_video_id_writes_nothing(self, tmp_path, capsys):
        # ablate writes plot_data/<id>.csv: this id once escaped to out/escaped.csv
        (tmp_path / "v.csv").write_text("snippet,class_1\n1,0.5\n")
        (tmp_path / "manifest.json").write_text(
            json.dumps([{**self.ENTRY, "video_id": "../../escaped"}]))
        (tmp_path / "run.json").write_text(
            json.dumps({"version": 1, "profile": "synthetic", "manifest": "manifest.json"}))
        code = main(["ablate", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / "out" / "abl")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: {tmp_path / 'manifest.json'}: manifest entry 0: "
                       "video id '../../escaped' is not a file name\n")
        assert not (tmp_path / "out").exists()

    def test_synth_prefix_with_a_slash(self, tmp_path, capsys):
        (tmp_path / "spec.json").write_text(json.dumps(SPEC))
        code = main(["synth", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "corpus"), "--count", "1", "--prefix", "../x"])
        err = capsys.readouterr().err
        assert code == 2 and err == "error: video id '../x_0000' is not a file name\n"
        assert not (tmp_path / "corpus").exists()

    def test_repeated_video_id(self, tmp_path, capsys):
        # eval would pool both videos' ground truth under the one id
        (tmp_path / "v.csv").write_text("snippet,class_1\n1,0.5\n")
        (tmp_path / "manifest.json").write_text(json.dumps([self.ENTRY, self.ENTRY]))
        (tmp_path / "preds.jsonl").write_text("")
        code = main(["eval", "--pred", str(tmp_path / "preds.jsonl"),
                     "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: {tmp_path / 'manifest.json'}: "
                       "manifest entries 0 and 1 share video id 'v'\n")
        assert not (tmp_path / "report.json").exists()

    def test_manifest_that_lists_no_videos(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text("[]")
        (tmp_path / "run.json").write_text(json.dumps({"version": 1, "manifest": "manifest.json"}))
        code = main(["train", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / "m")])
        assert code == 2 and not (tmp_path / "m").exists()
        assert capsys.readouterr().err == (f"error: {tmp_path / 'manifest.json'}: "
                                           "manifest lists no videos\n")

    def test_eval_against_a_manifest_without_ground_truth(self, tmp_path, capsys):
        (tmp_path / "v.csv").write_text("snippet,class_1\n1,0.5\n")
        (tmp_path / "manifest.json").write_text(json.dumps([{**self.ENTRY, "gt": []}]))
        (tmp_path / "p.jsonl").write_text("")
        code = main(["eval", "--pred", str(tmp_path / "p.jsonl"), "--manifest",
                     str(tmp_path / "manifest.json"), "--out", str(tmp_path / "e.json")])
        err = capsys.readouterr().err
        assert code == 2 and not (tmp_path / "e.json").exists()
        assert err == (f"error: --manifest {tmp_path / 'manifest.json'}: "
                       "no video has a ground truth segment\n")

    def test_ablate_refuses_a_test_manifest_without_ground_truth_before_training(
            self, workspace, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(baselines, "compare", lambda *args, **kw: pytest.fail("trained"))
        (tmp_path / "v.csv").write_text("snippet,class_1\n1,0.5\n")
        (tmp_path / "manifest.json").write_text(json.dumps([self.ENTRY]))
        (tmp_path / "test.json").write_text(json.dumps({"version": 1, "manifest": "manifest.json"}))
        code = main(["ablate", "--config", str(workspace / "run.json"), "--test-config",
                     str(tmp_path / "test.json"), "--out", str(tmp_path / "ablate")])
        assert code == 2 and not (tmp_path / "ablate").exists()
        assert capsys.readouterr().err == (f"error: {tmp_path / 'manifest.json'}: "
                                           "no video has a ground truth segment\n")

    @pytest.mark.filterwarnings("error")  # a NumPy overflow warning fails the test
    @pytest.mark.parametrize("videos, lr", [(1, 1e308), (6, 1.7e308)])
    def test_a_numeric_blow_up_in_training_is_one_error_line(self, workspace, tmp_path, capsys,
                                                               videos, lr):
        corpus = workspace / "corpus"
        entries = [{**entry, "cas_path": str(corpus / entry["cas_path"])}
                   for entry in json.loads((corpus / "manifest.json").read_text())[:videos]]
        (tmp_path / "manifest.json").write_text(json.dumps(entries))
        config = {**json.loads((workspace / "run.json").read_text()),
                  "manifest": "manifest.json", "lr": lr}
        (tmp_path / "run.json").write_text(json.dumps(config))
        code = main(["train", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / "m")])
        assert code == 2 and not (tmp_path / "m" / "checkpoint.ckpt").exists()
        assert re.fullmatch(r"error: non-finite parameter in \S+ at iteration \d+\n",
                            capsys.readouterr().err)

    @pytest.mark.parametrize("fps", [float("nan"), float("inf")])
    def test_non_finite_fps(self, tmp_path, capsys, fps):
        err = self.train(tmp_path, capsys, "snippet,class_1\n1,0.5\n", {**self.ENTRY, "fps": fps})
        assert "manifest.json: manifest entry 0: 'fps' must be a positive finite number" in err

    def test_newline_in_cas_path_stays_on_one_line(self, tmp_path, capsys):
        err = self.train(tmp_path, capsys, "snippet,class_1\n1,0.5\n",
                         {**self.ENTRY, "cas_path": "a\nb.csv"})
        assert "a\\nb.csv" in err

    @pytest.mark.parametrize("cell", ['"' + "0" * 200_000 + '"'])
    def test_cas_cell_over_the_csv_field_limit(self, tmp_path, capsys, cell):
        err = self.train(tmp_path, capsys, f"snippet,class_1\n1,{cell}\n")
        assert err.endswith("v.csv:2: quoted cell\n")

    def test_non_utf8_cas_csv(self, tmp_path, capsys):
        err = self.train(tmp_path, capsys, b"snippet,class_1\n1,0.5\xff\n")
        assert "v.csv: " in err and "utf-8" in err

    @pytest.mark.parametrize("key, value", [
        ("fps", "30"), ("fps", True), ("video_id", 7), ("cas_path", ["v.csv"]),
        ("labels", 1), ("labels", ["1"]), ("gt", {"class": 1}),
        ("gt", [{"class": 1, "start_s": "0", "end_s": 1.0}]),
    ])
    def test_mistyped_manifest_field(self, tmp_path, capsys, key, value):
        err = self.train(tmp_path, capsys, "snippet,class_1\n1,0.5\n", {**self.ENTRY, key: value})
        where = "gt[0]: 'start_s'" if isinstance(value, list) and key == "gt" else f"'{key}'"
        assert f"manifest.json: manifest entry 0: {where} must be" in err

    @pytest.mark.parametrize("text", [
        "{", '{"num_classes": 2}', "[1]",
        '{"num_classes": 2, "t_range": 5, "instances_range": [1, 2]}',
        '{"num_classes": 2, "t_range": [30, 40], "instances_range": [1, 2], "noise_amp": "x"}',
    ])
    def test_malformed_synth_spec(self, tmp_path, capsys, text):
        (tmp_path / "bad.json").write_text(text)
        code = main(["synth", "--spec", str(tmp_path / "bad.json"), "--out", str(tmp_path / "c")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'bad.json'}: ") and err.count("\n") == 1
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("key, value", [
        ("background", "5.0"), ("noise_amp", "NaN"), ("dip_prob", "-0.5"),
        ("bridge_prob", "Infinity"), ("level_jitter", "2"), ("dip_level", "1.01"),
        ("bridge_level", "-Infinity"), ("fps", "Infinity"), ("fps", "NaN"),
    ])
    def test_synth_spec_value_out_of_range(self, tmp_path, capsys, key, value):
        text = ('{"num_classes": 2, "t_range": [30, 40], "instances_range": [1, 2], '
                f'"{key}": {value}}}')
        (tmp_path / "bad.json").write_text(text)
        code = main(["synth", "--spec", str(tmp_path / "bad.json"), "--out", str(tmp_path / "c")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'bad.json'}: ") and err.count("\n") == 1
        assert f"'{key}' must be a" in err and "finite" in err
        assert not (tmp_path / "c").exists()


    @pytest.mark.parametrize("text, message", [
        ('{"version": 1, "profile": []}', "config: 'profile' must be one of ['activitynet', "),
        (b'{"version": 1, "profile": "\xff"}', "utf-8"),
        pytest.param('{"version": 1, "epochs": ' + "1" * 5000 + "}", "Exceeds the limit",
                     id="integer-too-long-for-int"),  # int() refuses it with a bare ValueError
    ])
    def test_bad_config_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "run.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert message in err

    # reader -> (the object it reads, a key it requires, what the reader calls
    # the object, a mistyped value of that key)
    READERS = {
        "config": ({"version": 1, "profile": "synthetic", "manifest": "corpus/manifest.json",
                    "anchors": [2, 4, 8], "feature_dim": 8, "hidden": 8}, "version", "config",
                   "1"),
        "synth spec": (SPEC, "t_range", "synth spec", 5),
        "manifest": (ENTRY, "fps", "manifest entry 0", "30"),
        "predictions": ({"video_id": "v", "class": 1, "start_s": 0.0, "end_s": 1.0,
                         "score": 0.5}, "score", "prediction", "x"),
        "checkpoint": (checkpoint_v3(NetworkB(feature_dim=8, anchor_count=3, hidden=8))[0],
                       "meta", "checkpoint header", []),
    }

    def refused(self, workspace, tmp_path, capsys, reader, text) -> str:
        """The one stderr line with which the command that reads ``text`` as
        ``reader``'s object exits 2, less its ``error: <file>: `` prefix."""
        good = self.READERS[reader][0]
        path, where, out = tmp_path / "bad", str(tmp_path / "bad"), str(tmp_path / "out")
        corpus = str(workspace / "corpus" / "manifest.json")
        command, data = {
            "config": (["train", "--config", where, "--out", out], text),
            "synth spec": (["synth", "--spec", where, "--out", out], text),
            "manifest": (["eval", "--pred", str(tmp_path / "none.jsonl"), "--manifest", where,
                          "--out", out], f"[{text}]"),
            "predictions": (["eval", "--pred", where, "--manifest", corpus, "--out", out],
                            f"{json.dumps(good)}\n{text}\n"),
            "checkpoint": (["predict", "--config", str(workspace / "run.json"), "--checkpoint",
                            where, "--out", out], f"{text}\n"),
        }[reader]
        path.write_text(data)
        (tmp_path / "none.jsonl").write_text("")
        assert main(command) == 2
        err = capsys.readouterr().err
        prefix = f"error: {path}{':2' if reader == 'predictions' else ''}: "
        assert err.startswith(prefix) and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        return err[len(prefix):]

    @pytest.mark.parametrize("fault", ["not JSON", "not an object", "unknown key", "missing key",
                                       "repeated key", "mistyped value"])
    @pytest.mark.parametrize("reader", list(READERS))
    def test_every_json_reader_refuses_bad_input(self, workspace, tmp_path, capsys,
                                                  reader, fault):
        good, key, what, mistyped = self.READERS[reader]
        text = json.dumps(good)
        text, message = {
            "not JSON": (text[:-1], "Expecting"),
            "not an object": ("[1]", "must be a JSON object"),
            "unknown key": (json.dumps({**good, "extra": 1}), "unknown keys ['extra']"),
            "missing key": (json.dumps({k: v for k, v in good.items() if k != key}),
                            f"lacks keys ['{key}']"),
            "repeated key": (f"{text[:-1]}, {json.dumps(key)}: {json.dumps(good[key])}}}",
                             f"repeated key '{key}'"),
            "mistyped value": (json.dumps({**good, key: mistyped}), f"{what}: '{key}' must be "),
        }[fault]
        err = self.refused(workspace, tmp_path, capsys, reader, text)
        assert err.startswith(message) if fault == "mistyped value" else message in err

    SEGMENT = {"class": 1, "start_s": 0.0, "end_s": 0.1}

    @pytest.mark.parametrize("reader, change, message", [
        ("manifest", {"gt": [SEGMENT, {**SEGMENT, "score": 7}]},
         "manifest entry 0: gt[1]: unknown keys ['score']"),
        ("config", {"version": True}, "config: 'version' must be the integer 1"),
        ("config", {"version": 1.0}, "config: 'version' must be the integer 1"),
        ("checkpoint", {"version": 3.0}, "checkpoint header: 'version' must be the integer 3"),
        ("checkpoint", {"version": True}, "checkpoint header: 'version' must be the integer 3"),
    ], ids=["gt-segment-key", "config-version-true", "config-version-1.0",
            "checkpoint-version-3.0", "checkpoint-version-true"])
    def test_refuses_a_version_of_another_type_and_an_unknown_segment_key(
            self, workspace, tmp_path, capsys, reader, change, message):
        text = json.dumps({**self.READERS[reader][0], **change})
        assert self.refused(workspace, tmp_path, capsys, reader, text) == message + "\n"

    def predict(self, workspace, tmp_path, capsys, checkpoint):
        code = main(["predict", "--config", str(workspace / "run.json"), "--checkpoint",
                     str(checkpoint), "--out", str(tmp_path / "p.jsonl")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {checkpoint}: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("key", ["feature_dim", "anchor_count", "hidden"])
    @pytest.mark.parametrize("value", ["8", None, 1.5])
    def test_mistyped_checkpoint_dimension(self, workspace, tmp_path, capsys, key, value):
        header, payload = checkpoint_v3(NetworkB(feature_dim=8, anchor_count=3, hidden=8))
        header[key] = value
        (tmp_path / "ckpt.ckpt").write_bytes(json.dumps(header).encode() + b"\n" + payload)
        err = self.predict(workspace, tmp_path, capsys, tmp_path / "ckpt.ckpt")
        assert f"'{key}' must be a positive integer" in err

    @pytest.mark.parametrize("name, value, message", [
        ("bn0.running_var", -1.0, "bn0.running_var holds a negative variance"),
        ("conv0.w", float("nan"), "conv0.w holds a non-finite value"),
    ])
    def test_checkpoint_value_that_cannot_be_right(self, workspace, tmp_path, capsys,
                                                   name, value, message):
        net = NetworkB(feature_dim=8, anchor_count=3, hidden=8)
        dict(checkpoint_tensors(net))[name].flat[0] = value
        net.save(tmp_path / "ckpt.ckpt")
        err = self.predict(workspace, tmp_path, capsys, tmp_path / "ckpt.ckpt")
        assert err == f"error: {tmp_path / 'ckpt.ckpt'}: checkpoint tensor {message}\n"

    def test_non_utf8_checkpoint(self, workspace, tmp_path, capsys):
        (tmp_path / "ckpt.json").write_bytes(b'{"version": 3, "hidden": "\xff"}')
        assert "utf-8" in self.predict(workspace, tmp_path, capsys, tmp_path / "ckpt.json")

    def test_checkpoint_config_mismatch(self, workspace, tmp_path, capsys):
        NetworkB(feature_dim=8, anchor_count=2, hidden=8).save(tmp_path / "ckpt.json")
        err = self.predict(workspace, tmp_path, capsys, tmp_path / "ckpt.json")
        assert "checkpoint has 2 anchors and feature_dim 8" in err
        assert "run.json has 3 anchors and feature_dim 8" in err

    @pytest.mark.parametrize("act_min", [0, 1])
    def test_threshold_mode_with_act_min_at_an_end(self, workspace, tmp_path, capsys, act_min):
        """The config accepts act_min 0 and 1; thresholding needs (0, 1)."""
        config = json.loads((workspace / "run.json").read_text())
        config.update(act_min=act_min, manifest=str(workspace / "corpus" / "manifest.json"))
        (tmp_path / "run.json").write_text(json.dumps(config))
        code = main(["predict", "--config", str(tmp_path / "run.json"), "--mode", "threshold",
                     "--out", str(tmp_path / "p.jsonl")])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith(f"error: {tmp_path / 'run.json'}: 'act_min' must lie in (0, 1)")
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize("key, value", [("alpha", "0.25"), ("hidden", "8"), ("epochs", -3)])
    def test_bad_config_value(self, tmp_path, capsys, key, value):
        (tmp_path / "run.json").write_text(json.dumps({"version": 1, key: value}))
        code = main(["train", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'run.json'}: config: '{key}' must be")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("line", [
        "[1, 2]", '{"video_id": "a", "class": 1, "start_s": 0.0, "end_s": 1.0, "score": "x"}',
        b"\xff", '{"video_id": "a", "class": 1, "start_s": 2.0, "end_s": 1.0, "score": 1.0}',
        '{"video_id": "a", "class": 1, "start_s": 0.0, "end_s": 1.0, "score": NaN}',
    ])
    def test_bad_predictions_line(self, workspace, tmp_path, capsys, line):
        pred = tmp_path / "preds.jsonl"
        pred.write_bytes(line if isinstance(line, bytes) else line.encode())
        code = main(["eval", "--pred", str(pred), "--manifest",
                     str(workspace / "corpus" / "manifest.json"), "--out", str(tmp_path / "e.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {pred}:1: ") and err.count("\n") == 1


class TestGradcheckCommand:
    def test_exit_zero_when_all_pass(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_exit_one_when_a_check_fails(self, capsys, monkeypatch):
        """A failing check fails the command, which CI's gradcheck step reads,
        even when a later check passes."""
        monkeypatch.setattr(cli, "run_all", lambda seed: [CheckResult("broken", 2.0, 1.0),
                                                          CheckResult("fine", 0.0, 1.0)])
        assert main(["gradcheck"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "FAIL broken: max_err=2.000e+00 tol=1.0e+00", "PASS fine: max_err=0.000e+00 tol=1.0e+00"]


class TestAblate:
    def test_writes_table_and_plot_data(self, workspace):
        out = workspace / "ablation"
        assert main(["ablate", "--config", str(workspace / "run.json"),
                     "--out", str(out), "--seed", "0"]) == 0
        table = (out / "ablation.csv").read_text().splitlines()
        variants = {line.split(",")[0] for line in table[1:]}
        assert {"full", "direct_opt", "oic_select", "inner_only"} <= variants
        assert any(v.startswith("full_alpha_") for v in variants)
        thresholds = {v for v in variants if v.startswith("threshold_")}
        assert thresholds == {f"threshold_{round(0.1 * i, 1)}" for i in range(1, 10)}
        plot_files = list((out / "plot_data").glob("*.csv"))
        assert len(plot_files) == 6
        # the run config's own alpha reuses the "full" entry instead of retraining
        full = (out / "preds_full.jsonl").read_bytes()
        assert (out / "preds_full_alpha_0.25.jsonl").read_bytes() == full
