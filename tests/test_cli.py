import json
from dataclasses import asdict

import numpy as np
import pytest

from oracles import checkpoint_v2

from oicloc import io
from oicloc.cli import main
from oicloc.config import load_config
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
        assert "manifest entry 0 lacks key 'fps'" in err

    def test_cas_csv_with_blank_header_line(self, tmp_path, capsys):
        err = self.train(tmp_path, capsys, "\nsnippet,class_1\n1,0.5\n")
        assert "v.csv: expected header" in err

    @pytest.mark.parametrize("fps", [float("nan"), float("inf")])
    def test_non_finite_fps(self, tmp_path, capsys, fps):
        err = self.train(tmp_path, capsys, "snippet,class_1\n1,0.5\n", {**self.ENTRY, "fps": fps})
        assert "manifest.json: manifest entry 0: 'fps' must be a positive finite number" in err

    def test_newline_in_cas_path_stays_on_one_line(self, tmp_path, capsys):
        err = self.train(tmp_path, capsys, "snippet,class_1\n1,0.5\n",
                         {**self.ENTRY, "cas_path": "a\nb.csv"})
        assert "a\\nb.csv" in err

    @pytest.mark.parametrize("cell", ['"' + "0" * 200_000 + '"', "0" * 200_000])
    def test_cas_cell_over_the_csv_field_limit(self, tmp_path, capsys, cell):
        err = self.train(tmp_path, capsys, f"snippet,class_1\n1,{cell}\n")
        assert "v.csv: field larger than field limit" in err

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
        assert f"manifest.json: manifest entry 0: '{key}' must be" in err

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
        ('{"version": 1, "profile": []}', "unknown profile []"),
        (b'{"version": 1, "profile": "\xff"}', "utf-8"),
    ])
    def test_bad_config_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "run.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert message in err

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
        data = checkpoint_v2(NetworkB(feature_dim=8, anchor_count=3, hidden=8))
        data[key] = value
        (tmp_path / "ckpt.json").write_text(json.dumps(data))
        err = self.predict(workspace, tmp_path, capsys, tmp_path / "ckpt.json")
        assert f"'{key}' must be a positive integer" in err

    def test_non_utf8_checkpoint(self, workspace, tmp_path, capsys):
        (tmp_path / "ckpt.json").write_bytes(b'{"version": 2, "hidden": "\xff"}')
        assert "utf-8" in self.predict(workspace, tmp_path, capsys, tmp_path / "ckpt.json")

    def test_checkpoint_config_mismatch(self, workspace, tmp_path, capsys):
        NetworkB(feature_dim=8, anchor_count=2, hidden=8).save(tmp_path / "ckpt.json")
        err = self.predict(workspace, tmp_path, capsys, tmp_path / "ckpt.json")
        assert "checkpoint has 2 anchors and feature_dim 8" in err
        assert "run.json has 3 anchors and feature_dim 8" in err

    @pytest.mark.parametrize("key, value", [("alpha", "0.25"), ("hidden", "8"), ("epochs", -3)])
    def test_bad_config_value(self, tmp_path, capsys, key, value):
        (tmp_path / "run.json").write_text(json.dumps({"version": 1, key: value}))
        code = main(["train", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'run.json'}: '{key}' must be")
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
