import json
from dataclasses import fields

import pytest

from oicloc import config
from oicloc.config import PROFILES, RunConfig, load_config
from oicloc.errors import InputError


def write(tmp_path, data):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    return path


class TestLoadConfig:
    def test_minimal(self, tmp_path):
        cfg = load_config(write(tmp_path, {"version": 1}))
        assert cfg == RunConfig()

    def test_profile_base_with_overrides(self, tmp_path):
        cfg = load_config(write(tmp_path, {"version": 1, "profile": "synthetic", "alpha": 0.5}))
        assert cfg.anchors == PROFILES["synthetic"].anchors
        assert cfg.alpha == 0.5

    def test_missing_version(self, tmp_path):
        with pytest.raises(InputError, match="version"):
            load_config(write(tmp_path, {"alpha": 0.5}))

    def test_wrong_version(self, tmp_path):
        with pytest.raises(InputError, match="version"):
            load_config(write(tmp_path, {"version": 2}))

    def test_unknown_keys_are_hard_errors(self, tmp_path):
        with pytest.raises(InputError, match="learning_rate"):
            load_config(write(tmp_path, {"version": 1, "learning_rate": 0.1}))

    def test_unknown_profile(self, tmp_path):
        with pytest.raises(InputError, match="profile"):
            load_config(write(tmp_path, {"version": 1, "profile": "charades"}))

    def test_invalid_anchors_rejected_eagerly(self, tmp_path):
        with pytest.raises(InputError):
            load_config(write(tmp_path, {"version": 1, "anchors": [4, 2]}))

    def test_a_bad_anchor_is_one_line_that_names_the_key_once(self, tmp_path):
        path = write(tmp_path, {"version": 1, "anchors": [0.5]})
        with pytest.raises(InputError) as refused:
            load_config(path)
        assert str(refused.value) == (f"{path}: config: 'anchors': anchor config: 'scales' must be "
                                      "a non-empty list or tuple of finite numbers >= 1")

    @pytest.mark.parametrize("key, value", [
        ("alpha", "0.25"), ("alpha", 0.0), ("hidden", "8"), ("hidden", 8.0), ("hidden", 0),
        ("epochs", -3), ("epochs", True), ("nms_iou", 7), ("act_min", float("nan")),
        ("loss_max", -2.0), ("lr", -1e-3), ("lr_step", 0), ("momentum", 1.5),
        ("weight_decay", -1.0), ("feature_dim", None), ("direct_opt_iters", 0),
        ("anchors", 8), ("anchors", ["8"]), ("anchors", [2, float("nan")]), ("manifest", 3),
        *(pytest.param(key, value, id=f"{key}-int-beyond-float") for key, value in [
            ("anchors", [2, 10**400]), ("lr", 10**400), ("alpha", 10**400),
            ("weight_decay", 10**400)]),
    ])
    def test_mistyped_or_out_of_range_value(self, tmp_path, key, value):
        with pytest.raises(InputError, match=f"run.json: config: '{key}' must be"):
            load_config(write(tmp_path, {"version": 1, key: value}))

    def test_profile_overrides_are_validated(self, tmp_path):
        with pytest.raises(InputError, match="'epochs' must be a positive integer"):
            load_config(write(tmp_path, {"version": 1, "profile": "thumos", "epochs": 0}))

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(InputError):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{")
        with pytest.raises(InputError):
            load_config(path)


class TestRunConfig:
    def test_constructor_validates(self):
        with pytest.raises(InputError, match="'nms_iou'"):
            RunConfig(nms_iou=7)
        with pytest.raises(InputError, match="'anchors'"):
            RunConfig(anchors=(4, 2))

    def test_every_field_and_file_key_has_one_rule(self):
        """A field added without a rule fails here, not on the first bad file."""
        assert config._RULES.keys() == {f.name for f in fields(RunConfig)} | {"version", "profile"}

    def test_anchor_list_becomes_tuple(self):
        assert RunConfig(anchors=[2, 4]).anchors == (2, 4)


class TestProfiles:
    def test_expected_profiles_exist(self):
        assert set(PROFILES) == {"thumos", "activitynet", "synthetic"}

    def test_thumos_anchor_ladder(self):
        assert PROFILES["thumos"].anchors == (1, 2, 4, 8, 16, 32)

    def test_activitynet_anchor_ladder(self):
        assert PROFILES["activitynet"].anchors == (16, 32, 64, 128, 256, 512)
        assert PROFILES["activitynet"].lr_step == 500

